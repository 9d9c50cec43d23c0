(* Benchmark harness regenerating every table and figure of the paper's
   evaluation section (§5):

     fig7    - Figure 7: the multi-grouping query workload summary
     table3  - Table 3: single-grouping queries, Hive vs RAPIDAnalytics
               (BSBM at two scales, Chem2Bio2RDF)
     fig8a   - Figure 8(a): MG1-MG4 on the small BSBM dataset, 4 engines
     fig8b   - Figure 8(b): MG1-MG4 on the larger BSBM dataset, 4 engines
     fig8c   - Figure 8(c): MG6-MG10 on Chem2Bio2RDF, 4 engines
     table4  - Table 4: MG11-MG18 on PubMed, 4 engines
     ablation- toggle each optimization knob in isolation
     faults  - fault-injection degradation: simulated time vs fault
               rate for all four engines
     memory  - memory-budget degradation: simulated time, spills, OOM
               retries, and map-join fallbacks as the per-task heap
               shrinks, for all four engines
     recovery- checkpoint-recovery sweep: fault rate crossed with
               checkpoint policy, showing completion, replay cost, and
               checkpoint overhead for all four engines
               (these four are one-knob sweeps: Experiment.knob_sweep)
     server  - query-server throughput sweep: a timed arrival stream
               through windowed admission and cross-query MQO, per-query
               latency percentiles and savings vs back-to-back runs
     overload- overload sweep: arrival rate crossed with fault rate,
               protected (deadline-aware shedding + circuit breaker +
               degradation ladder) vs unprotected goodput
     analyze - static cardinality estimation: catalog-build time,
               per-query analysis overhead, and estimation quality
               (q-error, interval soundness) across the catalog on all
               four engines; --bench-json FILE writes the artifact
     optimize- cost-based planner sweep: per-query planning time and a
               timed plan-cache hit, costed-vs-heuristic upper-bound
               cost deltas, per-engine byte-identity of optimized runs,
               and the plan-cache hit rate under the server's repeated
               workload; --bench-json FILE writes the artifact
     fuzz    - fuzzing harness: random analytical queries through the
               differential / metamorphic / analyzer / robustness
               oracles (cases/sec, per-oracle timings), plus a
               broken-engine self-test; --bench-json FILE writes the
               artifact

   Absolute numbers come from the MapReduce simulator's cost model
   (documented in DESIGN.md); the paper-facing claims are the shapes:
   who wins, by what factor, and where the crossovers are. Wall-clock
   time of the real in-memory executions is measured by perf/.

   test/paper.t is the pinned record of this output: every section from
   fig7 through overload, and analyze without its wall-clock
   catalog-build lines, byte for byte. A change that alters it must say
   why. Usage:

     dune exec bench/main.exe [--scale N] [--trace DIR] [--faults SPEC]
                              [--mem SPEC] [--checkpoint SPEC]
                              [section ...]  (default: all)

   With --trace DIR, each engine run of the paper's tables writes its
   Chrome trace-event file to
   DIR/<section>-<label>-<query>-<engine>.json, where <label> is the
   table's dataset (BSBM-small, BSBM-large, ...). With --faults SPEC
   (same key=value spec as `rapida query --faults`), every section's
   engine runs execute under that fault configuration; --mem SPEC
   (same spec as `rapida query --mem`) likewise bounds the per-task
   memory of every section's simulated cluster, and --checkpoint SPEC
   (same spec as `rapida query --checkpoint`) checkpoints every
   section's workflows.
   An unknown section, a missing option value, a malformed one, or
   --bench-json with more than one of analyze, optimize and fuzz to run
   (each writes its own artifact) exits with status 2. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Experiment = Rapida_harness.Experiment
module Report = Rapida_harness.Report

module Fault_injector = Rapida_mapred.Fault_injector
module Memory = Rapida_mapred.Memory
module Checkpoint = Rapida_mapred.Checkpoint

let scale = ref 1
let sections = ref []
let trace_dir = ref None
let bench_json = ref None
let fault_cfg = ref Fault_injector.default
let mem_cfg = ref Memory.default
let checkpoint_cfg = ref Checkpoint.default

let usage_error msg =
  prerr_endline ("error: " ^ msg);
  exit 2

let () =
  let spec parse cell value =
    match parse value with Ok cfg -> cell := cfg | Error msg -> usage_error msg
  in
  let valued =
    [
      ( "--scale",
        fun n ->
          match int_of_string_opt n with
          | Some n when n > 0 -> scale := n
          | _ -> usage_error ("--scale needs a positive integer, got " ^ n) );
      ("--trace", fun dir -> trace_dir := Some dir);
      ("--bench-json", fun path -> bench_json := Some path);
      ("--faults", spec Fault_injector.parse_spec fault_cfg);
      ("--mem", spec Memory.parse_spec mem_cfg);
      ("--checkpoint", spec Checkpoint.parse_spec checkpoint_cfg);
    ]
  in
  let rec parse = function
    | [] -> ()
    | flag :: rest when List.mem_assoc flag valued -> (
      match rest with
      | value :: rest ->
        List.assoc flag valued value;
        parse rest
      | [] -> usage_error (flag ^ " needs a value"))
    | s :: rest ->
      sections := s :: !sections;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv))

let want section =
  !sections = [] || List.mem "all" !sections || List.mem section !sections

(* The simulated cluster: paper-default startup costs with bandwidths
   scaled down by the ratio between the paper's dataset sizes (tens of
   GB) and this harness's (hundreds of KB), so that the startup-vs-data
   balance of each MR cycle matches the paper's regime. *)
let options =
  Plan_util.make
    ~cluster:
      (Rapida_mapred.Cluster.with_memory
         (Rapida_mapred.Cluster.scaled_down ~factor:1.0e5)
         !mem_cfg)
    ~map_join_threshold:(24 * 1024) ~faults:!fault_cfg
    ~checkpoint:!checkpoint_cfg ()

let all_engines = Engine.all_kinds
let table3_engines = Engine.[ Hive_naive; Rapid_analytics ]

(* Dataset scales: "small" BSBM stands in for BSBM-500K, "large" (4x) for
   BSBM-2M; the 4x ratio matches the paper's 500K -> 2M products. *)
let bsbm_small =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:(400 * !scale) ())))

let bsbm_large =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:(1600 * !scale) ())))

let chem =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Chem2bio.(generate (config ~compounds:(200 * !scale) ())))

let pubmed =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Pubmed.(
         generate (config ~publications:(600 * !scale) ())))

let queries ids = List.map Catalog.find_exn ids

let section_fig7 () =
  Fmt.pr "@.== Figure 7: evaluated RDF analytical queries ==@.";
  Fmt.pr "%a" Catalog.pp_figure7 ()

(* With --trace DIR, persist every engine run's span trace for offline
   inspection (chrome://tracing / Perfetto). *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let dump_traces ~section runs =
  match !trace_dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    List.iter
      (fun run ->
        List.iter
          (fun (r : Experiment.engine_run) ->
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-%s-%s-%s.json" section
                   run.Experiment.dataset_label run.Experiment.query.Catalog.id
                   (Engine.kind_name r.engine))
            in
            Rapida_mapred.(Trace.write_file (Exec_ctx.trace r.ctx) path))
          run.Experiment.results)
      runs

(* The paper's result tables, in print order: each section's name and
   its tables, each table's title, the dataset and the queries it runs,
   and the engines it compares. Table 3 compares only Hive(Naive) with
   RAPIDAnalytics, as the paper does. *)
let paper_sections =
  let g_bsbm = [ "G1"; "G2"; "G3"; "G4" ] in
  let mg1_4 = [ "MG1"; "MG2"; "MG3"; "MG4" ] in
  [
    ( "table3",
      [
        ("Table 3 (BSBM, small)", "BSBM-small", bsbm_small, g_bsbm,
         table3_engines);
        ("Table 3 (BSBM, large)", "BSBM-large", bsbm_large, g_bsbm,
         table3_engines);
        ("Table 3 (Chem2Bio2RDF)", "Chem2Bio2RDF", chem,
         [ "G5"; "G6"; "G7"; "G8"; "G9" ], table3_engines);
      ] );
    ( "fig8a",
      [ ("Figure 8(a): MG1-MG4", "BSBM-small", bsbm_small, mg1_4,
         all_engines) ] );
    ( "fig8b",
      [ ("Figure 8(b): MG1-MG4 (4x scale)", "BSBM-large", bsbm_large, mg1_4,
         all_engines) ] );
    ( "fig8c",
      [ ("Figure 8(c): MG6-MG10", "Chem2Bio2RDF", chem,
         [ "MG6"; "MG7"; "MG8"; "MG9"; "MG10" ], all_engines) ] );
    ( "table4",
      [ ("Table 4: MG11-MG18", "PubMed", pubmed,
         [ "MG11"; "MG12"; "MG13"; "MG14"; "MG15"; "MG16"; "MG17"; "MG18" ],
         all_engines) ] );
  ]

(* Each of a section's tables: the comparison, MR cycles, shuffle
   volume, phase breakdown and verification views of the same runs. *)
let section_paper (section, tables) =
  ( section,
    fun () ->
      List.iter
        (fun (title, label, input, ids, engines) ->
          let runs =
            List.map
              (Experiment.run_query ~engines options ~label (Lazy.force input))
              (queries ids)
          in
          let view pp suffix =
            Fmt.pr "%a" (pp ~title:(title ^ suffix) ~engines) runs
          in
          view Report.pp_comparison "";
          view Report.pp_cycles " - MR cycles";
          view Report.pp_bytes " - shuffle volume";
          view Report.pp_phases " - phase breakdown";
          Fmt.pr "%a" Report.pp_verification runs;
          dump_traces ~section runs)
        tables )

(* One knob at a time: one catalog query on each engine under every
   labelled setting, reporting simulated time, shuffle volume, and the
   slowdown against the first setting, whose result every other setting
   must reproduce exactly (a diverged cell is marked [*]). *)
let knob_sweep ?(engines = all_engines) ~title input id settings =
  Fmt.pr "%a"
    (Report.pp_knob_sweep ~engines)
    (Experiment.knob_sweep ~engines ~title ~settings options
       (Lazy.force input) (Catalog.find_exn id))

(* Ablations over the design choices DESIGN.md calls out: each knob is
   toggled in isolation on a workload where it matters. Results are
   always identical; only costs move. *)
let section_ablation () =
  List.iter
    (fun (knob, kind, input, id, off) ->
      knob_sweep ~engines:[ kind ]
        ~title:(Printf.sprintf "ablation: %s (%s)" knob id)
        input id
        [ ("on", Fun.id); ("off", off) ])
    [
      ( "RA partial aggregation",
        Engine.Rapid_analytics,
        bsbm_small,
        "MG1",
        fun o -> Plan_util.make ~base:o ~ntga_combiner:false () );
      ( "RA filter pushdown",
        Engine.Rapid_analytics,
        chem,
        "G6",
        fun o -> Plan_util.make ~base:o ~ntga_filter_pushdown:false () );
      ( "Hive map-joins",
        Engine.Hive_naive,
        chem,
        "G5",
        fun o -> Plan_util.make ~base:o ~map_join_threshold:0 () );
      ( "Hive ORC storage",
        Engine.Hive_naive,
        bsbm_small,
        "MG3",
        fun o -> Plan_util.make ~base:o ~hive_compression:1.0 () );
    ]

(* Fault-injection degradation: each engine's simulated time as the
   per-attempt crash/straggler rate rises (two whole-job retries, seeded
   injection). RAPIDAnalytics' shorter workflows re-roll fewer attempts,
   so it degrades the least in absolute seconds. *)
let section_faults () =
  let setting rate =
    ( Printf.sprintf "%g" rate,
      fun o ->
        Plan_util.make ~base:o
          ~faults:
            {
              Fault_injector.default with
              Fault_injector.seed = 7;
              task_fail_p = rate;
              straggler_p = rate;
              job_retries = 2;
            }
          () )
  in
  List.iter
    (fun (input, id) ->
      knob_sweep
        ~title:(Printf.sprintf "fault degradation: %s (seed 7)" id)
        input id
        (List.map setting [ 0.0; 0.02; 0.05; 0.1; 0.2 ]))
    [ (bsbm_small, "MG1"); (chem, "MG6") ]

(* Memory-budget degradation: each engine's simulated time as the
   per-task heap shrinks from the 1 GiB default. The sort buffer follows
   at a quarter of the heap (a container's sort buffer is a fraction of
   its heap, as in Hadoop), so one knob drives both spill pricing and
   the OOM/fallback ladder. Results stay byte-identical at every budget;
   the sweep shows where each engine starts spilling, OOM-retrying, and
   falling back from broadcast map-joins to repartition joins. *)
let section_memory () =
  let label b =
    if b >= 1024 * 1024 * 1024 then
      Printf.sprintf "%dG" (b / (1024 * 1024 * 1024))
    else if b >= 1024 * 1024 then Printf.sprintf "%dM" (b / (1024 * 1024))
    else if b >= 1024 then Printf.sprintf "%dK" (b / 1024)
    else Printf.sprintf "%dB" b
  in
  let setting heap =
    let mem =
      {
        Memory.default with
        Memory.task_heap_bytes = heap;
        sort_buffer_bytes =
          max 1 (min Memory.default.Memory.sort_buffer_bytes (heap / 4));
      }
    in
    ( label heap,
      fun o ->
        Plan_util.make ~base:o
          ~cluster:(Rapida_mapred.Cluster.with_memory o.Plan_util.cluster mem)
          () )
  in
  List.iter
    (fun (input, id) ->
      knob_sweep
        ~title:(Printf.sprintf "memory degradation: %s" id)
        input id
        (List.map setting
           [
             Memory.default.Memory.task_heap_bytes;
             256 * 1024;
             64 * 1024;
             16 * 1024;
             4 * 1024;
             1024;
           ]))
    [ (bsbm_small, "MG1"); (chem, "G5") ]

(* Checkpoint-recovery sweep: fault rate crossed with checkpoint policy
   under deliberately harsh retry settings (two task attempts, no
   whole-job resubmissions), so the Never policy can abort while any
   active policy recovers by replaying only the jobs since the last
   checkpoint. Shows the checkpoint-write overhead at rate 0 and the
   replay cost as the rate rises. *)
let section_recovery () =
  let setting (rate, policy) =
    ( Fmt.str "%g %a" rate Checkpoint.pp_policy policy,
      fun o ->
        Plan_util.make ~base:o
          ~faults:
            {
              Fault_injector.default with
              Fault_injector.seed = 7;
              task_fail_p = rate;
              max_attempts = 2;
              job_retries = 0;
            }
          ~checkpoint:{ Checkpoint.default with Checkpoint.policy }
          () )
  in
  knob_sweep ~title:"checkpoint recovery: MG1 (seed 7)" bsbm_small "MG1"
    (List.concat_map
       (fun rate ->
         List.map
           (fun policy -> setting (rate, policy))
           Checkpoint.
             [ Never; Every_k 1; Every_k 2; Adaptive (16 * 1024) ])
       [ 0.0; 0.1; 0.3 ])

(* Query-server throughput: a generated BSBM arrival stream through the
   windowed-admission MQO server, sweeping admission window, scheduler
   policy, and sharing. The headline contrast: with sharing on, the
   MQO-capable engines run strictly fewer jobs and scan strictly fewer
   bytes than back-to-back execution, with every per-query answer
   identical to its solo run. *)
let section_server () =
  let workload =
    Rapida_server.Workload.generate_exn ~seed:11 ~n:(10 * !scale)
      ~mean_gap_s:3.0 ()
  in
  List.iter
    (fun kind ->
      let sweep =
        Experiment.throughput options kind (Lazy.force bsbm_small) workload
      in
      Fmt.pr "%a" Report.pp_throughput sweep)
    Engine.[ Hive_mqo; Rapid_analytics ]

(* Overload sweep: arrival rate crossed with per-attempt fault rate, the
   same deadline-carrying workload through a protected server (bounded
   queue, deadline-aware shedding, circuit breaker, degradation ladder)
   and an unprotected one. The headline: at the heaviest arrival x fault
   point, protection strictly wins on goodput — shedding a few queries
   (each with a typed fate) keeps the rest inside their deadlines. *)
let section_overload () =
  let sweep =
    Experiment.overload_sweep ~n:(12 * !scale) options Engine.Rapid_analytics
      (Lazy.force bsbm_small)
  in
  Fmt.pr "%a" Report.pp_overload sweep

(* With --bench-json FILE, a section writes its committed BENCH artifact:
   one JSON object naming the section and scale, then [fields]. *)
let write_bench_json ~bench fields =
  match !bench_json with
  | None -> ()
  | Some path ->
    let module Json = Rapida_mapred.Json in
    let doc =
      Json.Obj
        (("bench", Json.String bench) :: ("scale", Json.Int !scale) :: fields)
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Fmt.pr "wrote %s@." path

(* Static cardinality estimation: for each dataset, a one-pass catalog
   build (timed), then every catalog query on that dataset analyzed
   (timed), its plan nodes checked for interval soundness against the
   measured cardinalities, and all four engines' result cardinalities
   checked against the root interval. With --bench-json FILE the
   catalog-build and per-query analysis timings are written as the
   committed BENCH artifact — the on-disk perf trajectory. *)
let section_analyze () =
  let module Json = Rapida_mapred.Json in
  let sweeps =
    List.map
      (fun (label, input, dataset) ->
        Experiment.estimation_sweep options ~label (Lazy.force input)
          (Catalog.by_dataset dataset))
      [
        ("BSBM-small", bsbm_small, Catalog.Bsbm);
        ("Chem2Bio2RDF", chem, Catalog.Chem2bio);
        ("PubMed", pubmed, Catalog.Pubmed);
      ]
  in
  List.iter
    (fun sweep ->
      Fmt.pr "%a" (Report.pp_estimation ~engines:all_engines) sweep)
    sweeps;
  let sweep_json (s : Experiment.estimation_sweep) =
    Json.Obj
      [
        ("label", Json.String s.Experiment.e_label);
        ("triples", Json.Int s.Experiment.e_triples);
        ( "catalog_build_ms",
          Json.Float (1000.0 *. s.Experiment.e_catalog_build_s) );
        ( "median_q_error",
          Json.Float (Experiment.median_q_error s.Experiment.e_estimations)
        );
        ( "queries",
          Json.List
            (List.map
               (fun (e : Experiment.estimation) ->
                 Json.Obj
                   [
                     ("id", Json.String e.Experiment.e_run.query.Catalog.id);
                     ( "analysis_ms",
                       Json.Float (1000.0 *. e.Experiment.e_analysis_s) );
                     ("nodes", Json.Int e.Experiment.e_nodes);
                     ("actual", Json.Int e.Experiment.e_actual);
                     ("q_error", Json.Float e.Experiment.e_q_error);
                     ( "max_node_q_error",
                       Json.Float e.Experiment.e_max_node_q_error );
                     ("violations", Json.Int e.Experiment.e_violations);
                   ])
               s.Experiment.e_estimations) );
      ]
  in
  write_bench_json ~bench:"analyze"
    [ ("datasets", Json.List (List.map sweep_json sweeps)) ]

(* Cost-based planner sweep: every multi-grouping BSBM query (plus a
   single-grouping control) planned cold and through the cache, the
   chosen orders priced against the heuristic orders at their upper
   bounds, per-engine byte-identity of optimized execution checked, and
   a repeated arrival stream driven through a planner-armed server so
   the plan cache shows its hit rate. With --bench-json FILE the
   planning/caching timings, cost deltas, and server cache counters are
   written as the committed BENCH artifact. *)
let section_optimize () =
  let module Json = Rapida_mapred.Json in
  let module Server = Rapida_server.Server in
  let module Plan_cache = Rapida_planner.Plan_cache in
  let module Cost_model = Rapida_planner.Cost_model in
  let sweep =
    Experiment.optimize_sweep ~arrivals:(20 * !scale) options
      ~label:"BSBM-small" (Lazy.force bsbm_small)
      (queries [ "MG1"; "MG2"; "MG3"; "MG4"; "G1" ])
  in
  Fmt.pr "%a" (Report.pp_optimize ~engines:all_engines) sweep;
  let entry_json (e : Experiment.optimize_entry) =
    let delta_pct =
      if e.Experiment.p_heuristic_hi > 0.0 then
        100.0
        *. (e.Experiment.p_heuristic_hi -. e.Experiment.p_chosen_hi)
        /. e.Experiment.p_heuristic_hi
      else 0.0
    in
    Json.Obj
      [
        ("id", Json.String e.Experiment.p_query.Catalog.id);
        ("planning_ms", Json.Float e.Experiment.p_planning_ms);
        ("cache_hit_ms", Json.Float e.Experiment.p_replan_ms);
        ("units", Json.Int e.Experiment.p_units);
        ("hints", Json.Int e.Experiment.p_hints);
        ("heuristic_hi_cost_s", Json.Float e.Experiment.p_heuristic_hi);
        ("chosen_hi_cost_s", Json.Float e.Experiment.p_chosen_hi);
        ("cost_delta_pct", Json.Float delta_pct);
        ("all_verified", Json.Bool e.Experiment.p_all_verified);
        ("identical", Json.Bool e.Experiment.p_identical);
      ]
  in
  let server_json =
    match sweep.Experiment.p_server.Server.r_optimize with
    | None -> Json.Null
    | Some o ->
      let hits = o.Server.p_cache.Plan_cache.hits in
      let misses = o.Server.p_cache.Plan_cache.misses in
      Json.Obj
        [
          ("planned", Json.Int o.Server.p_planned);
          ("cache_hits", Json.Int hits);
          ("cache_misses", Json.Int misses);
          ( "hit_rate",
            Json.Float
              (if hits + misses > 0 then
                 float_of_int hits /. float_of_int (hits + misses)
               else 0.0) );
          ("invalidations", Json.Int o.Server.p_cache.Plan_cache.invalidations);
          ("evictions", Json.Int o.Server.p_cache.Plan_cache.evictions);
          ("misestimates", Json.Int o.Server.p_misestimates);
          ("fallbacks", Json.Int o.Server.p_fallbacks);
          ("breaker", Json.String o.Server.p_breaker);
        ]
  in
  write_bench_json ~bench:"optimize"
    [
      ( "policy",
        Json.String (Cost_model.policy_name sweep.Experiment.p_policy) );
      ("label", Json.String sweep.Experiment.p_label);
      ( "catalog_build_ms",
        Json.Float (1000.0 *. sweep.Experiment.p_catalog_build_s) );
      ("queries", Json.List (List.map entry_json sweep.Experiment.p_entries));
      ("server", server_json);
    ]

(* The fuzzing harness as a benchmark: a full-budget run of all four
   oracles over the built-in dataset (expected clean), plus a short run
   against an intentionally row-dropping engine that the differential
   oracle must catch — the self-test that the clean run's silence is
   meaningful. With --bench-json FILE the throughput (cases/sec),
   per-oracle timings, and shrink-step counts are written as the
   committed BENCH artifact. *)
let section_fuzz () =
  let module Json = Rapida_mapred.Json in
  let module Fuzz = Rapida_fuzz.Fuzz in
  let sweep = Experiment.fuzz_sweep ~budget:(200 * !scale) () in
  Fmt.pr "@.== Fuzzing & differential oracles ==@.";
  Fmt.pr "%a" Fuzz.pp sweep.Experiment.f_clean;
  let broken = sweep.Experiment.f_broken in
  Fmt.pr "broken-engine run: %d cases, %d violation(s), caught=%b@."
    broken.Fuzz.r_cases (Fuzz.violations broken) sweep.Experiment.f_caught;
  (match broken.Fuzz.r_failures with
  | f :: _ ->
    Fmt.pr "first reproducer shrunk in %d step(s)@." f.Fuzz.f_shrink_steps
  | [] -> ());
  write_bench_json ~bench:"fuzz"
    [
      ("clean", Fuzz.to_json sweep.Experiment.f_clean);
      ("broken", Fuzz.to_json broken);
      ("caught", Json.Bool sweep.Experiment.f_caught);
      ("elapsed_s", Json.Float sweep.Experiment.f_elapsed_s);
    ]

let sections_in_order =
  (("fig7", section_fig7) :: List.map section_paper paper_sections)
  @ [
      ("ablation", section_ablation);
      ("faults", section_faults);
      ("memory", section_memory);
      ("recovery", section_recovery);
      ("server", section_server);
      ("overload", section_overload);
      ("analyze", section_analyze);
      ("optimize", section_optimize);
      ("fuzz", section_fuzz);
    ]

let () =
  List.iter
    (fun s ->
      if s <> "all" && not (List.mem_assoc s sections_in_order) then
        usage_error
          (Printf.sprintf "unknown section %s (expected all or one of: %s)" s
             (String.concat " " (List.map fst sections_in_order))))
    (List.rev !sections);
  if
    !bench_json <> None
    && List.length (List.filter want [ "analyze"; "optimize"; "fuzz" ]) > 1
  then
    usage_error
      "--bench-json writes one artifact: run one of analyze, optimize and \
       fuzz";
  Fmt.pr "RAPIDAnalytics benchmark harness (scale=%d)@." !scale;
  Fmt.pr "cluster model: %a@." Rapida_mapred.Cluster.pp options.cluster;
  List.iter (fun (name, run) -> if want name then run ()) sections_in_order
