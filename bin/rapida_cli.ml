(* Command-line interface:

     rapida gen     - generate a synthetic benchmark dataset (N-Triples)
     rapida query   - run a SPARQL analytical query on a dataset
     rapida serve   - drive a query workload through the MQO query server
     rapida lint    - static analysis: AST lint + plan verification
     rapida analyze - static cardinality/cost analysis from a statistics catalog
     rapida explain - show the overlap analysis and composite rewriting
     rapida catalog - list the paper's query workload, print query text
     rapida stats   - dataset statistics (triples, partitions)
     rapida fuzz    - differential fuzzing through the engine oracles *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Diagnostic = Rapida_analysis.Diagnostic
module Ast_lint = Rapida_analysis.Ast_lint
module Plan_verify = Rapida_analysis.Plan_verify
module Stats_catalog = Rapida_analysis.Stats_catalog
module Card_analysis = Rapida_analysis.Card_analysis
module Rules = Rapida_analysis.Rules
module Catalog = Rapida_queries.Catalog
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Trace = Rapida_mapred.Trace
module Json = Rapida_mapred.Json
module Fault_injector = Rapida_mapred.Fault_injector
module Memory = Rapida_mapred.Memory
module Checkpoint = Rapida_mapred.Checkpoint
module Cluster = Rapida_mapred.Cluster
module Ntriples = Rapida_rdf.Ntriples
module Graph = Rapida_rdf.Graph
module Rterm = Rapida_rdf.Term
module Scheduler = Rapida_mapred.Scheduler
module Server = Rapida_server.Server
module Workload = Rapida_server.Workload
module Planner = Rapida_planner.Planner
module Cost_model = Rapida_planner.Cost_model
module Plan_cache = Rapida_planner.Plan_cache
module Card = Rapida_analysis.Interval.Card

open Cmdliner

(* --- shared helpers ----------------------------------------------------- *)

(* Exit codes: 2 for usage/input errors (unreadable or unparsable query,
   bad flag values, unknown catalog id), 1 for runtime failures
   (verification mismatch, aborted workflow). Both print a one-line
   diagnostic on stderr — never a backtrace. *)
let die_usage msg =
  prerr_endline ("error: " ^ msg);
  exit 2

let die_runtime msg =
  prerr_endline ("error: " ^ msg);
  exit 1

let or_usage = function Ok v -> v | Error msg -> die_usage msg

(* A flag value cmdliner accepted but the command cannot use. *)
let require ok msg = if not ok then die_usage msg

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ] ~doc:"Log every simulated MapReduce job.")

(* Quarantined lines go to stderr so piped results stay clean. *)
let load_graph ?(mode = Ntriples.Strict) path =
  match Ntriples.read_file_mode mode path with
  | Ok { Ntriples.triples; quarantined } ->
    (match quarantined with
    | [] -> ()
    | qs ->
      Fmt.epr "dirty input: quarantined %d malformed line(s) in %s@."
        (List.length qs) path;
      List.iter (fun q -> Fmt.epr "  %a@." Ntriples.pp_quarantined q) qs);
    Ok (Graph.of_list triples)
  | Error e ->
    Error (Printf.sprintf "%s: %s" path (Ntriples.string_of_error e))

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
    |> Result.ok
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read %s" msg)

let print_table t =
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun w row ->
            let len =
              match row.(i) with
              | Some v -> String.length (Rterm.lexical v)
              | None -> 4
            in
            max w len)
          (String.length col) t.Table.rows)
      t.Table.schema
  in
  let pad s w = s ^ String.make (max 0 (w - String.length s)) ' ' in
  print_string
    (String.concat "  " (List.map2 pad t.Table.schema widths));
  print_newline ();
  List.iter
    (fun row ->
      let cells =
        List.mapi
          (fun i w ->
            let s =
              match row.(i) with
              | Some v -> Rterm.lexical v
              | None -> "NULL"
            in
            pad s w)
          widths
      in
      print_string (String.concat "  " cells);
      print_newline ())
    t.Table.rows

(* An optional key=value spec flag (or any flag with its own string
   parser). Parsed after cmdliner, so a bad value exits 2 with the
   parser's one-line diagnostic rather than cmdliner's usage error. *)
let spec_arg ?(docv = "SPEC") long ~doc parse default =
  let arg = Arg.(value & opt (some string) None & info [ long ] ~docv ~doc) in
  Term.(const (function None -> Ok default | Some s -> parse s) $ arg)

let named ~expected of_string name =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg ("expected " ^ expected))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (name v))

let data_arg ~doc =
  Arg.(value & opt (some string) None & info [ "d"; "data" ] ~docv:"FILE" ~doc)

(* The statistics catalog from exactly one of --data (scan a dataset) or
   --stats (reload a dumped catalog); [usage] is the error otherwise. *)
let load_catalog ~usage data stats_file =
  or_usage
    (match (data, stats_file) with
    | Some path, None -> Result.map Stats_catalog.build (load_graph path)
    | None, Some path ->
      Result.bind (read_file path) (fun src ->
          Result.map_error (Printf.sprintf "%s: %s" path)
            (Result.bind (Json.of_string src) Stats_catalog.of_json))
    | _ -> Error usage)

let with_fields json fields =
  match json with Json.Obj fs -> Json.Obj (fs @ fields) | other -> other

let table_json t =
  Json.Obj
    [
      ("schema", Json.List (List.map (fun c -> Json.String c) t.Table.schema));
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.List
                 (Array.to_list
                    (Array.map
                       (function
                         | Some v -> Json.String (Rterm.lexical v)
                         | None -> Json.Null)
                       row)))
             t.Table.rows) );
    ]

(* --- gen ---------------------------------------------------------------- *)

let dataset_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "bsbm" -> Ok `Bsbm
    | "chem2bio" | "chem" -> Ok `Chem
    | "pubmed" -> Ok `Pubmed
    | _ -> Error (`Msg "expected bsbm, chem2bio, or pubmed")
  in
  let print ppf = function
    | `Bsbm -> Fmt.string ppf "bsbm"
    | `Chem -> Fmt.string ppf "chem2bio"
    | `Pubmed -> Fmt.string ppf "pubmed"
  in
  Arg.conv (parse, print)

let gen_cmd =
  let dataset =
    Arg.(required & opt (some dataset_arg) None
         & info [ "d"; "dataset" ] ~doc:"Dataset family: bsbm, chem2bio, pubmed.")
  in
  let scale =
    Arg.(value & opt int 100
         & info [ "n"; "scale" ]
             ~doc:"Entity scale (products / compounds / publications).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output N-Triples file.")
  in
  let run dataset scale seed output =
    require (scale > 0) "--scale must be positive";
    let graph =
      match dataset with
      | `Bsbm -> Rapida_datagen.Bsbm.(generate (config ~seed ~products:scale ()))
      | `Chem ->
        Rapida_datagen.Chem2bio.(generate (config ~seed ~compounds:scale ()))
      | `Pubmed ->
        Rapida_datagen.Pubmed.(generate (config ~seed ~publications:scale ()))
    in
    Rapida_rdf.Ntriples.write_file output (Graph.triples graph);
    Printf.printf "wrote %d triples to %s\n" (Graph.size graph) output
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic benchmark dataset")
    Term.(const run $ dataset $ scale $ seed $ output)

(* --- shared optimizer flags --------------------------------------------- *)

let opt_policy_arg =
  let policy_conv =
    named ~expected:"mid, worst-case, or minimax-regret"
      Cost_model.policy_of_string Cost_model.policy_name
  in
  Arg.(value & opt policy_conv Cost_model.Worst_case
       & info [ "opt-policy" ] ~docv:"POLICY"
           ~doc:"Robustness policy for --optimize: mid (minimize the \
                 mid-point cost estimate), worst-case (default: minimize \
                 the interval's upper-bound cost), or minimax-regret \
                 (minimize the maximum regret across the low/mid/high \
                 cardinality scenarios).")

let optimize_arg =
  Arg.(value & flag
       & info [ "optimize" ]
           ~doc:"Enable the cost-based planner: enumerate star-join orders \
                 per subquery (and for the composite pattern), costed in \
                 the MR cost model over the static analyzer's cardinality \
                 intervals, and execute the selected verified orders. Off \
                 by default; without this flag execution is byte-identical \
                 to the heuristic planner.")

(* --- query -------------------------------------------------------------- *)

let engine_arg =
  named ~expected:"hive-naive, hive-mqo, rapid-plus, or rapid-analytics"
    Engine.kind_of_string Engine.kind_name

let query_source_args f =
  let data =
    Arg.(required & opt (some string) None
         & info [ "d"; "data" ] ~doc:"Dataset file (N-Triples).")
  in
  let query_file =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~doc:"SPARQL query file.")
  in
  let catalog_id =
    Arg.(value & opt (some string) None
         & info [ "c"; "catalog" ] ~doc:"Catalog query id (e.g. MG1).")
  in
  Term.(const f $ data $ query_file $ catalog_id)

let query_text query_file catalog_id =
  match query_file, catalog_id with
  | Some path, None -> read_file path
  | None, Some id -> (
    match Catalog.find id with
    | Some entry -> Ok entry.Catalog.sparql
    | None -> Error (Printf.sprintf "unknown catalog query %s" id))
  | _ -> Error "provide exactly one of --query or --catalog"

let query_cmd =
  let engine =
    Arg.(value & opt engine_arg Engine.Rapid_analytics
         & info [ "e"; "engine" ]
             ~doc:"Engine: hive-naive, hive-mqo, rapid-plus, rapid-analytics.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ] ~doc:"Check the result against the reference evaluator.")
  in
  let check_plans =
    Arg.(value & flag
         & info [ "verify-plans" ]
             ~doc:"Debug mode: re-check the optimizer invariants (composite \
                   cover, role equivalence, n-split arity, Agg-Join keys, \
                   workflow shape) and the result schema after the run. \
                   Verification is out-of-band and leaves the cost model \
                   untouched; a violation fails the run.")
  in
  let show_stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print per-job simulator statistics.")
  in
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace-event file (one span per simulated \
                   job phase; open in chrome://tracing or Perfetto).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the result table, statistics with per-phase time \
                   breakdown, and counters as JSON. A workflow that aborts \
                   prints its abort record instead, then fails.")
  in
  let faults =
    spec_arg "faults" Fault_injector.parse_spec Fault_injector.default
      ~doc:"Inject faults into the simulated cluster: comma-separated \
            key=value pairs over seed, task-fail, straggler, slowdown, \
            max-attempts, speculation (on|off), job-retries, backoff, \
            phase (map|reduce|all), poison (per-record bad-record \
            probability), and skip-max (bad records tolerated per job \
            by Hadoop-style skip mode), e.g. \
            seed=7,task-fail=0.05,straggler=0.1. Fault tolerance is \
            transparent: unless a task exhausts its attempts, results \
            are identical to a fault-free run and only the simulated \
            time and counters change."
  in
  let mem =
    spec_arg "mem" Memory.parse_spec Memory.default
      ~doc:"Bound the simulated cluster's per-task memory: \
            comma-separated key=value pairs over heap, sort-buffer \
            (sizes in bytes, or with a k/m/g suffix) and \
            spill-threshold (0-1], e.g. heap=64m,sort-buffer=1m. \
            Memory pressure prices spill passes, OOM retries, and \
            map-join fallbacks into the simulated time; results are \
            byte-identical at every budget."
  in
  let checkpoint =
    spec_arg "checkpoint" Checkpoint.parse_spec Checkpoint.default
      ~doc:"Checkpoint workflow outputs in the simulated cluster: \
            comma-separated key=value pairs over every=K (checkpoint \
            every K jobs), adaptive=BYTES (checkpoint once that many \
            output bytes accumulate; k/m/g suffixes), and \
            replication=N (HDFS copies per checkpoint, default 3), \
            e.g. every=1 or adaptive=64m,replication=2. With any \
            policy active a workflow that exhausts a job's retries \
            replays only the jobs since the last checkpoint instead \
            of aborting; checkpoint writes and replays are priced \
            into the simulated time and results stay byte-identical."
  in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"After the run, compare the static cardinality analysis \
                   against reality: build a statistics catalog from the \
                   dataset, annotate the logical plan with cardinality \
                   intervals, and print each plan node's predicted interval \
                   next to its measured cardinality, with the root q-error. \
                   Execution itself is untouched — without this flag the \
                   output is byte-identical.")
  in
  let dirty_input =
    spec_arg "dirty-input" ~docv:"MODE" Ntriples.parse_mode Ntriples.Strict
      ~doc:"How to treat malformed N-Triples lines in the dataset: \
            strict (default: fail the load), skip[=N] (quarantine up \
            to N malformed lines, default 100, then fail), or \
            quarantine (quarantine every malformed line). Quarantined \
            lines are reported on stderr with line and column."
  in
  let run (data, query_file, catalog_id) engine verify check_plans show_stats
      trace_file json fault_cfg mem_cfg checkpoint_cfg analyze optimize
      opt_policy dirty_mode verbose =
    setup_logs verbose;
    let ( let* ) = Result.bind in
    let usage r = Result.map_error (fun msg -> (2, msg)) r in
    let runtime r = Result.map_error (fun msg -> (1, msg)) r in
    match
      let* fault_cfg = usage fault_cfg in
      let* mem_cfg = usage mem_cfg in
      let* checkpoint_cfg = usage checkpoint_cfg in
      let* dirty_mode = usage dirty_mode in
      let cluster =
        Cluster.with_memory Plan_util.default_options.Plan_util.cluster mem_cfg
      in
      let options =
        Plan_util.make ~cluster ~faults:fault_cfg ~checkpoint:checkpoint_cfg ()
      in
      let* graph = usage (load_graph ~mode:dirty_mode data) in
      let* src = usage (query_text query_file catalog_id) in
      let* query = usage (Rapida_sparql.Analytical.parse src) in
      (* Cost-based planning: enumerate, select, verify, and arm the
         context with the chosen join orders before execution. *)
      let decision =
        if not optimize then None
        else
          let catalog = Stats_catalog.build graph in
          Some (Planner.plan ~policy:opt_policy ~cluster catalog query)
      in
      let options =
        match decision with
        | None -> options
        | Some d -> Planner.apply d options
      in
      let ctx = Plan_util.context options in
      let input = Engine.input_of_graph graph in
      let session = Engine.prepare engine input in
      (* The one place engine errors meet the exit-code convention:
         Parse_error -> 2, runtime failures -> 1. With --json an aborted
         workflow also prints its abort record on stdout. *)
      let* out =
        Result.map_error
          (fun e ->
            (match e with
            | Engine.Job_failed a when json ->
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("engine", Json.String (Engine.kind_name engine));
                        ("abort", Rapida_mapred.Workflow.abort_to_json a);
                      ]))
            | _ -> ());
            (Engine.error_exit_code e, Engine.error_message e))
          (Engine.execute session ctx query)
      in
      let* () =
        if not check_plans then Ok ()
        else
          match Plan_verify.check_run engine query out.Engine.table with
          | None -> Ok ()
          | Some msg -> Error (1, msg)
      in
      let* () =
        if not verify then Ok ()
        else
          let* expected = runtime (Rapida_ref.Ref_engine.run_sparql graph src) in
          if Relops.same_results expected out.Engine.table then begin
            if not json then
              print_endline
                "verification: result matches the reference evaluator";
            Ok ()
          end
          else Error (1, "verification FAILED: result differs from reference")
      in
      Ok (ctx, out, graph, query, decision)
    with
    | Error (2, msg) -> die_usage msg
    | Error (_, msg) -> die_runtime msg
    | Ok (ctx, { Engine.table; stats; trace }, graph, query, decision) ->
      (* Runtime misestimate defense, single-query flavor: compare the
         measured root cardinality against the predicted interval and
         count the escape. *)
      let escaped =
        match decision with
        | Some d -> not (Card.contains d.Planner.d_root (Table.cardinality table))
        | None -> false
      in
      let misestimates = if escaped then [ ("opt.misestimates", 1) ] else [] in
      (* --analyze runs the static analyzer after the query; execution
         itself never sees the flag. *)
      let measured =
        if not analyze then None
        else
          let catalog = Stats_catalog.build graph in
          let analysis = Card_analysis.analyze catalog query in
          Some (analysis, Card_analysis.measure graph analysis)
      in
      if check_plans then
        List.iter
          (fun d -> Fmt.epr "%a@." Diagnostic.pp d)
          (Plan_verify.verify_memory
             ~heap_bytes:
               (Exec_ctx.cluster ctx).Cluster.task_heap_bytes
             ~agj_ht_bytes:stats.Stats.agj_ht_bytes);
      (match trace_file with
      | Some path -> (
        match Trace.write_file trace path with
        | () ->
          if not json then
            Printf.printf "wrote trace (%d events) to %s\n"
              (List.length (Trace.events trace))
              path
        | exception Sys_error msg -> die_runtime ("cannot write trace: " ^ msg))
      | None -> ());
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                ([
                   ("engine", Json.String (Engine.kind_name engine));
                   ("rows", Json.Int (Table.cardinality table));
                   ("table", table_json table);
                   ("stats", Stats.to_json stats);
                   ( "counters",
                     Json.Obj
                       (List.map (fun (name, v) -> (name, Json.Int v))
                          (Stats.counters stats @ misestimates)) );
                 ]
                @ (match decision with
                  | None -> []
                  | Some d ->
                    [
                      ( "optimize",
                        with_fields (Planner.decision_to_json d)
                          [ ("misestimate", Json.Bool escaped) ] );
                    ])
                @
                match measured with
                | Some (analysis, m) ->
                  let actuals =
                    Json.List
                      (List.map
                         (fun (node, actual) ->
                           Json.Obj
                             [
                               ("id", Json.Int node.Card_analysis.id);
                               ("actual", Json.Int actual);
                             ])
                         (Card_analysis.measured_list m))
                  in
                  [
                    ( "analyze",
                      with_fields
                        (Card_analysis.to_json analysis)
                        [
                          ("actuals", actuals);
                          ( "q_error",
                            Json.Float (Card_analysis.root_q_error m) );
                        ] );
                  ]
                | None -> [])))
      else begin
        print_table table;
        Fmt.pr "-- %d rows; %a@." (Table.cardinality table) Stats.pp_summary
          stats;
        (match decision with
        | None -> ()
        | Some d ->
          Fmt.pr "@.cost-based plan:@.%a" Planner.pp_decision d;
          if escaped then
            Fmt.pr
              "optimizer misestimate: measured cardinality %d escaped the \
               predicted interval %a@."
              (Table.cardinality table) Card.pp d.Planner.d_root);
        if show_stats then Fmt.pr "%a@." Stats.pp stats;
        match measured with
        | Some (analysis, m) ->
          Fmt.pr "@.predicted vs actual cardinalities:@.%a@."
            Card_analysis.pp_measured m;
          List.iter
            (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
            analysis.Card_analysis.diagnostics;
          Fmt.pr "root q-error: %.2f@." (Card_analysis.root_q_error m)
        | None -> ()
      end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a SPARQL analytical query on a dataset")
    Term.(const run
          $ query_source_args (fun d q c -> (d, q, c))
          $ engine $ verify $ check_plans $ show_stats $ trace_file $ json
          $ faults $ mem $ checkpoint $ analyze $ optimize_arg $ opt_policy_arg
          $ dirty_input $ verbose_arg)

(* --- serve -------------------------------------------------------------- *)

let policy_arg =
  named ~expected:"fifo or fair" Scheduler.policy_of_string
    Scheduler.policy_name

let serve_cmd =
  let data =
    Arg.(required & opt (some string) None
         & info [ "d"; "data" ] ~doc:"Dataset file (N-Triples).")
  in
  let workload_file =
    Arg.(value & opt (some string) None
         & info [ "w"; "workload" ] ~docv:"FILE"
             ~doc:"Workload file: one arrival per line, TIME QUERY [LABEL] \
                   [deadline=SECONDS], where QUERY is a catalog id or \
                   @FILE with SPARQL (@ paths resolve relative to the \
                   workload file); # starts a comment.")
  in
  let generate =
    Arg.(value & opt (some int) None
         & info [ "generate" ] ~docv:"N"
             ~doc:"Generate N arrivals instead of reading a workload file: \
                   exponential inter-arrival gaps over the BSBM catalog \
                   queries, deterministic in --seed.")
  in
  let seed =
    Arg.(value & opt int 11 & info [ "seed" ] ~doc:"Workload generator seed.")
  in
  let mean_gap =
    Arg.(value & opt float 3.0
         & info [ "mean-gap" ] ~docv:"SECONDS"
             ~doc:"Mean inter-arrival gap for --generate.")
  in
  let engine =
    Arg.(value & opt engine_arg Engine.Rapid_analytics
         & info [ "e"; "engine" ]
             ~doc:"Engine: hive-naive, hive-mqo, rapid-plus, rapid-analytics. \
                   Cross-query sharing applies to the MQO-capable kinds \
                   (hive-mqo, rapid-analytics).")
  in
  let window =
    Arg.(value & opt float 5.0
         & info [ "window" ] ~docv:"SECONDS"
             ~doc:"Admission window: a batch collects arrivals for this many \
                   seconds after its first pending query, then admits them \
                   together. 0 admits each arrival instant alone.")
  in
  let policy =
    Arg.(value & opt policy_arg Scheduler.Fair
         & info [ "policy" ] ~doc:"Cluster scheduler policy: fifo or fair.")
  in
  let no_share =
    Arg.(value & flag
         & info [ "no-share" ]
             ~doc:"Disable cross-query sharing: admitted queries run solo \
                   (isolates the batching and scheduling effects).")
  in
  let detail =
    Arg.(value & flag
         & info [ "detail" ] ~doc:"Print one line per query before the summary.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the full server report (per-query latencies, \
                   batches, savings vs back-to-back) as JSON.")
  in
  let faults =
    spec_arg "faults" Fault_injector.parse_spec Fault_injector.default
      ~doc:"Fault-injection spec for every simulated workflow (same \
            syntax as rapida query --faults)."
  in
  let mem =
    spec_arg "mem" Memory.parse_spec Memory.default
      ~doc:"Per-task memory budget (same syntax as rapida query --mem)."
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Default per-query SLO: finish within SECONDS of arrival. \
                   Applies to arrivals without their own deadline= in the \
                   workload file; late queries are reported deadline-missed.")
  in
  let queue_cap =
    Arg.(value & opt (some int) None
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Admission control: bound in-flight plus newly admitted \
                   queries to N; overflow is shed (typed fate, exit stays 0) \
                   under --shed-policy.")
  in
  let shed_policy =
    let shed_conv =
      named ~expected:"drop-tail, cost-aware, or deadline-aware"
        Server.shed_policy_of_string Server.shed_policy_name
    in
    Arg.(value & opt shed_conv Server.Drop_tail
         & info [ "shed-policy" ]
             ~doc:"What to shed when the queue is full: drop-tail (latest \
                   arrivals), cost-aware (most expensive first, by the priced \
                   solo plan's slot-seconds), or deadline-aware (keep the \
                   earliest deadlines, and refuse queries whose estimated \
                   completion already misses theirs).")
  in
  let degrade =
    Arg.(value & flag
         & info [ "degrade" ]
             ~doc:"Enable the degradation ladder: under measured pressure \
                   the server steps from full MQO sharing to sharing-off to \
                   broadcast-everything heuristic plans (with sampled result \
                   verification), and back up when pressure clears.")
  in
  let breaker =
    Arg.(value & opt (some int) None
         & info [ "breaker" ] ~docv:"K"
             ~doc:"Circuit breaker: after K consecutive transient \
                   (job-failed) results, shed whole batches until \
                   --breaker-cooldown passes.")
  in
  let breaker_cooldown =
    Arg.(value & opt float 120.0
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:"How long an open circuit breaker keeps shedding.")
  in
  let plan_cache =
    Arg.(value & opt int 64
         & info [ "plan-cache" ] ~docv:"N"
             ~doc:"With --optimize: plan-cache capacity (LRU entries keyed \
                   by query shape and catalog fingerprint; a hit skips join \
                   enumeration entirely).")
  in
  let opt_defense =
    Arg.(value & opt int 3
         & info [ "opt-defense" ] ~docv:"K"
             ~doc:"With --optimize: trip the optimizer circuit breaker off \
                   for the session after K consecutive misestimate escapes \
                   (each single escape costs one heuristic-planned group).")
  in
  let run data workload_file generate seed mean_gap engine window policy
      no_share detail json fault_cfg mem_cfg deadline queue_cap shed_policy
      degrade breaker breaker_cooldown optimize opt_policy plan_cache
      opt_defense verbose =
    setup_logs verbose;
    let fault_cfg = or_usage fault_cfg in
    let mem_cfg = or_usage mem_cfg in
    let positive = Option.fold ~none:true ~some:(fun k -> k > 0) in
    let seconds x = x > 0.0 && Float.is_finite x in
    require (window >= 0.0 && Float.is_finite window)
      "window must be a non-negative number of seconds";
    require (Option.fold ~none:true ~some:seconds deadline)
      "--deadline must be a positive number of seconds";
    require (positive queue_cap) "--queue-cap must be positive";
    require (positive breaker) "--breaker must be positive";
    require (seconds breaker_cooldown)
      "--breaker-cooldown must be a positive number of seconds";
    require (plan_cache >= 1) "--plan-cache must be positive";
    require (opt_defense >= 1) "--opt-defense must be positive";
    let workload =
      or_usage
        (match (workload_file, generate) with
        | Some path, None -> Workload.load path
        | None, Some n ->
          Result.map_error Workload.gen_error_message
            (Workload.generate ~seed ~n ~mean_gap_s:mean_gap ())
        | _ -> Error "provide exactly one of --workload or --generate")
    in
    let graph = or_usage (load_graph data) in
    let cluster =
      Cluster.with_memory Plan_util.default_options.Plan_util.cluster mem_cfg
    in
    let options = Plan_util.make ~cluster ~faults:fault_cfg () in
    let overload =
      Server.overload ?queue_cap ~shed_policy ?deadline_s:deadline
        ?breaker_k:breaker ~breaker_cooldown_s:breaker_cooldown ~degrade ()
    in
    let cfg =
      Server.config ~window_s:window ~policy ~share:(not no_share) ~overload
        ?optimize:
          (if optimize then
             Some
               (Server.optimize ~policy:opt_policy ~cache_capacity:plan_cache
                  ~defense_k:opt_defense ())
           else None)
        ~options engine
    in
    let report = Server.run cfg (Engine.input_of_graph graph) workload in
    if json then print_endline (Json.to_string (Server.to_json report))
    else if detail then Fmt.pr "%a@." Server.pp_detail report
    else Fmt.pr "%a@." Server.pp report;
    (* Sharing must never change an answer: a divergence from the solo
       runs (or any failed query) is a runtime failure. *)
    if (not report.Server.r_all_matched) || report.Server.r_errors > 0 then
      exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Drive a timed query workload through the query server: \
             windowed admission, cross-query MQO (shared composite plans \
             across overlapping queries), slot scheduling, and per-query \
             latency/savings reporting against back-to-back execution.")
    Term.(const run $ data $ workload_file $ generate $ seed $ mean_gap
          $ engine $ window $ policy $ no_share $ detail $ json $ faults
          $ mem $ deadline $ queue_cap $ shed_policy $ degrade $ breaker
          $ breaker_cooldown $ optimize_arg $ opt_policy_arg $ plan_cache
          $ opt_defense $ verbose_arg)

(* --- lint --------------------------------------------------------------- *)

(* Both analysis layers over one query text: the AST lint, then — when
   the query is inside the analytical fragment — the optimizer-invariant
   verifier. Parse failures surface as [parse-error] diagnostics, so
   every input yields a report rather than a usage error. *)
let lint_text src =
  let ast_ds = Ast_lint.lint_source src in
  let plan_ds =
    match Rapida_sparql.Analytical.parse src with
    | Ok q -> Plan_verify.verify_query q
    | Error _ -> [] (* already reported as parse-error / analytical-form *)
  in
  Diagnostic.sort (ast_ds @ plan_ds)

let severity_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "error" -> Ok Diagnostic.Error
    | "warning" -> Ok Diagnostic.Warning
    | "info" -> Ok Diagnostic.Info
    | _ -> Error (`Msg "expected error, warning, or info")
  in
  Arg.conv (parse, fun ppf s -> Fmt.string ppf (Diagnostic.severity_name s))

(* Shared by lint and analyze: the CI gate. Without --min-severity the
   historical behaviour holds (print everything, exit 1 on errors); with
   it, findings below LEVEL are dropped from output and counts and any
   remaining finding fails the run. *)
let min_severity_arg =
  Arg.(value & opt (some severity_arg) None
       & info [ "min-severity" ] ~docv:"LEVEL"
           ~doc:"Report only diagnostics at or above LEVEL (error, warning, \
                 info) and exit 1 when any remain — the CI gate. Without \
                 this option every finding is printed and only \
                 error-severity findings fail the run.")

let rules_arg =
  Arg.(value & flag
       & info [ "rules" ]
           ~doc:"Print the registry of every static-analysis rule (id, \
                 default severity, layer, one-line doc) and exit; honours \
                 $(b,--json).")

let print_rules json =
  if json then print_endline (Json.to_string (Rules.to_json Rules.all))
  else Fmt.pr "%a" Rules.pp Rules.all

let apply_min_severity min_severity reports =
  match min_severity with
  | None -> reports
  | Some level ->
    List.map
      (fun (file, ds) ->
        ( file,
          List.filter
            (fun d ->
              Diagnostic.compare_severity d.Diagnostic.severity level <= 0)
            ds ))
      reports

let gate_failed min_severity reports =
  match min_severity with
  | None -> List.exists (fun (_, ds) -> Diagnostic.has_errors ds) reports
  | Some _ -> List.exists (fun (_, ds) -> ds <> []) reports

let count_severity reports sev =
  List.fold_left
    (fun n (_, ds) ->
      n + List.length (List.filter (fun d -> d.Diagnostic.severity = sev) ds))
    0 reports

(* The lint/analyze JSON envelope: one object per report, then the
   severity counts over all of them. *)
let reports_json reports objs =
  Json.Obj
    [
      ("reports", Json.List objs);
      ("errors", Json.Int (count_severity reports Diagnostic.Error));
      ("warnings", Json.Int (count_severity reports Diagnostic.Warning));
      ("infos", Json.Int (count_severity reports Diagnostic.Info));
    ]

(* Resolve FILE / --catalog / --catalog-all inputs to (label, source)
   pairs, shared by lint and analyze. *)
let gather_inputs ~verb files catalog_ids catalog_all =
  let file_inputs =
    List.map
      (fun path ->
        match read_file path with
        | Ok src -> (path, src)
        | Error msg -> die_usage msg)
      files
  in
  let catalog_inputs =
    let entries =
      if catalog_all then Catalog.all
      else
        List.map
          (fun id ->
            match Catalog.find id with
            | Some e -> e
            | None -> die_usage ("unknown catalog query " ^ id))
          catalog_ids
    in
    List.map (fun e -> ("catalog:" ^ e.Catalog.id, e.Catalog.sparql)) entries
  in
  let inputs = file_inputs @ catalog_inputs in
  if inputs = [] then
    die_usage
      (Printf.sprintf "nothing to %s: pass FILEs, --catalog ID, or --catalog-all"
         verb);
  inputs

let lint_cmd =
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"SPARQL query files to lint.")
  in
  let catalog_ids =
    Arg.(value & opt_all string []
         & info [ "c"; "catalog" ]
             ~doc:"Lint a catalog query by id (repeatable).")
  in
  let catalog_all =
    Arg.(value & flag
         & info [ "catalog-all" ] ~doc:"Lint every catalog query.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print one report object per input: file, counts by \
                   severity, and the diagnostics with rule ids and spans.")
  in
  let run files catalog_ids catalog_all json min_severity rules =
    if rules then print_rules json
    else begin
      let inputs = gather_inputs ~verb:"lint" files catalog_ids catalog_all in
      let reports =
        List.map (fun (label, src) -> (label, lint_text src)) inputs
        |> apply_min_severity min_severity
      in
      if json then
        print_endline
          (Json.to_string
             (reports_json reports
                (List.map
                   (fun (file, ds) -> Diagnostic.report_json ~file ds)
                   reports)))
      else
        List.iter
          (fun (file, ds) ->
            List.iter
              (fun d -> Fmt.pr "%a@." (Diagnostic.pp_located ~file) d)
              ds)
          reports;
      if gate_failed min_severity reports then exit 1
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze SPARQL queries: semantic lint of the AST \
             plus verification of the optimizer's derived plans. Exits 0 \
             when no error-severity diagnostics were reported (no finding \
             at or above --min-severity, when given), 1 otherwise, 2 on \
             usage errors.")
    Term.(const run $ files $ catalog_ids $ catalog_all $ json
          $ min_severity_arg $ rules_arg)

(* --- analyze ------------------------------------------------------------ *)

let analyze_cmd =
  let files =
    Arg.(value & pos_all string []
         & info [] ~docv:"FILE" ~doc:"SPARQL query files to analyze.")
  in
  let catalog_ids =
    Arg.(value & opt_all string []
         & info [ "c"; "catalog" ]
             ~doc:"Analyze a catalog query by id (repeatable).")
  in
  let catalog_all =
    Arg.(value & flag
         & info [ "catalog-all" ] ~doc:"Analyze every catalog query.")
  in
  let data =
    data_arg
      ~doc:"Dataset file (N-Triples) to build the statistics catalog from."
  in
  let stats_file =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Load a previously dumped statistics catalog (JSON) \
                   instead of scanning a dataset.")
  in
  let dump_stats =
    Arg.(value & opt (some string) None
         & info [ "dump-stats" ] ~docv:"FILE"
             ~doc:"Write the statistics catalog as JSON (reloadable with \
                   --stats) and continue.")
  in
  let mem =
    spec_arg "mem" Memory.parse_spec Memory.default
      ~doc:"Per-task memory budget the byte-level diagnostics \
            (broadcast feasibility, predicted map-join overcommit) \
            compare against (same syntax as rapida query --mem)."
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print one report object per input: file, counts by \
                   severity, the diagnostics, and the annotated plan tree \
                   with cardinality and byte intervals.")
  in
  let run files catalog_ids catalog_all data stats_file dump_stats memory
      json min_severity rules =
    if rules then print_rules json
    else begin
      let inputs =
        gather_inputs ~verb:"analyze" files catalog_ids catalog_all
      in
      let catalog =
        load_catalog ~usage:"provide exactly one of --data or --stats" data
          stats_file
      in
      (match dump_stats with
      | None -> ()
      | Some path -> (
        match
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc (Json.to_string (Stats_catalog.to_json catalog));
              output_char oc '\n')
        with
        | () -> ()
        | exception Sys_error msg ->
          die_runtime ("cannot write stats: " ^ msg)));
      let memory = or_usage memory in
      (* Unparsable inputs still yield a report — the lint diagnostics
         carry the parse failure — so the exit code works like lint. *)
      let analyses =
        List.map
          (fun (label, src) ->
            match Rapida_sparql.Analytical.parse src with
            | Ok q -> (label, Some (Card_analysis.analyze ~memory catalog q))
            | Error _ -> (label, None))
          inputs
      in
      let reports =
        List.map
          (fun ((label, src), (_, analysis)) ->
            let ds =
              match analysis with
              | Some a -> a.Card_analysis.diagnostics
              | None -> lint_text src
            in
            (label, ds))
          (List.combine inputs analyses)
        |> apply_min_severity min_severity
      in
      if json then
        print_endline
          (Json.to_string
             (reports_json reports
                (List.map2
                   (fun (file, ds) (_, analysis) ->
                     let plan =
                       Option.bind analysis (fun a ->
                           Json.member "plan" (Card_analysis.to_json a))
                     in
                     with_fields
                       (Diagnostic.report_json ~file ds)
                       [ ("plan", Option.value plan ~default:Json.Null) ])
                   reports analyses)))
      else
        List.iter2
          (fun (file, ds) (_, analysis) ->
            (match analysis with
            | Some a -> Fmt.pr "-- %s@.%a@." file Card_analysis.pp_plan a
            | None -> ());
            List.iter
              (fun d -> Fmt.pr "%a@." (Diagnostic.pp_located ~file) d)
              ds)
          reports analyses;
      if gate_failed min_severity reports then exit 1
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static cardinality and cost analysis: annotate each query's \
             logical plan with sound cardinality and shuffle-byte \
             intervals derived from a statistics catalog, and report \
             stats-aware diagnostics (statically empty joins, zero-\
             selectivity filters, skew, broadcast feasibility). Exits 0 \
             when the gate passes, 1 otherwise, 2 on usage errors.")
    Term.(const run $ files $ catalog_ids $ catalog_all $ data $ stats_file
          $ dump_stats $ mem $ json $ min_severity_arg $ rules_arg)

(* --- explain ------------------------------------------------------------ *)

let explain_cmd =
  let query_file =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~doc:"SPARQL query file.")
  in
  let catalog_id =
    Arg.(value & opt (some string) None
         & info [ "c"; "catalog" ] ~doc:"Catalog query id.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the plan description and predicted MR-cycle counts \
                   per engine as JSON.")
  in
  let lint =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Also run the static analyzer (AST lint + plan \
                   verification) and print its diagnostics.")
  in
  let analyze =
    Arg.(value & flag
         & info [ "analyze" ]
             ~doc:"Annotate the logical plan with cardinality and byte \
                   intervals from a statistics catalog (requires --data or \
                   --stats) and print the stats-aware diagnostics.")
  in
  let data =
    data_arg
      ~doc:"Dataset file (N-Triples) to build the --analyze statistics \
            catalog from."
  in
  let stats_file =
    Arg.(value & opt (some string) None
         & info [ "stats" ] ~docv:"FILE"
             ~doc:"Statistics catalog (JSON, from rapida analyze \
                   --dump-stats) for --analyze.")
  in
  let run query_file catalog_id json lint analyze optimize opt_policy data
      stats_file =
    let src = or_usage (query_text query_file catalog_id) in
    let lint_ds = if lint then lint_text src else [] in
    match Rapida_sparql.Analytical.parse src with
    | Error msg -> die_usage msg
    | Ok q ->
      let catalog =
        lazy
          (load_catalog
             ~usage:"--analyze and --optimize need exactly one of --data or \
                     --stats"
             data stats_file)
      in
      let analysis =
        if not analyze then None
        else Some (Card_analysis.analyze (Lazy.force catalog) q)
      in
      (* Plan twice through a fresh bounded cache: the replan demonstrates
         that an identical (shape, catalog) pair skips enumeration. *)
      let optimized =
        if not optimize then None
        else
          let catalog = Lazy.force catalog in
          let catalog_fp = Planner.catalog_fingerprint catalog in
          let cache = Planner.create_cache ~capacity:4 in
          let plan () =
            Planner.plan_cached ~cache ~catalog ~catalog_fp ~policy:opt_policy q
          in
          let _, first = plan () in
          let d, replan = plan () in
          Some (d, first, replan, Planner.shape_fingerprint opt_policy q,
                catalog_fp)
      in
      let hit_name = function `Hit -> "hit" | `Miss -> "miss" in
      if json then begin
        let fields =
          [
            ( "subqueries",
              Json.Int (List.length q.Rapida_sparql.Analytical.subqueries) );
            ( "plan",
              Json.String (Rapida_core.Rapid_analytics.plan_description q) );
            ( "predicted_cycles",
              Json.Obj
                (List.map
                   (fun kind ->
                     ( Engine.kind_name kind,
                       Json.Int (Rapida_core.Plan_summary.predict kind q) ))
                   Engine.all_kinds) );
          ]
          @ (if lint then
               [ ("lint", Json.List (List.map Diagnostic.to_json lint_ds)) ]
             else [])
          @ (match optimized with
            | None -> []
            | Some (d, first, replan, shape_fp, catalog_fp) ->
              [
                ( "optimize",
                  with_fields (Planner.decision_to_json d)
                    [
                      ( "cache",
                        Json.Obj
                          [
                            ("first", Json.String (hit_name first));
                            ("replan", Json.String (hit_name replan));
                            ( "shape_fp",
                              Json.String (Planner.fingerprint_hex shape_fp) );
                            ( "catalog_fp",
                              Json.String (Planner.fingerprint_hex catalog_fp)
                            );
                          ] );
                    ] );
              ])
          @
          match analysis with
          | Some a -> [ ("analyze", Card_analysis.to_json a) ]
          | None -> []
        in
        print_endline (Json.to_string (Json.Obj fields))
      end
      else begin
        Fmt.pr "%a@." Rapida_sparql.Analytical.pp q;
        (match q.Rapida_sparql.Analytical.subqueries with
        | a :: b :: _ ->
          let report = Rapida_core.Overlap.check a b in
          Fmt.pr "@.%a@." Rapida_core.Overlap.pp_report report
        | _ -> ());
        Fmt.pr "@.%s@." (Rapida_core.Rapid_analytics.plan_description q);
        Fmt.pr "@.predicted MapReduce workflow lengths:@.%s@."
          (Rapida_core.Plan_summary.describe q);
        (match optimized with
        | Some (d, first, replan, shape_fp, catalog_fp) ->
          Fmt.pr "@.cost-based plan:@.%a" Planner.pp_decision d;
          Fmt.pr "plan cache: first plan %s, replan %s (shape %s, catalog %s)@."
            (hit_name first) (hit_name replan)
            (Planner.fingerprint_hex shape_fp)
            (Planner.fingerprint_hex catalog_fp)
        | None -> ());
        (match analysis with
        | Some a ->
          Fmt.pr "@.static cost analysis:@.%a@." Card_analysis.pp_plan a;
          List.iter
            (fun d -> Fmt.pr "%a@." Diagnostic.pp d)
            a.Card_analysis.diagnostics
        | None -> ());
        if lint then begin
          Fmt.pr "@.static analysis:@.";
          if lint_ds = [] then Fmt.pr "  clean@."
          else List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) lint_ds
        end
      end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show overlap analysis and the composite rewriting for a query")
    Term.(const run $ query_file $ catalog_id $ json $ lint $ analyze
          $ optimize_arg $ opt_policy_arg $ data $ stats_file)

(* --- catalog ------------------------------------------------------------ *)

let catalog_cmd =
  let id =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"ID" ~doc:"Query id to print in full.")
  in
  let run = function
    | Some id -> (
      match Catalog.find id with
      | Some e ->
        Fmt.pr "-- %s (%s): %s@.%s@." e.Catalog.id
          (Catalog.dataset_name e.Catalog.dataset)
          e.Catalog.description e.Catalog.sparql
      | None -> die_usage ("unknown catalog query " ^ id))
    | None ->
      Fmt.pr "%-5s %-13s %s@." "Id" "Dataset" "Description";
      List.iter
        (fun e ->
          Fmt.pr "%-5s %-13s %s@." e.Catalog.id
            (Catalog.dataset_name e.Catalog.dataset)
            e.Catalog.description)
        Catalog.all
  in
  Cmd.v
    (Cmd.info "catalog" ~doc:"List the paper's query workload")
    Term.(const run $ id)

(* --- stats -------------------------------------------------------------- *)

let stats_cmd =
  let data =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Dataset file (N-Triples).")
  in
  let run data =
    let graph = or_usage (load_graph data) in
    let tg = Rapida_ntga.Tg_store.of_graph graph in
    let vp = Rapida_relational.Vp_store.of_graph graph in
    let parts, bytes = Rapida_relational.Vp_store.stats vp in
    Fmt.pr "triples: %d (%d bytes)@." (Graph.size graph)
      (Graph.size_bytes graph);
    Fmt.pr "subjects: %d, properties: %d@."
      (List.length (Graph.subjects graph))
      (List.length (Graph.properties graph));
    Fmt.pr "%a@." Rapida_ntga.Tg_store.pp tg;
    Fmt.pr "vp-store: %d partitions, %d bytes@." parts bytes
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print dataset statistics")
    Term.(const run $ data)

(* --- fuzz --------------------------------------------------------------- *)

let fuzz_cmd =
  let module Fuzz = Rapida_fuzz.Fuzz in
  let module Oracle = Rapida_fuzz.Oracle in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Run seed. The same seed and budget generate the same \
                   cases and reach the same verdicts.")
  in
  let budget =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"N" ~doc:"Number of generated cases.")
  in
  let time_budget =
    Arg.(value & opt (some float) None
         & info [ "time-budget" ] ~docv:"SECONDS"
             ~doc:"Stop generating new cases after this much wall-clock \
                   time (corpus replay always completes).")
  in
  let corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Corpus directory: its .rq entries are replayed through \
                   every oracle before generation, and new shrunk \
                   reproducers are saved into it.")
  in
  let oracles =
    Arg.(value & opt (some string) None
         & info [ "oracles" ] ~docv:"LIST"
             ~doc:"Comma-separated oracle families to run: differential, \
                   metamorphic, analyzer, robustness. Default: all.")
  in
  let data =
    data_arg
      ~doc:"Fuzz against this dataset (N-Triples) instead of the built-in \
            BSBM graph."
  in
  let products =
    Arg.(value & opt int 30
         & info [ "products" ] ~docv:"N"
             ~doc:"Scale of the built-in BSBM dataset (ignored with \
                   --data).")
  in
  let adversarial =
    Arg.(value & opt float 0.2
         & info [ "adversarial" ] ~docv:"FRACTION"
             ~doc:"Fraction of cases generated in adversarial mode \
                   (predicates, classes, and thresholds the data misses).")
  in
  let knobs =
    Arg.(value & opt int 2
         & info [ "knobs" ] ~docv:"N"
             ~doc:"Knob configurations (faults x memory x checkpoint x \
                   planner x optimizer policy) per metamorphic check.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the machine-readable report (timings, cases/sec) \
                   instead of the text summary.")
  in
  let run seed budget time_budget corpus oracles data products adversarial
      knobs json verbose =
    setup_logs verbose;
    let oracles =
      match oracles with
      | None -> Oracle.all
      | Some spec ->
        String.split_on_char ',' spec
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map (fun s ->
               match Oracle.name_of_string (String.trim s) with
               | Some o -> o
               | None -> die_usage ("unknown oracle " ^ String.trim s))
    in
    require (oracles <> []) "no oracles selected";
    require (budget >= 0) "--budget must be non-negative";
    require (products > 0) "--products must be positive";
    require (adversarial >= 0.0 && adversarial <= 1.0)
      "--adversarial must be in [0, 1]";
    require (knobs >= 0) "--knobs must be non-negative";
    let graph = Option.map (fun path -> or_usage (load_graph path)) data in
    let report =
      Fuzz.run
        {
          Fuzz.default_config with
          seed;
          budget;
          time_budget_s = time_budget;
          oracles;
          corpus_dir = corpus;
          products;
          adversarial;
          knob_count = knobs;
          graph;
        }
    in
    if json then print_endline (Json.to_string (Fuzz.to_json report))
    else Fmt.pr "%a" Fuzz.pp report;
    if Fuzz.violations report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: generated analytical queries through \
             the cross-engine, metamorphic, analyzer-soundness, and \
             robustness oracles"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 when every oracle check passed (or was skipped); 1 when \
               any oracle reported a violation; 2 on usage errors.";
         ])
    Term.(const run $ seed $ budget $ time_budget $ corpus $ oracles $ data
          $ products $ adversarial $ knobs $ json $ verbose_arg)

let () =
  let doc = "RAPIDAnalytics: optimization of complex SPARQL analytical queries" in
  let info = Cmd.info "rapida" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; query_cmd; serve_cmd; lint_cmd; analyze_cmd; explain_cmd;
            catalog_cmd; stats_cmd; fuzz_cmd;
          ]))
