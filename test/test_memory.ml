(* Memory-bounded execution: spec parsing, external-sort pass math, the
   OOM escalation ladder, spill pricing, and the end-to-end invariant
   that memory budgets shape simulated time but never results. *)

module Cluster = Rapida_mapred.Cluster
module Exec_ctx = Rapida_mapred.Exec_ctx
module Job = Rapida_mapred.Job
module Memory = Rapida_mapred.Memory
module Stats = Rapida_mapred.Stats
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Bridge to the session API, keeping the old string-error shape these
   tests match on. *)
let run_engine kind ctx input q =
  Result.map_error Engine.error_message
    (Engine.execute (Engine.prepare kind input) ctx q)

(* --- spec parsing ------------------------------------------------------- *)

let test_parse_spec () =
  (match Memory.parse_spec "heap=64m,sort-buffer=512k,spill-threshold=0.5" with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
    check_int "heap" (64 * 1024 * 1024) cfg.Memory.task_heap_bytes;
    check_int "sort-buffer" (512 * 1024) cfg.Memory.sort_buffer_bytes;
    Alcotest.(check (float 0.0)) "spill-threshold" 0.5
      cfg.Memory.spill_threshold);
  (* Blank-padded pairs, keys and values; size suffixes in either case. *)
  match
    Memory.parse_spec "heap = 64M , sort-buffer=2K, spill-threshold= 0.5"
  with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
    check_int "padded heap, upper M" (64 * 1024 * 1024)
      cfg.Memory.task_heap_bytes;
    check_int "upper K" (2 * 1024) cfg.Memory.sort_buffer_bytes;
    Alcotest.(check (float 0.0)) "padded threshold" 0.5
      cfg.Memory.spill_threshold

let test_parse_spec_defaults () =
  (* Unspecified keys keep their defaults; suffixes are optional. *)
  match Memory.parse_spec "heap=4096" with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
    check_int "heap in plain bytes" 4096 cfg.Memory.task_heap_bytes;
    check_int "sort-buffer untouched" Memory.default.Memory.sort_buffer_bytes
      cfg.Memory.sort_buffer_bytes;
    Alcotest.(check (float 0.0)) "threshold untouched"
      Memory.default.Memory.spill_threshold cfg.Memory.spill_threshold

let test_parse_spec_errors () =
  (* Format errors carry the flag's prefix; range errors come from
     [Memory.create]. *)
  let expect_error (spec, prefix) =
    match Memory.parse_spec spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error msg ->
      check_bool
        (Printf.sprintf "%S: %S starts with %S" spec msg prefix)
        true
        (String.starts_with ~prefix msg && not (String.contains msg '\n'))
  in
  let size = "expects a size (bytes, or with a k/m/g suffix)" in
  List.iter expect_error
    [
      ("heap=banana", "--mem: heap " ^ size ^ ", got \"banana\"");
      ("heap", "--mem: expected key=value");
      ("bogus=1", "--mem: unknown key \"bogus\"");
      ("heap=-4k", "--mem: heap " ^ size);
      ("heap=", "--mem: heap " ^ size);
      ("sort-buffer=1t", "--mem: sort-buffer " ^ size);
      ("sort-buffer = 1 T", "--mem: sort-buffer " ^ size ^ ", got \"1 T\"");
      ("spill-threshold=lots", "--mem: spill-threshold expects a number");
      ("heap=0", "Memory.create:");
      ("spill-threshold=0", "Memory.create:");
      ("spill-threshold=1.5", "Memory.create:");
    ]

(* Unreachable through the tables: every size [Spec.pp_bytes] prints
   reads back through [Spec.bytes] as the same count. *)
let test_spec_bytes_round_trip () =
  let module Spec = Rapida_mapred.Spec in
  let read =
    Spec.parse ~flag:"--size" ~check:Fun.id
      [ ("n", Spec.bytes (fun _ n -> n)) ]
      0
  in
  List.iter
    (fun b ->
      let printed = Fmt.str "%a" Spec.pp_bytes b in
      match read ("n=" ^ printed) with
      | Ok n -> check_int printed b n
      | Error msg -> Alcotest.fail msg)
    [ 0; 1; 1000; 1024; 1536; 64 * 1024 * 1024; 3 * 1024 * 1024 * 1024 ]

(* --- external-sort pass math -------------------------------------------- *)

let test_spill_passes_edges () =
  (* Buffer larger than the input: everything sorts in memory. *)
  check_int "fits with room" 0
    (Memory.spill_passes ~budget_bytes:1024 ~data_bytes:100);
  (* Input exactly at the threshold still fits — the boundary is
     inclusive, matching [spill_budget]'s "usable bytes" reading. *)
  check_int "exactly at budget" 0
    (Memory.spill_passes ~budget_bytes:1024 ~data_bytes:1024);
  check_int "one byte over spills" 1
    (Memory.spill_passes ~budget_bytes:1024 ~data_bytes:1025);
  (* A buffer of one record degenerates to one run per byte: 1000 runs
     need two 10-way merge passes (1000 -> 100 -> 10 merged runs would be
     three full reductions to one, but the final merge feeds the consumer
     directly, so ceil(log10 1000) = 3 priced passes). *)
  check_int "one-record buffer" 3
    (Memory.spill_passes ~budget_bytes:1 ~data_bytes:1000);
  (* Empty data never spills, whatever the budget. *)
  check_int "empty data" 0 (Memory.spill_passes ~budget_bytes:1 ~data_bytes:0)

let test_spill_passes_monotone () =
  let data = 100_000 in
  let budgets = [ 1; 7; 64; 1000; 9_999; 50_000; 100_000; 200_000 ] in
  let passes = List.map (fun b -> Memory.spill_passes ~budget_bytes:b ~data_bytes:data) budgets in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check_bool "more budget, never more passes" true (non_increasing passes);
  check_int "unbounded end of the sweep" 0 (List.nth passes 7)

let test_oom_attempts () =
  (* The ladder burns OOM attempts but always leaves the last attempt for
     the degraded (combiner-off) rerun, and never more than two. *)
  check_int "single attempt goes straight to degraded" 0
    (Memory.oom_attempts ~max_attempts:1);
  check_int "two attempts: one OOM" 1 (Memory.oom_attempts ~max_attempts:2);
  check_int "three attempts: two OOMs" 2 (Memory.oom_attempts ~max_attempts:3);
  check_int "capped at two" 2 (Memory.oom_attempts ~max_attempts:100)

(* --- job-level pricing --------------------------------------------------- *)

let wordcount ~with_combiner : (string, string, int, string * int) Job.spec =
  {
    name = "wordcount";
    map = (fun line -> List.map (fun w -> (w, 1)) (String.split_on_char ' ' line));
    combine =
      (if with_combiner then
         Some (fun _k counts -> [ List.fold_left ( + ) 0 counts ])
       else None);
    reduce = (fun k counts -> [ (k, List.fold_left ( + ) 0 counts) ]);
    input_size = String.length;
    key_size = String.length;
    value_size = (fun _ -> 4);
    output_size = (fun (k, _) -> String.length k + 4);
  }

let lines = List.init 80 (fun i -> Printf.sprintf "alpha beta gamma %d" i)

let ctx ?(cluster = Cluster.default) () = Exec_ctx.create ~cluster ()

let bounded heap =
  Cluster.with_memory Cluster.default
    {
      Memory.task_heap_bytes = heap;
      sort_buffer_bytes = max 1 (heap / 4);
      spill_threshold = 0.8;
    }

let test_default_budget_exact () =
  (* The default cluster's generous budget prices nothing: stats carry
     zero spill work and the explicit default config is bit-identical. *)
  let _, s = Job.run (ctx ()) (wordcount ~with_combiner:true) lines in
  check_int "no spilled bytes" 0 s.Stats.spilled_bytes;
  check_int "no spill passes" 0 s.Stats.spill_passes;
  check_int "no OOM kills" 0 s.Stats.oom_kills;
  Alcotest.(check (float 0.0)) "no spill time" 0.0 s.Stats.breakdown.Stats.spill_s;
  let explicit = Cluster.with_memory Cluster.default Memory.default in
  let _, s' = Job.run (ctx ~cluster:explicit ()) (wordcount ~with_combiner:true) lines in
  check_bool "est_time_s bit-identical" true
    (s.Stats.est_time_s = s'.Stats.est_time_s);
  check_bool "breakdown bit-identical" true (s.Stats.breakdown = s'.Stats.breakdown)

let test_spill_pricing () =
  (* A sort buffer much smaller than the shuffle forces external-sort
     passes on both sides; results are untouched, time grows. *)
  let spec = wordcount ~with_combiner:false in
  let out_u, s_u = Job.run (ctx ()) spec lines in
  let out_b, s_b = Job.run (ctx ~cluster:(bounded 4096) ()) spec lines in
  Alcotest.(check (list (pair string int)))
    "spilling never changes results"
    (List.sort compare out_u) (List.sort compare out_b);
  check_bool "bytes spilled" true (s_b.Stats.spilled_bytes > 0);
  check_bool "passes counted" true (s_b.Stats.spill_passes > 0);
  check_bool "spill time in the breakdown" true
    (s_b.Stats.breakdown.Stats.spill_s > 0.0);
  check_bool "spilling costs time" true
    (s_b.Stats.est_time_s > s_u.Stats.est_time_s)

let test_oom_degraded_rerun () =
  (* A combiner whose pre-combine working set exceeds a tiny heap is
     OOM-killed, retried, and completes degraded — combiner off, bigger
     shuffle — with byte-identical results. *)
  let spec = wordcount ~with_combiner:true in
  let out_u, s_u = Job.run (ctx ()) spec lines in
  let out_b, s_b = Job.run (ctx ~cluster:(bounded 64) ()) spec lines in
  Alcotest.(check (list (pair string int)))
    "degraded rerun still answers correctly"
    (List.sort compare out_u) (List.sort compare out_b);
  check_bool "OOM kills recorded" true (s_b.Stats.oom_kills > 0);
  check_bool "combiner disabled: shuffle grows" true
    (s_b.Stats.shuffle_records > s_u.Stats.shuffle_records);
  check_bool "wasted attempts cost time" true
    (s_b.Stats.est_time_s > s_u.Stats.est_time_s)

let test_oom_respects_attempt_budget () =
  (* With max_attempts = 1 the ladder skips straight to the degraded
     rerun: no kills are priced, but the combiner still comes off. *)
  let module Fi = Rapida_mapred.Fault_injector in
  let faults = Fi.create { Fi.default with Fi.max_attempts = 1 } in
  let c = Exec_ctx.create ~cluster:(bounded 64) ~faults () in
  let out, s = Job.run c (wordcount ~with_combiner:true) lines in
  let out_u, s_u = Job.run (ctx ()) (wordcount ~with_combiner:true) lines in
  Alcotest.(check (list (pair string int)))
    "still completes" (List.sort compare out_u) (List.sort compare out);
  check_int "no attempts to burn" 0 s.Stats.oom_kills;
  check_bool "combiner still disabled" true
    (s.Stats.shuffle_records > s_u.Stats.shuffle_records)

(* --- planner degradation ------------------------------------------------- *)

let bsbm_input =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~seed:11 ~products:30 ())))

let test_mapjoin_fallback () =
  (* The relational planner broadcasts small build sides by default; a
     heap smaller than any build side forces every one back to a
     repartition join. Results survive the downgrade. *)
  let input = Lazy.force bsbm_input in
  let entry = Catalog.find_exn "MG1" in
  let q = Catalog.parse entry in
  let run heap =
    let options =
      Plan_util.make ~cluster:(bounded heap) ~map_join_threshold:(1024 * 1024) ()
    in
    let ctx = Plan_util.context options in
    match run_engine Engine.Hive_naive ctx input q with
    | Error msg -> Alcotest.fail msg
    | Ok out ->
      (out.Engine.table, out.Engine.stats.Stats.mapjoin_fallbacks)
  in
  let table_u, fb_u = run Memory.default.Memory.task_heap_bytes in
  let table_b, fb_b = run 512 in
  check_int "generous heap: no fallbacks" 0 fb_u;
  check_bool "tiny heap: map-joins degrade" true (fb_b > 0);
  check_bool "fallback preserves results" true
    (Relops.same_results table_u table_b)

(* --- end-to-end property ------------------------------------------------- *)

(* 20 seeds x 4 engines x randomized descending heap budgets: every run
   returns byte-identical results to its unbounded baseline, and
   simulated time never decreases as the budget shrinks. *)
let test_engines_transparent_and_monotone () =
  let input = Lazy.force bsbm_input in
  let entries = [ Catalog.find_exn "G1"; Catalog.find_exn "MG1" ] in
  List.iter
    (fun entry ->
      let q = Catalog.parse entry in
      let baselines =
        List.map
          (fun kind ->
            let ctx = Plan_util.context (Plan_util.make ()) in
            match run_engine kind ctx input q with
            | Ok out -> (kind, out.Engine.table, Stats.est_time_s out.Engine.stats)
            | Error msg -> Alcotest.failf "unbounded %s: %s" entry.Catalog.id msg)
          Engine.all_kinds
      in
      for seed = 1 to 20 do
        let rng = Random.State.make [| seed; 0xbeef |] in
        (* Three random heaps spanning plenty-to-starved, descending. *)
        let heaps =
          List.sort (fun a b -> compare b a)
            [
              1 lsl (10 + Random.State.int rng 10);
              1 lsl (6 + Random.State.int rng 8);
              64 + Random.State.int rng 1024;
            ]
        in
        List.iter
          (fun (kind, base_table, base_s) ->
            let prev = ref base_s in
            List.iter
              (fun heap ->
                let ctx =
                  Plan_util.context (Plan_util.make ~cluster:(bounded heap) ())
                in
                match run_engine kind ctx input q with
                | Error msg ->
                  Alcotest.failf "%s seed %d heap %d %s: %s" entry.Catalog.id
                    seed heap (Engine.kind_name kind) msg
                | Ok out ->
                  if not (Relops.same_results base_table out.Engine.table) then
                    Alcotest.failf
                      "%s seed %d heap %d %s: result diverged under memory bound"
                      entry.Catalog.id seed heap (Engine.kind_name kind);
                  let t = Stats.est_time_s out.Engine.stats in
                  if t +. 1e-9 < !prev then
                    Alcotest.failf
                      "%s seed %d heap %d %s: shrinking the heap sped things \
                       up (%.6f < %.6f)"
                      entry.Catalog.id seed heap (Engine.kind_name kind) t !prev;
                  prev := t)
              heaps)
          baselines
      done)
    entries

let suite =
  [
    Alcotest.test_case "parse spec" `Quick test_parse_spec;
    Alcotest.test_case "parse spec defaults" `Quick test_parse_spec_defaults;
    Alcotest.test_case "parse spec errors" `Quick test_parse_spec_errors;
    Alcotest.test_case "spec sizes round-trip" `Quick
      test_spec_bytes_round_trip;
    Alcotest.test_case "spill pass edges" `Quick test_spill_passes_edges;
    Alcotest.test_case "spill passes monotone in budget" `Quick
      test_spill_passes_monotone;
    Alcotest.test_case "OOM attempt ladder" `Quick test_oom_attempts;
    Alcotest.test_case "default budget is exact" `Quick test_default_budget_exact;
    Alcotest.test_case "spill pricing" `Quick test_spill_pricing;
    Alcotest.test_case "OOM degraded rerun" `Quick test_oom_degraded_rerun;
    Alcotest.test_case "OOM respects attempt budget" `Quick
      test_oom_respects_attempt_budget;
    Alcotest.test_case "map-join falls back under pressure" `Quick
      test_mapjoin_fallback;
    Alcotest.test_case "engines transparent and monotone" `Slow
      test_engines_transparent_and_monotone;
  ]
