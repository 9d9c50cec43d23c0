(* Experiment harness: runs collect verified per-engine statistics and the
   reports render the paper-style tables. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Experiment = Rapida_harness.Experiment
module Report = Rapida_harness.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let input =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:80 ())))

let options = Plan_util.default_options

let run_mg1 =
  lazy
    (Experiment.run_query options ~label:"test" (Lazy.force input)
       (Catalog.find_exn "MG1"))

(* A completed run's output: its table and its workflow's stats. *)
let output_of (r : Experiment.engine_run) =
  match r.output with
  | Ok out -> out
  | Error msg -> Alcotest.failf "%s failed: %s" (Engine.kind_name r.engine) msg

let test_run_collects_all_engines () =
  let run = Lazy.force run_mg1 in
  check_int "four engine results" 4 (List.length run.Experiment.results);
  check_bool "all agreed" true (Experiment.all_agreed run);
  List.iter
    (fun (r : Experiment.engine_run) ->
      let module Trace = Rapida_mapred.Trace in
      let module Stats = Rapida_mapred.Stats in
      let { Engine.table; stats; _ } = output_of r in
      let est_time_s = Stats.est_time_s stats in
      check_bool "cycles positive" true (Stats.cycles stats > 0);
      check_bool "est time positive" true (est_time_s > 0.0);
      check_bool "rows" true (Rapida_relational.Table.cardinality table > 0);
      check_bool "one job span per cycle" true
        (List.length
           (Trace.spans_with_cat (Rapida_mapred.Exec_ctx.trace r.ctx) "job")
        = Stats.cycles stats);
      check_bool "phase breakdown covers the estimate" true
        (Float.abs
           (Stats.breakdown_total_s (Stats.total_breakdown stats) -. est_time_s)
        < 1e-6 *. Float.max 1.0 est_time_s))
    run.Experiment.results

let test_result_for () =
  let run = Lazy.force run_mg1 in
  check_bool "find rapid-analytics" true
    (Experiment.result_for run Engine.Rapid_analytics <> None);
  let cycles kind =
    Rapida_mapred.Stats.cycles
      (output_of (Option.get (Experiment.result_for run kind))).stats
  in
  check_bool "RA uses fewer cycles than naive Hive" true
    (cycles Engine.Rapid_analytics < cycles Engine.Hive_naive)

let test_speedup () =
  let run = Lazy.force run_mg1 in
  match
    Report.speedup run ~baseline:Engine.Hive_naive
      ~target:Engine.Rapid_analytics
  with
  | Some s -> check_bool "speedup > 1" true (s > 1.0)
  | None -> Alcotest.fail "expected a speedup"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* Non-overlapping occurrences of a non-empty [needle] in [hay]. *)
let count ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i n =
    if i + nl > hl then n
    else if String.sub hay i nl = needle then go (i + nl) (n + 1)
    else go (i + 1) n
  in
  go 0 0

let test_reports_render () =
  let runs = [ Lazy.force run_mg1 ] in
  let comparison =
    Fmt.str "%a" (Report.pp_comparison ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "mentions query" true (contains ~needle:"MG1" comparison);
  check_bool "mentions engine" true (contains ~needle:"RAPIDAnalytics" comparison);
  let cycles =
    Fmt.str "%a" (Report.pp_cycles ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "cycles table renders" true (contains ~needle:"map-only" cycles);
  let bytes =
    Fmt.str "%a" (Report.pp_bytes ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "bytes table renders" true (contains ~needle:"KB" bytes);
  let phases =
    Fmt.str "%a" (Report.pp_phases ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "phase table renders" true
    (contains ~needle:"startup/map/shuffle+sort/reduce" phases);
  let verification = Fmt.str "%a" Report.pp_verification runs in
  check_bool "verification summary" true (contains ~needle:"1/1" verification)

let test_engine_subset () =
  let run =
    Experiment.run_query ~engines:[ Engine.Rapid_analytics ] options
      ~label:"test" (Lazy.force input) (Catalog.find_exn "G1")
  in
  check_int "one engine" 1 (List.length run.Experiment.results)

(* A run that aborts: with one attempt per task and no resubmission, a
   2% crash rate at seed 1 loses Hive(Naive)'s workflow on MG1 while
   RAPID+ completes. The aborted engine's cell reads [error], the
   verification summary names it with the abort's reason, and its trace
   still holds the lost submission's span (what [--trace DIR] writes). *)
let test_failed_run () =
  let faults =
    {
      Rapida_mapred.Fault_injector.default with
      seed = 1;
      task_fail_p = 0.02;
      max_attempts = 1;
      job_retries = 0;
    }
  in
  let run =
    Experiment.run_query
      ~engines:[ Engine.Hive_naive; Engine.Rapid_plus ]
      (Plan_util.make ~base:options ~faults ())
      ~label:"test" (Lazy.force input) (Catalog.find_exn "MG1")
  in
  let engines = [ Engine.Hive_naive; Engine.Rapid_plus ] in
  let comparison =
    Fmt.str "%a" (Report.pp_comparison ~title:"T" ~engines) [ run ]
  in
  check_bool "aborted cell renders error" true
    (contains ~needle:"         error" comparison);
  let verification = Fmt.str "%a" Report.pp_verification [ run ] in
  check_bool "verification names the abort" true
    (contains ~needle:"MISMATCH hive-naive on MG1: workflow aborted"
       verification);
  check_bool "completed engine is not named" false
    (contains ~needle:"MISMATCH rapid-plus" verification);
  let naive = Option.get (Experiment.result_for run Engine.Hive_naive) in
  check_bool "lost submission traced" true
    (Rapida_mapred.(Trace.spans_with_cat (Exec_ctx.trace naive.ctx) "abort")
    <> [])

(* One-knob sweeps: BSBM MG1 under no faults, a 10% crash/straggler
   rate, and a 4 KiB heap, on all four engines. *)
let rate r o =
  Plan_util.make ~base:o
    ~faults:
      {
        Rapida_mapred.Fault_injector.default with
        seed = 7;
        task_fail_p = r;
        straggler_p = r;
        job_retries = 2;
      }
    ()

let heap bytes o =
  let module Memory = Rapida_mapred.Memory in
  let mem =
    {
      Memory.default with
      task_heap_bytes = bytes;
      sort_buffer_bytes = bytes / 4;
    }
  in
  Plan_util.make ~base:o
    ~cluster:(Rapida_mapred.Cluster.with_memory o.Plan_util.cluster mem)
    ()

let test_knob_sweep () =
  let sweep =
    Experiment.knob_sweep ~title:"T"
      ~settings:
        [ ("rate 0", rate 0.0); ("rate 0.1", rate 0.1); ("4K", heap 4096) ]
      options (Lazy.force input) (Catalog.find_exn "MG1")
  in
  check_int "settings x engines" 12 (List.length sweep.Experiment.k_runs);
  List.iter
    (fun (r : Experiment.engine_run) ->
      if r.setting = "rate 0" then
        check_bool "first setting agrees" true r.agreed;
      match r.output with
      | Error _ ->
        check_bool "only faulty runs may abort" true (r.setting = "rate 0.1")
      | Ok { Engine.stats; _ } ->
        check_bool "completed run agrees" true r.agreed;
        if r.setting = "4K" then
          check_bool "4K spills" true
            (Rapida_mapred.Stats.total_spill_passes stats > 0))
    sweep.Experiment.k_runs;
  let text =
    Fmt.str "%a" (Report.pp_knob_sweep ~engines:Engine.all_kinds) sweep
  in
  let first_row =
    List.find
      (fun l -> String.starts_with ~prefix:"rate 0 " l)
      (String.split_on_char '\n' text)
  in
  check_int "one slowdown cell per engine" 4
    (List.length (String.split_on_char '(' first_row) - 1);
  check_int "first setting slowdown is 1.00x on every engine" 4
    (count ~needle:"(1.00x)" first_row);
  check_bool "first setting row has no diverged cell" false
    (contains ~needle:"*" first_row)

let test_knob_sweep_no_settings () =
  Alcotest.check_raises "empty settings"
    (Invalid_argument "knob_sweep: no settings") (fun () ->
      ignore
        (Experiment.knob_sweep ~title:"T" ~settings:[] options
           (Lazy.force input) (Catalog.find_exn "MG1")))

let suite =
  [
    Alcotest.test_case "run collects all engines" `Quick test_run_collects_all_engines;
    Alcotest.test_case "result_for and cycle ordering" `Quick test_result_for;
    Alcotest.test_case "speedup" `Quick test_speedup;
    Alcotest.test_case "reports render" `Quick test_reports_render;
    Alcotest.test_case "engine subset" `Quick test_engine_subset;
    Alcotest.test_case "failed engine run" `Quick test_failed_run;
    Alcotest.test_case "knob sweep" `Quick test_knob_sweep;
    Alcotest.test_case "knob sweep needs settings" `Quick
      test_knob_sweep_no_settings;
  ]
