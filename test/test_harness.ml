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

let test_run_collects_all_engines () =
  let run = Lazy.force run_mg1 in
  check_int "four engine results" 4 (List.length run.Experiment.results);
  check_bool "all agreed" true (Experiment.all_agreed run);
  List.iter
    (fun (r : Experiment.engine_result) ->
      check_bool "cycles positive" true (r.cycles > 0);
      check_bool "est time positive" true (r.est_time_s > 0.0);
      check_bool "no error" true (r.error = None);
      check_bool "rows" true (r.result_rows > 0);
      let module Trace = Rapida_mapred.Trace in
      let module Stats = Rapida_mapred.Stats in
      check_bool "one job span per cycle" true
        (List.length (Trace.spans_with_cat r.trace "job") = r.cycles);
      check_bool "phase breakdown covers the estimate" true
        (Float.abs (Stats.breakdown_total_s r.phases -. r.est_time_s)
        < 1e-6 *. Float.max 1.0 r.est_time_s))
    run.Experiment.results

let test_result_for () =
  let run = Lazy.force run_mg1 in
  check_bool "find rapid-analytics" true
    (Experiment.result_for run Engine.Rapid_analytics <> None);
  let ra = Option.get (Experiment.result_for run Engine.Rapid_analytics) in
  let naive = Option.get (Experiment.result_for run Engine.Hive_naive) in
  check_bool "RA uses fewer cycles than naive Hive" true
    (ra.Experiment.cycles < naive.Experiment.cycles)

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
  check_int "settings x engines" 12 (List.length sweep.Experiment.k_points);
  List.iter
    (fun (p : Experiment.knob_point) ->
      if p.k_setting = "rate 0" then begin
        check_bool "first setting slowdown is 1" true (p.k_slowdown = 1.0);
        check_bool "first setting transparent" true p.k_transparent
      end;
      match p.k_result with
      | Error _ ->
        check_bool "only faulty runs may abort" true (p.k_setting = "rate 0.1")
      | Ok { Engine.stats; _ } ->
        check_bool "completed point transparent" true p.k_transparent;
        if p.k_setting = "4K" then
          check_bool "4K spills" true
            (Rapida_mapred.Stats.total_spill_passes stats > 0))
    sweep.Experiment.k_points;
  let text =
    Fmt.str "%a" (Report.pp_knob_sweep ~engines:Engine.all_kinds) sweep
  in
  check_bool "report renders" true (contains ~needle:"(1.00x)" text)

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
    Alcotest.test_case "knob sweep" `Quick test_knob_sweep;
    Alcotest.test_case "knob sweep needs settings" `Quick
      test_knob_sweep_no_settings;
  ]
