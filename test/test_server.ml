(* Query server and its supporting layers: the slot scheduler, workload
   specs, cross-query grouping, the prepared-session engine API with
   typed errors, and the server's sharing-transparency invariant —
   every server-path result byte-identical to its solo run, across
   seeds, engines, admission windows, and scheduler policies. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Batch_exec = Rapida_core.Batch_exec
module Catalog = Rapida_queries.Catalog
module Server = Rapida_server.Server
module Workload = Rapida_server.Workload
module Scheduler = Rapida_mapred.Scheduler
module Stats = Rapida_mapred.Stats
module Cluster = Rapida_mapred.Cluster
module Fi = Rapida_mapred.Fault_injector
module Experiment = Rapida_harness.Experiment
module Memory = Rapida_mapred.Memory
module Checkpoint = Rapida_mapred.Checkpoint
module Json = Rapida_mapred.Json
module Relops = Rapida_relational.Relops
module Table = Rapida_relational.Table
module To_sparql = Rapida_sparql.To_sparql
module Stats_catalog = Rapida_analysis.Stats_catalog
module Planner = Rapida_planner.Planner

let feq = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- scheduler ----------------------------------------------------------- *)

let job ?(maps = 4) ?(reds = 2) ~t name =
  {
    Stats.name;
    kind = Stats.Map_reduce;
    input_records = 0;
    input_bytes = 0;
    shuffle_records = 0;
    shuffle_bytes = 0;
    output_records = 0;
    output_bytes = 0;
    map_tasks = maps;
    reduce_tasks = reds;
    est_time_s = t;
    breakdown = Stats.breakdown_zero;
    combine_input_records = 0;
    combine_output_records = 0;
    reduce_groups = 0;
    attempts_failed = 0;
    speculative_launched = 0;
    attempts_killed = 0;
    spilled_bytes = 0;
    spill_passes = 0;
    oom_kills = 0;
    skipped_records = 0;
  }

let cluster = Cluster.default (* 20 map slots *)

let placement_exn t id =
  match Scheduler.placement t id with
  | Some p -> p
  | None -> Alcotest.failf "no placement for item %d" id

let test_job_slots () =
  check_int "phases are sequential: peak side wins" 7
    (Stats.job_slots (job ~maps:3 ~reds:7 ~t:1.0 "j"));
  check_int "startup-only jobs still hold a slot" 1
    (Stats.job_slots (job ~maps:0 ~reds:0 ~t:1.0 "j"));
  feq "slot-seconds sum demand x time" 23.0
    (Stats.slot_seconds
       {
         Stats.empty with
         Stats.jobs =
           [ job ~maps:2 ~reds:1 ~t:4.0 "a"; job ~maps:5 ~reds:3 ~t:3.0 "b" ];
       })

let test_sched_uncontended () =
  List.iter
    (fun policy ->
      let t =
        Scheduler.simulate cluster policy
          [
            {
              Scheduler.it_id = 0;
              it_submit_s = 1.0;
              it_jobs = [ job ~maps:20 ~t:10.0 "a"; job ~maps:20 ~t:5.0 "b" ];
            };
          ]
      in
      let p = placement_exn t 0 in
      feq "alone on the cluster: no queueing" 0.0 p.Scheduler.p_queue_s;
      feq "finish = submit + dedicated time" 16.0 p.Scheduler.p_finish_s;
      feq "full-width jobs saturate the pool" 1.0 t.Scheduler.utilization)
    [ Scheduler.Fifo; Scheduler.Fair ]

let test_sched_fifo_head_of_line () =
  let item id = {
    Scheduler.it_id = id;
    it_submit_s = 0.0;
    it_jobs = [ job ~maps:20 ~t:10.0 "j" ];
  }
  in
  let t = Scheduler.simulate cluster Scheduler.Fifo [ item 0; item 1 ] in
  feq "head of line runs alone" 10.0 (placement_exn t 0).Scheduler.p_finish_s;
  feq "second waits for the first" 20.0
    (placement_exn t 1).Scheduler.p_finish_s;
  feq "second's wait is all queueing" 10.0
    (placement_exn t 1).Scheduler.p_queue_s;
  feq "makespan covers both" 20.0 t.Scheduler.makespan_s

let test_sched_fair_split () =
  let item id = {
    Scheduler.it_id = id;
    it_submit_s = 0.0;
    it_jobs = [ job ~maps:20 ~t:10.0 "j" ];
  }
  in
  let t = Scheduler.simulate cluster Scheduler.Fair [ item 0; item 1 ] in
  (* Each holds half the pool, so both progress at half rate and finish
     together — twice the dedicated time, same total work. *)
  feq "fair: both finish together" 20.0
    (placement_exn t 0).Scheduler.p_finish_s;
  feq "fair: both finish together (2)" 20.0
    (placement_exn t 1).Scheduler.p_finish_s;
  feq "contention stretches time, not work" 1.0 t.Scheduler.utilization

let test_sched_no_contention_small_demand () =
  List.iter
    (fun policy ->
      let item id = {
        Scheduler.it_id = id;
        it_submit_s = 0.0;
        it_jobs = [ job ~maps:10 ~reds:1 ~t:10.0 "j" ];
      }
      in
      let t = Scheduler.simulate cluster policy [ item 0; item 1 ] in
      feq "both fit the pool: no queueing" 0.0
        (placement_exn t 1).Scheduler.p_queue_s;
      feq "both finish at dedicated time" 10.0
        (placement_exn t 1).Scheduler.p_finish_s)
    [ Scheduler.Fifo; Scheduler.Fair ]

let test_sched_idle_gap () =
  let t =
    Scheduler.simulate cluster Scheduler.Fifo
      [
        {
          Scheduler.it_id = 0;
          it_submit_s = 0.0;
          it_jobs = [ job ~maps:20 ~t:5.0 "a" ];
        };
        {
          Scheduler.it_id = 1;
          it_submit_s = 100.0;
          it_jobs = [ job ~maps:20 ~t:5.0 "b" ];
        };
      ]
  in
  feq "late arrival starts on arrival" 105.0
    (placement_exn t 1).Scheduler.p_finish_s;
  feq "makespan spans the idle gap" 105.0 t.Scheduler.makespan_s;
  check_bool "idle gap lowers utilization" true
    (t.Scheduler.utilization < 0.2)

(* --- workload ------------------------------------------------------------ *)

let test_workload_parse () =
  match
    Workload.of_string "0.0 MG1\n# comment\n\n2.0 MG2 second\n1.0 G1\n"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok wl ->
    check_int "three arrivals" 3 (Workload.size wl);
    Alcotest.(check (list string))
      "sorted by time, labels kept"
      [ "MG1"; "G1"; "second" ]
      (List.map (fun a -> a.Workload.a_label) wl.Workload.arrivals);
    Alcotest.(check (list int))
      "ids are dense in time order" [ 0; 1; 2 ]
      (List.map (fun a -> a.Workload.a_id) wl.Workload.arrivals);
    feq "span is the last arrival" 2.0 (Workload.span_s wl)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_workload_parse_errors () =
  let fails ~containing src =
    match Workload.of_string src with
    | Ok _ -> Alcotest.failf "expected failure on %S" src
    | Error msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg containing)
        true
        (contains ~sub:containing msg)
  in
  fails ~containing:"line 1" "0.0 NOPE99";
  fails ~containing:"bad arrival time" "soon MG1";
  fails ~containing:"bad arrival time" "-1.0 MG1";
  fails ~containing:"empty workload" "# nothing here\n"

let test_workload_query_file () =
  let path = Filename.temp_file "rapida_wl" ".rq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Catalog.find_exn "MG1").Catalog.sparql;
      close_out oc;
      match Workload.of_string (Printf.sprintf "1.5 @%s\n" path) with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok wl ->
        let a = List.hd wl.Workload.arrivals in
        Alcotest.(check string)
          "label is the file name" (Filename.basename path)
          a.Workload.a_label;
        feq "time kept" 1.5 a.Workload.a_time_s)

let test_workload_generate () =
  let wl1 = Workload.generate_exn ~seed:9 ~n:12 ~mean_gap_s:2.0 () in
  let wl2 = Workload.generate_exn ~seed:9 ~n:12 ~mean_gap_s:2.0 () in
  check_int "n arrivals" 12 (Workload.size wl1);
  Alcotest.(check (list (pair string (float 0.0))))
    "deterministic in the seed"
    (List.map
       (fun a -> (a.Workload.a_label, a.Workload.a_time_s))
       wl1.Workload.arrivals)
    (List.map
       (fun a -> (a.Workload.a_label, a.Workload.a_time_s))
       wl2.Workload.arrivals);
  let times = List.map (fun a -> a.Workload.a_time_s) wl1.Workload.arrivals in
  check_bool "times non-decreasing" true
    (List.sort compare times = times);
  feq "stream starts at zero" 0.0 (List.hd times)

let test_workload_generate_errors () =
  let expect name err r =
    match r with
    | Ok _ -> Alcotest.failf "%s: expected a generator error" name
    | Error e ->
      check_bool name true (e = err);
      check_bool (name ^ ": message is not empty") true
        (String.length (Workload.gen_error_message e) > 0)
  in
  expect "empty pool" Workload.Empty_pool
    (Workload.generate ~seed:1 ~n:3 ~mean_gap_s:1.0 ~pool:[] ());
  expect "zero count" (Workload.Bad_count 0)
    (Workload.generate ~seed:1 ~n:0 ~mean_gap_s:1.0 ());
  expect "negative count" (Workload.Bad_count (-4))
    (Workload.generate ~seed:1 ~n:(-4) ~mean_gap_s:1.0 ());
  expect "zero gap" (Workload.Bad_mean_gap 0.0)
    (Workload.generate ~seed:1 ~n:3 ~mean_gap_s:0.0 ());
  (* NaN payloads don't compare equal, so match on the constructor. *)
  (match Workload.generate ~seed:1 ~n:3 ~mean_gap_s:Float.nan () with
  | Error (Workload.Bad_mean_gap _) -> ()
  | Ok _ | Error _ ->
    Alcotest.fail "NaN gap must be rejected, not crash or loop");
  expect "bad deadline" (Workload.Bad_deadline (-2.0))
    (Workload.generate ~seed:1 ~n:3 ~mean_gap_s:1.0 ~deadline_s:(-2.0) ());
  (match Workload.generate_exn ~seed:1 ~n:0 ~mean_gap_s:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "generate_exn must raise on degenerate parameters")

let test_workload_deadlines () =
  (match
     Workload.of_string
       "0.0 MG1 deadline=120\n1.0 MG2 hot deadline=60.5\n2.0 MG3\n"
   with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok wl ->
    check_bool "has_deadlines" true (Workload.has_deadlines wl);
    Alcotest.(check (list (option (float 1e-9))))
      "deadlines parsed, label and deadline compose"
      [ Some 120.0; Some 60.5; None ]
      (List.map (fun a -> a.Workload.a_deadline_s) wl.Workload.arrivals);
    Alcotest.(check (list string))
      "labels survive the deadline token" [ "MG1"; "hot"; "MG3" ]
      (List.map (fun a -> a.Workload.a_label) wl.Workload.arrivals));
  let fails ~containing src =
    match Workload.of_string src with
    | Ok _ -> Alcotest.failf "expected failure on %S" src
    | Error msg ->
      check_bool
        (Printf.sprintf "error %S mentions %S" msg containing)
        true
        (contains ~sub:containing msg)
  in
  fails ~containing:"bad deadline" "0.0 MG1 deadline=0";
  fails ~containing:"bad deadline" "0.0 MG1 deadline=nope";
  fails ~containing:"line 2" "0.0 MG1\n1.0 MG2 deadline=-5";
  fails ~containing:"duplicate deadline" "0.0 MG1 deadline=5 deadline=6";
  fails ~containing:"unknown option" "0.0 MG1 priority=9";
  let wl =
    Workload.generate_exn ~seed:2 ~n:4 ~mean_gap_s:1.0 ~deadline_s:30.0 ()
  in
  check_bool "generated deadlines on every arrival" true
    (List.for_all
       (fun a -> a.Workload.a_deadline_s = Some 30.0)
       wl.Workload.arrivals)

let test_workload_duplicate_file_refs () =
  (* One broken @FILE referenced from two lines: both failures are
     line-numbered, and the second line's error surfaces without
     re-reading the file (the parse stops at the first). *)
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "rapida_nope.rq" in
  (match
     Workload.of_string
       (Printf.sprintf "0.0 @%s\n1.0 @%s\n" missing missing)
   with
  | Ok _ -> Alcotest.fail "expected a read failure"
  | Error msg ->
    check_bool "read failure is line-numbered" true
      (contains ~sub:"line 1" msg);
    check_bool "read failure names the file" true
      (contains ~sub:"cannot read" msg));
  (* A valid file referenced twice parses once and works on both lines. *)
  let path = Filename.temp_file "rapida_wl" ".rq" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Catalog.find_exn "MG1").Catalog.sparql;
      close_out oc;
      match
        Workload.of_string (Printf.sprintf "0.0 @%s\n1.0 @%s\n" path path)
      with
      | Error e -> Alcotest.failf "parse failed: %s" e
      | Ok wl -> check_int "both lines kept" 2 (Workload.size wl))

(* --- cross-query grouping ------------------------------------------------ *)

let parse id = Catalog.parse (Catalog.find_exn id)

let test_shares () =
  check_bool "hive-mqo shares" true (Batch_exec.shares Engine.Hive_mqo);
  check_bool "rapid-analytics shares" true
    (Batch_exec.shares Engine.Rapid_analytics);
  check_bool "hive-naive solo" false (Batch_exec.shares Engine.Hive_naive);
  check_bool "rapid-plus solo" false (Batch_exec.shares Engine.Rapid_plus)

let member_indexes groups =
  List.concat_map
    (fun g ->
      List.map
        (fun (m : Batch_exec.member) -> m.Batch_exec.m_index)
        g.Batch_exec.g_members)
    groups
  |> List.sort compare

let test_grouping_overlap () =
  let queries = List.map parse [ "MG1"; "MG2"; "MG1" ] in
  let groups = Batch_exec.group_queries Engine.Rapid_analytics queries in
  check_int "every query lands in exactly one group" 3
    (List.length (member_indexes groups));
  Alcotest.(check (list int))
    "indexes cover the batch" [ 0; 1; 2 ] (member_indexes groups);
  let sizes =
    List.map (fun g -> List.length g.Batch_exec.g_members) groups
  in
  check_bool "overlapping BSBM queries shared a composite" true
    (List.exists (fun n -> n >= 2) sizes);
  List.iter
    (fun g ->
      if List.length g.Batch_exec.g_members >= 2 then
        check_bool "multi-member groups carry a composite" true
          (g.Batch_exec.g_composite <> None))
    groups;
  (* Pooled subquery ids must be contiguous per group — they become the
     composite's pattern ids. *)
  List.iter
    (fun g ->
      let ids =
        List.concat_map
          (fun (m : Batch_exec.member) ->
            List.map
              (fun (sq : Rapida_sparql.Analytical.subquery) ->
                sq.Rapida_sparql.Analytical.sq_id)
              m.Batch_exec.m_subqueries)
          g.Batch_exec.g_members
      in
      Alcotest.(check (list int))
        "pooled sq_ids are 0..n-1"
        (List.init (List.length ids) Fun.id)
        ids)
    groups

let test_grouping_non_sharing_kind () =
  let queries = List.map parse [ "MG1"; "MG2"; "MG1" ] in
  let groups = Batch_exec.group_queries Engine.Rapid_plus queries in
  check_int "non-sharing kinds: all singletons" 3 (List.length groups);
  Alcotest.(check (list int))
    "batch order preserved" [ 0; 1; 2 ] (member_indexes groups)

(* --- typed errors and sessions ------------------------------------------- *)

let small_input =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~seed:3 ~products:60 ())))

let fresh_ctx ?(base = Plan_util.default_options) () = Plan_util.context base

let test_error_parse () =
  let session =
    Engine.prepare Engine.Rapid_analytics (Lazy.force small_input)
  in
  match Engine.execute_sparql session (fresh_ctx ()) "SELECT nonsense {" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error (Engine.Parse_error _ as e) ->
    check_int "parse errors are usage errors" 2 (Engine.error_exit_code e);
    check_bool "message is not empty" true
      (String.length (Engine.error_message e) > 0)
  | Error e ->
    Alcotest.failf "expected Parse_error, got %s" (Engine.error_message e)

let test_error_job_failed () =
  (* Every attempt crashes and there are no retries left: the workflow
     aborts and surfaces as a structured Job_failed, not an exception. *)
  let faults = { Fi.default with Fi.seed = 1; task_fail_p = 0.9;
                 max_attempts = 1 }
  in
  let session =
    Engine.prepare Engine.Rapid_analytics (Lazy.force small_input)
  in
  let ctx = fresh_ctx ~base:(Plan_util.make ~faults ()) () in
  match Engine.execute session ctx (parse "MG1") with
  | Ok _ -> Alcotest.fail "expected an aborted workflow"
  | Error (Engine.Job_failed _ as e) ->
    check_int "job failures are runtime errors" 1 (Engine.error_exit_code e)
  | Error e ->
    Alcotest.failf "expected Job_failed, got %s" (Engine.error_message e)

let test_error_plan_rejected () =
  (* Two patterns that share no variable: no engine has a plan for a
     disconnected join graph, and the refusal is a typed, deterministic
     error rather than an exception or an abort. *)
  let src =
    "SELECT (COUNT(?pr) AS ?n) { ?off price ?pr . ?p productFeature ?f . }"
  in
  List.iter
    (fun kind ->
      let session = Engine.prepare kind (Lazy.force small_input) in
      match Engine.execute_sparql session (fresh_ctx ()) src with
      | Ok _ ->
        Alcotest.failf "%s: expected Plan_rejected" (Engine.kind_name kind)
      | Error (Engine.Plan_rejected _ as e) ->
        check_int "plan rejections are runtime errors" 1
          (Engine.error_exit_code e);
        check_bool "plan rejections are not transient" false
          (Engine.error_transient e)
      | Error e ->
        Alcotest.failf "%s: expected Plan_rejected, got %s"
          (Engine.kind_name kind) (Engine.error_message e))
    Engine.all_kinds

let test_percentile () =
  feq "p50 nearest-rank" 2.0 (Server.percentile 50.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  feq "p100 is the max" 4.0 (Server.percentile 100.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  feq "p99 of a small set is the max" 4.0
    (Server.percentile 99.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  feq "empty input" 0.0 (Server.percentile 50.0 [])

let test_percentile_edges () =
  (* Empty and singleton inputs. *)
  feq "empty: p0" 0.0 (Server.percentile 0.0 []);
  feq "empty: p100" 0.0 (Server.percentile 100.0 []);
  List.iter
    (fun p ->
      feq
        (Printf.sprintf "singleton: p%.0f is the element" p)
        7.0
        (Server.percentile p [ 7.0 ]))
    [ 0.0; 50.0; 99.0; 100.0 ];
  (* p=0 clamps the nearest rank up to the first element (the min). *)
  feq "p0 is the min" 1.0 (Server.percentile 0.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  feq "p100 never reads past the end" 4.0
    (Server.percentile 100.0 [ 4.0; 1.0; 3.0; 2.0 ]);
  (* Nearest-rank on ties: duplicated values occupy distinct ranks, so
     the p50 of [1;1;2;2] is the second 1, not an interpolation. *)
  feq "ties: p50" 1.0 (Server.percentile 50.0 [ 2.0; 1.0; 2.0; 1.0 ]);
  feq "ties: p75" 2.0 (Server.percentile 75.0 [ 2.0; 1.0; 2.0; 1.0 ]);
  feq "ties: all equal" 5.0 (Server.percentile 99.0 [ 5.0; 5.0; 5.0 ])

let test_sched_one_slot_fairness () =
  (* A 1-slot cluster is the sharpest fairness probe: FIFO serializes
     (t, then 2t), Fair interleaves (both finish together at 2t) —
     same total work either way. *)
  let one_slot =
    { Cluster.default with Cluster.nodes = 1; map_slots_per_node = 1 }
  in
  let item id = {
    Scheduler.it_id = id;
    it_submit_s = 0.0;
    it_jobs = [ job ~maps:1 ~reds:1 ~t:10.0 "j" ];
  }
  in
  let fifo = Scheduler.simulate one_slot Scheduler.Fifo [ item 0; item 1 ] in
  feq "fifo: head runs alone" 10.0 (placement_exn fifo 0).Scheduler.p_finish_s;
  feq "fifo: second serialized" 20.0
    (placement_exn fifo 1).Scheduler.p_finish_s;
  let fair = Scheduler.simulate one_slot Scheduler.Fair [ item 0; item 1 ] in
  feq "fair: both finish together" 20.0
    (placement_exn fair 0).Scheduler.p_finish_s;
  feq "fair: both finish together (2)" 20.0
    (placement_exn fair 1).Scheduler.p_finish_s;
  feq "one slot is saturated either way" 1.0 fair.Scheduler.utilization;
  check_bool "placement of an unknown id" true
    (Scheduler.placement fifo 9 = None)

(* --- the server ---------------------------------------------------------- *)

let overlapping_ids =
  [ "MG1"; "MG2"; "MG1"; "MG3"; "MG4"; "G1"; "MG2"; "MG1" ]

let overlapping_workload =
  lazy
    (Workload.of_entries
       (List.mapi
          (fun i id -> (0.5 *. float_of_int i, Catalog.find_exn id))
          overlapping_ids))

(* The PR's acceptance experiment: >= 8 overlapping catalog queries in
   one window run strictly fewer simulated jobs and scan strictly fewer
   bytes than back-to-back execution, with every per-query result
   identical to its solo run. *)
let test_server_savings () =
  let input = Lazy.force small_input in
  let wl = Lazy.force overlapping_workload in
  List.iter
    (fun kind ->
      let cfg = Server.config ~window_s:10.0 kind in
      let r = Server.run cfg input wl in
      let name fmt = Printf.sprintf fmt (Engine.kind_name kind) in
      check_int (name "%s: no failed queries") 0 r.Server.r_errors;
      check_bool (name "%s: every result matches its solo run") true
        r.Server.r_all_matched;
      check_bool (name "%s: strictly fewer jobs than back-to-back") true
        (r.Server.r_jobs < r.Server.r_solo_jobs);
      check_bool (name "%s: strictly fewer scan bytes than back-to-back")
        true
        (r.Server.r_input_bytes < r.Server.r_solo_input_bytes);
      check_int (name "%s: savings are the difference")
        (r.Server.r_solo_jobs - r.Server.r_jobs)
        r.Server.r_jobs_saved)
    Engine.[ Hive_mqo; Rapid_analytics ]

let test_server_no_share_baseline () =
  let input = Lazy.force small_input in
  let wl = Lazy.force overlapping_workload in
  let cfg = Server.config ~window_s:10.0 ~share:false Engine.Rapid_analytics in
  let r = Server.run cfg input wl in
  check_bool "sharing off: still correct" true r.Server.r_all_matched;
  check_int "sharing off: no jobs saved" 0 r.Server.r_jobs_saved;
  check_int "sharing off: no bytes saved" 0 r.Server.r_bytes_saved;
  List.iter
    (fun q -> check_int "sharing off: all groups singleton" 1
        q.Server.q_group_size)
    r.Server.r_queries

let test_server_report_shape () =
  let input = Lazy.force small_input in
  let wl = Lazy.force overlapping_workload in
  let cfg = Server.config ~window_s:1.2 ~policy:Scheduler.Fifo
      Engine.Rapid_analytics
  in
  let r = Server.run cfg input wl in
  check_int "every query reported" (Workload.size wl)
    (List.length r.Server.r_queries);
  check_int "batch sizes partition the workload" (Workload.size wl)
    (List.fold_left (fun acc b -> acc + b.Server.b_size) 0 r.Server.r_batches);
  check_bool "percentiles are ordered" true
    (r.Server.r_latency_p50_s <= r.Server.r_latency_p95_s
     && r.Server.r_latency_p95_s <= r.Server.r_latency_p99_s
     && r.Server.r_latency_p99_s <= r.Server.r_latency_max_s);
  check_bool "utilization is a fraction" true
    (r.Server.r_utilization >= 0.0 && r.Server.r_utilization <= 1.0 +. 1e-9);
  List.iter
    (fun q ->
      check_bool "latency covers the admission wait" true
        (q.Server.q_latency_s >= 0.0 && q.Server.q_queue_s >= 0.0))
    r.Server.r_queries

(* The server-path identity property, the PR's core invariant: across
   seeds, engines, windows, and scheduler policies, every query's
   server-path table equals its solo [Engine.execute] table (the server
   checks with Relops.same_results and reports per query). *)
let test_server_identity_across_seeds () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:5 ~products:40 ()))
  in
  List.iter
    (fun seed ->
      let wl = Workload.generate_exn ~seed ~n:5 ~mean_gap_s:2.0 () in
      List.iter
        (fun kind ->
          let cfg = Server.config ~window_s:3.0 kind in
          let r = Server.run cfg input wl in
          check_bool
            (Printf.sprintf "seed %d, %s: identical to solo" seed
               (Engine.kind_name kind))
            true
            (r.Server.r_all_matched && r.Server.r_errors = 0))
        Engine.all_kinds)
    (List.init 20 Fun.id)

let test_server_identity_across_settings () =
  let input = Lazy.force small_input in
  let wl = Workload.generate_exn ~seed:4 ~n:6 ~mean_gap_s:1.5 () in
  List.iter
    (fun kind ->
      List.iter
        (fun window_s ->
          List.iter
            (fun policy ->
              List.iter
                (fun share ->
                  let cfg = Server.config ~window_s ~policy ~share kind in
                  let r = Server.run cfg input wl in
                  check_bool
                    (Printf.sprintf "%s w=%.1f %s share=%b"
                       (Engine.kind_name kind) window_s
                       (Scheduler.policy_name policy) share)
                    true
                    (r.Server.r_all_matched && r.Server.r_errors = 0))
                [ true; false ])
            [ Scheduler.Fifo; Scheduler.Fair ])
        [ 0.0; 1.0; 50.0 ])
    Engine.[ Hive_mqo; Rapid_analytics ]

(* --- run-level memos ------------------------------------------------------ *)

let spec_exn parse spec =
  match parse spec with
  | Ok cfg -> cfg
  | Error e -> Alcotest.failf "spec %S: %s" spec e

(* The memo property's knob sets: the options every solo and every
   group runs with, and the overload layer. *)
let memo_knobs =
  let faults spec = spec_exn Fi.parse_spec spec in
  let mem = spec_exn Memory.parse_spec "heap=8k,sort-buffer=1k" in
  [
    ("none", Plan_util.make (), Server.overload_off);
    ( "faults",
      Plan_util.make
        ~faults:(faults "seed=5,task-fail=0.1,straggler=0.1,job-retries=3")
        (),
      Server.overload_off );
    ( "mem",
      Plan_util.make
        ~cluster:
          (Cluster.with_memory Plan_util.default_options.Plan_util.cluster mem)
        (),
      Server.overload_off );
    ( "checkpoint",
      Plan_util.make
        ~faults:(faults "seed=7,task-fail=0.1,max-attempts=1")
        ~checkpoint:(spec_exn Checkpoint.parse_spec "every=1")
        (),
      Server.overload_off );
    ( "deadline-aware",
      Plan_util.make (),
      Server.overload ~deadline_s:100.0 ~shed_policy:Server.Deadline_aware () );
  ]

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The back-to-back figures of [solos] (arrival order), computed as the
   report defines them: each query starts when it arrives or when the
   previous one finishes. *)
let solo_figures (wl : Workload.t) solos =
  let solo_end, lats, jobs, bytes =
    List.fold_left
      (fun (cursor, lats, jobs, bytes) ((a : Workload.arrival), res) ->
        let dur, j, b =
          match res with
          | Ok (o : Engine.output) ->
            let st = o.Engine.stats in
            (Stats.est_time_s st, Stats.cycles st, Stats.total_input_bytes st)
          | Error _ -> (0.0, 0, 0)
        in
        let finish = Float.max cursor a.Workload.a_time_s +. dur in
        (finish, (finish -. a.Workload.a_time_s) :: lats, jobs + j, bytes + b))
      (0.0, [], 0, 0) solos
  in
  let makespan =
    match wl.Workload.arrivals with
    | first :: _ -> Float.max 0.0 (solo_end -. first.Workload.a_time_s)
    | [] -> 0.0
  in
  ( jobs,
    bytes,
    [
      makespan;
      Server.percentile 50.0 lats;
      Server.percentile 95.0 lats;
      Server.percentile 99.0 lats;
    ] )

let same_solo x y =
  match (x, y) with
  | Ok (a : Engine.output), Ok (b : Engine.output) ->
    Relops.same_results a.Engine.table b.Engine.table
    && a.Engine.stats = b.Engine.stats
  | Error a, Error b -> Engine.error_message a = Engine.error_message b
  | Ok _, Error _ | Error _, Ok _ -> false

(* A query repeated in the stream runs solo once per run. The property:
   that memoized run reports exactly what solos run one by one, each
   with its own [Engine.execute], give — the back-to-back figures
   bitwise, and every [q_matches_solo] — over seeds x engines x knob
   sets x optimizer on/off, on streams that repeat queries. *)
let test_server_solo_memo () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:5 ~products:40 ()))
  in
  List.iter
    (fun seed ->
      let wl = Workload.generate_exn ~seed ~n:12 ~mean_gap_s:1.0 () in
      let key (a : Workload.arrival) = To_sparql.analytical a.Workload.a_query in
      check_bool "the stream repeats queries" true
        (List.length (List.sort_uniq compare (List.map key wl.Workload.arrivals))
         < Workload.size wl);
      List.iter
        (fun kind ->
          let session = Engine.prepare kind input in
          List.iter
            (fun (knob, options, overload) ->
              let name fmt =
                Printf.sprintf fmt seed (Engine.kind_name kind) knob
              in
              let fresh =
                List.map
                  (fun (a : Workload.arrival) ->
                    ( a,
                      Engine.execute session (Plan_util.context options)
                        a.Workload.a_query ))
                  wl.Workload.arrivals
              in
              (* What the memo relies on: a repeat's own solo equals the
                 first solo of its query. *)
              List.iter
                (fun (a, res) ->
                  let _, first =
                    List.find (fun (b, _) -> key b = key a) fresh
                  in
                  check_bool (name "seed %d, %s, %s: repeat = first solo")
                    true (same_solo first res))
                fresh;
              let jobs, bytes, times = solo_figures wl fresh in
              List.iter
                (fun optimize ->
                  let r =
                    Server.run
                      (Server.config ~overload ?optimize ~options kind)
                      input wl
                  in
                  let name fmt =
                    name fmt ^ if optimize = None then "" else ", optimize"
                  in
                  check_int (name "seed %d, %s, %s: solo jobs") jobs
                    r.Server.r_solo_jobs;
                  check_int (name "seed %d, %s, %s: solo bytes") bytes
                    r.Server.r_solo_input_bytes;
                  check_bool (name "seed %d, %s, %s: solo times bitwise") true
                    (List.for_all2 same_bits times
                       Server.
                         [
                           r.r_solo_makespan_s;
                           r.r_solo_latency_p50_s;
                           r.r_solo_latency_p95_s;
                           r.r_solo_latency_p99_s;
                         ]);
                  List.iter
                    (fun (q : Server.query_report) ->
                      let _, solo =
                        List.find
                          (fun ((a : Workload.arrival), _) ->
                            a.Workload.a_id = q.Server.q_id)
                          fresh
                      in
                      (* The report keeps each result's row count, not
                         its table. *)
                      let expected =
                        match (q.Server.q_fate, q.Server.q_error, solo) with
                        | Server.Shed _, _, _ -> true
                        | _ when not q.Server.q_checked -> true
                        | _, Some _, Error _ -> true
                        | _, None, Ok (o : Engine.output) ->
                          Table.cardinality o.Engine.table = q.Server.q_rows
                        | _, Some _, Ok _ | _, None, Error _ -> false
                      in
                      check_bool
                        (name "seed %d, %s, %s: q_matches_solo")
                        expected q.Server.q_matches_solo)
                    r.Server.r_queries)
                [ None; Some (Server.optimize ()) ])
            memo_knobs)
        Engine.all_kinds)
    [ 1; 2; 3 ]

(* The planner's catalog is built once per input and matched by
   identity: runs alternating over two inputs each report exactly what
   the same run reported first, when the memo held nothing for its
   input, and the memoized catalog is the one a fresh build gives. *)
let test_server_catalog_memo () =
  let fresh_input seed =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed ~products:30 ()))
  in
  let a = fresh_input 21 and b = fresh_input 22 in
  let wl = Workload.generate_exn ~seed:3 ~n:8 ~mean_gap_s:1.0 () in
  let cfg =
    Server.config ~optimize:(Server.optimize ()) Engine.Rapid_analytics
  in
  let report input =
    let r = Server.run cfg input wl in
    (match r.Server.r_optimize with
    | Some p -> check_bool "groups were planned" true (p.Server.p_planned > 0)
    | None -> Alcotest.fail "optimizer report missing");
    Json.to_string (Server.to_json r) ^ Fmt.str "%a" Server.pp_detail r
  in
  let first_a = report a in
  let first_b = report b in
  List.iteri
    (fun i (input, first) ->
      Alcotest.(check string)
        (Printf.sprintf "run %d equals the first run on its input" i)
        first (report input))
    [ (a, first_a); (a, first_a); (b, first_b); (a, first_a); (b, first_b) ];
  let fp input =
    Planner.catalog_fingerprint
      (Stats_catalog.build (Engine.graph_of_input input))
  in
  List.iter
    (fun input ->
      let catalog, catalog_fp = Server.catalog input in
      check_bool "memoized fingerprint = fresh build's" true
        (Int64.equal catalog_fp (fp input));
      check_bool "the catalog is built once per input" true
        (catalog == fst (Server.catalog input)))
    [ a; b ];
  check_bool "the two inputs' catalogs differ" false
    (Int64.equal (fp a) (fp b))

(* --- overload resilience ------------------------------------------------- *)

let ov_report r =
  match r.Server.r_overload with
  | Some o -> o
  | None -> Alcotest.fail "overload layer was active but unreported"

let fate_partition r =
  let o = ov_report r in
  o.Server.o_completed + o.Server.o_shed_queue + o.Server.o_shed_infeasible
  + o.Server.o_shed_breaker + o.Server.o_missed + o.Server.o_failed

let test_server_deadline_fates () =
  let input = Lazy.force small_input in
  let wl = Lazy.force overlapping_workload in
  let n = Workload.size wl in
  let kind = Engine.Rapid_analytics in
  (* Off: no overload report, every fate trivially Completed. *)
  let off = Server.run (Server.config ~window_s:2.0 kind) input wl in
  check_bool "disabled: no overload report" true
    (off.Server.r_overload = None);
  List.iter
    (fun q ->
      check_bool "disabled: fate is Completed" true
        (q.Server.q_fate = Server.Completed);
      check_bool "disabled: always checked" true q.Server.q_checked)
    off.Server.r_queries;
  (* An impossible deadline: every query completes late. *)
  let tight =
    Server.run
      (Server.config ~window_s:2.0
         ~overload:(Server.overload ~deadline_s:0.001 ())
         kind)
      input wl
  in
  let o = ov_report tight in
  check_int "tight: all miss" n o.Server.o_missed;
  check_int "tight: none complete" 0 o.Server.o_completed;
  feq "tight: zero goodput" 0.0 o.Server.o_goodput;
  check_bool "tight: missed results still verified" true
    (tight.Server.r_all_matched && tight.Server.r_errors = 0);
  check_bool "tight: missed percentiles populated" true
    (o.Server.o_missed_p50_s > 0.0
     && o.Server.o_missed_p50_s <= o.Server.o_missed_p99_s);
  (* A generous deadline: everything completes, goodput is 1. *)
  let loose =
    Server.run
      (Server.config ~window_s:2.0
         ~overload:(Server.overload ~deadline_s:1e9 ())
         kind)
      input wl
  in
  let o = ov_report loose in
  check_int "loose: all complete" n o.Server.o_completed;
  feq "loose: full goodput" 1.0 o.Server.o_goodput;
  check_int "loose: fates partition the arrivals" n (fate_partition loose);
  (* Workload-carried deadlines activate the layer on their own. *)
  (match Workload.of_string "0.0 MG1 deadline=1e9\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok wl ->
    let r = Server.run (Server.config ~window_s:2.0 kind) input wl in
    let o = ov_report r in
    check_int "workload deadline: completed" 1 o.Server.o_completed;
    List.iter
      (fun q ->
        check_bool "workload deadline carried per query" true
          (q.Server.q_deadline_s = Some 1e9))
      r.Server.r_queries)

let shed_labels r =
  List.filter_map
    (fun q ->
      match q.Server.q_fate with
      | Server.Shed _ -> Some q.Server.q_label
      | Server.Completed | Server.Deadline_missed | Server.Failed -> None)
    r.Server.r_queries

let test_server_queue_cap_shedding () =
  let input = Lazy.force small_input in
  let kind = Engine.Rapid_analytics in
  (* All four arrive inside one admission window; room for two. *)
  let wl =
    match
      Workload.of_string
        "0.0 MG1 deadline=500000\n0.1 MG2 deadline=200000\n\
         0.2 MG3 deadline=600000\n0.3 MG4 deadline=250000\n"
    with
    | Ok wl -> wl
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let run policy =
    Server.run
      (Server.config ~window_s:10.0
         ~overload:(Server.overload ~queue_cap:2 ~shed_policy:policy ())
         kind)
      input wl
  in
  List.iter
    (fun policy ->
      let r = run policy in
      let o = ov_report r in
      let name fmt = Printf.sprintf fmt (Server.shed_policy_name policy) in
      check_int (name "%s: two shed on queue capacity") 2
        o.Server.o_shed_queue;
      check_int (name "%s: fates partition the arrivals") 4
        (fate_partition r);
      check_bool (name "%s: admitted queries stay correct") true
        (r.Server.r_all_matched && r.Server.r_errors = 0);
      List.iter
        (fun q ->
          match q.Server.q_fate with
          | Server.Shed reason ->
            check_bool (name "%s: shed reason is queue-full") true
              (reason = Server.Queue_full);
            check_int (name "%s: shed queries have no group") (-1)
              q.Server.q_group;
            check_bool (name "%s: shed queries are unchecked") true
              (not q.Server.q_checked)
          | Server.Completed | Server.Deadline_missed | Server.Failed -> ())
        r.Server.r_queries)
    Server.[ Drop_tail; Cost_aware; Deadline_aware ];
  (* Drop-tail keeps the earliest arrivals, deadline-aware the most
     urgent absolute deadlines. *)
  Alcotest.(check (list string))
    "drop-tail sheds the tail" [ "MG3"; "MG4" ]
    (shed_labels (run Server.Drop_tail));
  Alcotest.(check (list string))
    "deadline-aware sheds the laxest deadlines" [ "MG1"; "MG3" ]
    (shed_labels (run Server.Deadline_aware))

let test_server_breaker () =
  (* Every attempt fails with no retries: the first queries fail, the
     breaker opens after two consecutive failures, and later arrivals
     are shed instead of burning slots. *)
  let input = Lazy.force small_input in
  let faults = { Fi.default with Fi.seed = 1; task_fail_p = 0.9;
                 max_attempts = 1 }
  in
  let wl = Workload.generate_exn ~seed:3 ~n:8 ~mean_gap_s:0.5 () in
  let r =
    Server.run
      (Server.config ~window_s:0.0
         ~overload:(Server.overload ~breaker_k:2 ~breaker_cooldown_s:1e6 ())
         ~options:(Plan_util.make ~faults ())
         Engine.Rapid_analytics)
      input wl
  in
  let o = ov_report r in
  check_bool "breaker tripped" true (o.Server.o_breaker_trips >= 1);
  check_bool "later arrivals shed while open" true
    (o.Server.o_shed_breaker > 0);
  check_int "trip threshold consumed two failures" 2 o.Server.o_failed;
  check_int "fates partition the arrivals" 8 (fate_partition r);
  check_bool "shed-on-breaker is a typed fate" true
    (List.exists
       (fun q -> q.Server.q_fate = Server.Shed Server.Breaker_open)
       r.Server.r_queries)

(* The breaker restarts its count of consecutive failures when a
   cooldown ends. Batch 0's three failures trip it (k = 2) on the second
   and leave a one-failure streak behind; batch 1 arrives after the
   cooldown, and its single failure must not trip it again, so batch 2
   is admitted, not shed. *)
let test_server_breaker_reset_on_close () =
  let input = Lazy.force small_input in
  let faults = { Fi.default with Fi.seed = 1; task_fail_p = 0.99;
                 max_attempts = 1 }
  in
  let wl =
    match
      Workload.of_string "0.0 MG1\n0.1 MG2\n0.2 MG3\n50.0 MG4\n52.0 MG1\n"
    with
    | Ok wl -> wl
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let r =
    Server.run
      (Server.config ~window_s:1.0
         ~overload:(Server.overload ~breaker_k:2 ~breaker_cooldown_s:10.0 ())
         ~options:(Plan_util.make ~faults ())
         Engine.Rapid_analytics)
      input wl
  in
  let o = ov_report r in
  check_int "every query was admitted and failed" 5 o.Server.o_failed;
  check_int "nothing shed on the breaker" 0 o.Server.o_shed_breaker;
  check_bool "batch 0 tripped the breaker" true
    (o.Server.o_breaker_trips >= 1)

(* A pass refused by the deadline-aware feasibility check is discarded
   with its planning outcome: only the groups that execute count as
   planned. *)
let test_server_refused_pass_not_planned () =
  let input = Lazy.force small_input in
  let wl =
    match
      Workload.of_string
        "0.0 MG1 deadline=60\n0.1 MG2 deadline=200000\n\
         0.2 MG3 deadline=70\n0.3 MG4 gold deadline=250000\n"
    with
    | Ok wl -> wl
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  let r =
    Server.run
      (Server.config ~optimize:(Server.optimize ())
         ~overload:(Server.overload ~shed_policy:Server.Deadline_aware ())
         Engine.Rapid_analytics)
      input wl
  in
  check_int "two queries refused" 2 (ov_report r).Server.o_shed_infeasible;
  let executed =
    List.concat_map (fun b -> b.Server.b_group_sizes) r.Server.r_batches
  in
  check_int "two groups executed" 2 (List.length executed);
  match r.Server.r_optimize with
  | None -> Alcotest.fail "optimizer report missing"
  | Some p -> check_int "planned = executed groups" 2 p.Server.p_planned

let degrade_overload =
  Server.overload ~degrade:true ~degrade_depth:1 ~degrade_drain_s:0.5
    ~verify_sample:1 ()

(* The ladder's transparency contract: at every degradation level each
   completed query is byte-identical to its solo run (the heuristic
   plans change cost, never answers), here with sampling off so every
   result is actually compared. *)
let test_server_degrade_identity () =
  let input = Lazy.force small_input in
  List.iter
    (fun seed ->
      let wl = Workload.generate_exn ~seed ~n:8 ~mean_gap_s:0.2 () in
      List.iter
        (fun kind ->
          let cfg =
            Server.config ~window_s:0.0 ~overload:degrade_overload kind
          in
          let r = Server.run cfg input wl in
          let o = ov_report r in
          let name fmt =
            Printf.sprintf fmt seed (Engine.kind_name kind)
          in
          check_bool (name "seed %d, %s: ladder engaged") true
            (o.Server.o_level_steps > 0);
          check_bool (name "seed %d, %s: time accounted above level 0") true
            (List.exists
               (fun (lvl, s) -> lvl > 0 && s > 0.0)
               o.Server.o_time_in_level);
          check_int (name "seed %d, %s: every result checked") 8
            o.Server.o_checked;
          check_bool (name "seed %d, %s: degraded identical to solo") true
            (r.Server.r_all_matched && r.Server.r_errors = 0))
        Engine.[ Hive_mqo; Rapid_analytics ])
    [ 0; 1; 2; 3; 4 ]

let test_server_verify_sampling () =
  (* Same pressure, but a sparse verification sample: at ladder level 2
     only every k-th query is compared against its solo run; the rest
     are reported unchecked, never silently trusted as checked. *)
  let input = Lazy.force small_input in
  let wl = Workload.generate_exn ~seed:1 ~n:8 ~mean_gap_s:0.2 () in
  let sparse =
    Server.overload ~degrade:true ~degrade_depth:1 ~degrade_drain_s:0.5
      ~verify_sample:1000 ()
  in
  let r =
    Server.run
      (Server.config ~window_s:0.0 ~overload:sparse Engine.Rapid_analytics)
      input wl
  in
  let o = ov_report r in
  check_bool "ladder engaged" true (o.Server.o_level_steps > 0);
  check_bool "sampling skipped some checks" true (o.Server.o_checked < 8);
  check_bool "at least one query still checked" true
    (o.Server.o_checked > 0);
  check_bool "unchecked queries exist and are flagged" true
    (List.exists (fun q -> not q.Server.q_checked) r.Server.r_queries);
  check_bool "checked subset all matched" true r.Server.r_all_matched

let test_server_overload_idle_equivalence () =
  (* Knobs set but never binding: same queries, groups, rows, timings,
     and totals as the disabled run — the layer only observes. *)
  let input = Lazy.force small_input in
  let wl = Lazy.force overlapping_workload in
  let kind = Engine.Hive_mqo in
  let off = Server.run (Server.config ~window_s:2.0 kind) input wl in
  let idle =
    Server.run
      (Server.config ~window_s:2.0
         ~overload:(Server.overload ~queue_cap:1000 ~breaker_k:1000 ())
         kind)
      input wl
  in
  check_bool "idle layer reports" true (idle.Server.r_overload <> None);
  check_int "same jobs" off.Server.r_jobs idle.Server.r_jobs;
  check_int "same scan bytes" off.Server.r_input_bytes
    idle.Server.r_input_bytes;
  feq "same makespan" off.Server.r_makespan_s idle.Server.r_makespan_s;
  List.iter2
    (fun a b ->
      check_int "same group" a.Server.q_group b.Server.q_group;
      check_int "same rows" a.Server.q_rows b.Server.q_rows;
      feq "same latency" a.Server.q_latency_s b.Server.q_latency_s;
      check_bool "still completed" true
        (b.Server.q_fate = Server.Completed && b.Server.q_checked))
    off.Server.r_queries idle.Server.r_queries;
  let o = ov_report idle in
  check_int "nothing shed" 0
    (o.Server.o_shed_queue + o.Server.o_shed_infeasible
     + o.Server.o_shed_breaker);
  feq "full goodput" 1.0 o.Server.o_goodput

(* The acceptance sweep at unit scale: under the heaviest arrival x
   fault grid point, the protected server's goodput strictly dominates
   the unprotected one's. *)
let test_server_goodput_dominance () =
  let input = Lazy.force small_input in
  let sweep =
    Experiment.overload_sweep ~gaps:[ 0.5 ] ~fault_rates:[ 0.08 ] ~n:12
      ~deadline_s:100.0 (Plan_util.make ()) Engine.Rapid_analytics input
  in
  match sweep.Experiment.o_points with
  | [ p ] ->
    let goodput r = (ov_report r).Server.o_goodput in
    let gp = goodput p.Experiment.o_protected in
    let gu = goodput p.Experiment.o_unprotected in
    check_bool
      (Printf.sprintf "protected %.3f > unprotected %.3f" gp gu)
      true (gp > gu);
    (* Shed queries carry typed fates, never silent drops. *)
    List.iter
      (fun q ->
        match q.Server.q_fate with
        | Server.Shed _ -> check_int "shed: no group" (-1) q.Server.q_group
        | Server.Completed | Server.Deadline_missed | Server.Failed -> ())
      p.Experiment.o_protected.Server.r_queries
  | pts -> Alcotest.failf "expected one grid point, got %d" (List.length pts)

let suite =
  [
    Alcotest.test_case "slot demand and slot-seconds" `Quick test_job_slots;
    Alcotest.test_case "scheduler: uncontended run" `Quick
      test_sched_uncontended;
    Alcotest.test_case "scheduler: FIFO head-of-line" `Quick
      test_sched_fifo_head_of_line;
    Alcotest.test_case "scheduler: fair split" `Quick test_sched_fair_split;
    Alcotest.test_case "scheduler: small demands coexist" `Quick
      test_sched_no_contention_small_demand;
    Alcotest.test_case "scheduler: idle gap" `Quick test_sched_idle_gap;
    Alcotest.test_case "workload: parse" `Quick test_workload_parse;
    Alcotest.test_case "workload: parse errors" `Quick
      test_workload_parse_errors;
    Alcotest.test_case "workload: @file queries" `Quick
      test_workload_query_file;
    Alcotest.test_case "workload: deterministic generator" `Quick
      test_workload_generate;
    Alcotest.test_case "workload: generator typed errors" `Quick
      test_workload_generate_errors;
    Alcotest.test_case "workload: deadlines" `Quick test_workload_deadlines;
    Alcotest.test_case "workload: duplicate @file refs" `Quick
      test_workload_duplicate_file_refs;
    Alcotest.test_case "grouping: sharing kinds" `Quick test_shares;
    Alcotest.test_case "grouping: overlapping queries pool" `Quick
      test_grouping_overlap;
    Alcotest.test_case "grouping: non-sharing kinds stay solo" `Quick
      test_grouping_non_sharing_kind;
    Alcotest.test_case "errors: parse maps to exit 2" `Quick test_error_parse;
    Alcotest.test_case "errors: aborted workflow is Job_failed" `Quick
      test_error_job_failed;
    Alcotest.test_case "errors: unplannable query is Plan_rejected" `Quick
      test_error_plan_rejected;
    Alcotest.test_case "percentile: nearest rank" `Quick test_percentile;
    Alcotest.test_case "percentile: edge cases" `Quick test_percentile_edges;
    Alcotest.test_case "scheduler: one-slot fairness and estimated finish"
      `Quick test_sched_one_slot_fairness;
    Alcotest.test_case "server: shared plans save jobs and bytes" `Slow
      test_server_savings;
    Alcotest.test_case "server: sharing off is the solo baseline" `Slow
      test_server_no_share_baseline;
    Alcotest.test_case "server: report shape" `Slow test_server_report_shape;
    Alcotest.test_case "server: identity across 20 seeds x 4 engines" `Slow
      test_server_identity_across_seeds;
    Alcotest.test_case "server: identity across windows and policies" `Slow
      test_server_identity_across_settings;
    Alcotest.test_case "server: memoized solos equal fresh solos" `Slow
      test_server_solo_memo;
    Alcotest.test_case "server: one catalog per input" `Slow
      test_server_catalog_memo;
    Alcotest.test_case "overload: deadline fates" `Slow
      test_server_deadline_fates;
    Alcotest.test_case "overload: queue-cap shedding policies" `Slow
      test_server_queue_cap_shedding;
    Alcotest.test_case "overload: circuit breaker" `Slow test_server_breaker;
    Alcotest.test_case "overload: breaker count restarts on close" `Slow
      test_server_breaker_reset_on_close;
    Alcotest.test_case "optimize: a refused pass is not planned" `Slow
      test_server_refused_pass_not_planned;
    Alcotest.test_case "overload: degraded plans identical to solo" `Slow
      test_server_degrade_identity;
    Alcotest.test_case "overload: verification sampling" `Slow
      test_server_verify_sampling;
    Alcotest.test_case "overload: idle layer is a no-op" `Slow
      test_server_overload_idle_equivalence;
    Alcotest.test_case "overload: protected goodput dominates" `Slow
      test_server_goodput_dominance;
  ]
