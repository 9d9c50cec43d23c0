(* Fault injection and fault tolerance: deterministic injector decisions,
   transparency of retries/speculation, structured job failure and
   workflow abort, and the engine-level invariant that faulted runs
   return byte-identical results. *)

module Cluster = Rapida_mapred.Cluster
module Exec_ctx = Rapida_mapred.Exec_ctx
module Fi = Rapida_mapred.Fault_injector
module Job = Rapida_mapred.Job
module Stats = Rapida_mapred.Stats
module Workflow = Rapida_mapred.Workflow
module Memory = Rapida_mapred.Memory
module Trace = Rapida_mapred.Trace
module Json = Rapida_mapred.Json
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops

let check_bool = Alcotest.(check bool)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A cluster slow enough that injected re-work dominates rounding. *)
let slow = { Cluster.default with disk_mb_per_s = 0.001 }

let ctx ?cluster ?faults () =
  let cluster = Option.value ~default:Cluster.default cluster in
  match faults with
  | None -> Exec_ctx.create ~cluster ()
  | Some cfg -> Exec_ctx.create ~cluster ~faults:(Fi.create cfg) ()

let wordcount : (string, string, int, string * int) Job.spec =
  {
    name = "wordcount";
    map = (fun line -> List.map (fun w -> (w, 1)) (String.split_on_char ' ' line));
    combine = None;
    reduce = (fun k counts -> [ (k, List.fold_left ( + ) 0 counts) ]);
    input_size = String.length;
    key_size = String.length;
    value_size = (fun _ -> 4);
    output_size = (fun (k, _) -> String.length k + 4);
  }

let lines = List.init 60 (fun i -> Printf.sprintf "alpha beta gamma %d" i)

(* --- injector ----------------------------------------------------------- *)

let test_parse_spec () =
  (match
     Fi.parse_spec
       "seed=9,task-fail=0.1,straggler=0.25,slowdown=2.5,max-attempts=3,\
        speculation=off,job-retries=1,backoff=5,phase=map"
   with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
    check_int "seed" 9 cfg.Fi.seed;
    Alcotest.(check (float 0.0)) "task-fail" 0.1 cfg.Fi.task_fail_p;
    Alcotest.(check (float 0.0)) "straggler" 0.25 cfg.Fi.straggler_p;
    Alcotest.(check (float 0.0)) "slowdown" 2.5 cfg.Fi.straggler_slowdown;
    check_int "max-attempts" 3 cfg.Fi.max_attempts;
    check_bool "speculation" false cfg.Fi.speculation;
    check_int "job-retries" 1 cfg.Fi.job_retries;
    Alcotest.(check (float 0.0)) "backoff" 5.0 cfg.Fi.retry_backoff_s;
    check_bool "phase" true (cfg.Fi.target = Some Fi.Map));
  (* Blanks around pairs, keys and values are ignored; empty pairs are
     skipped. *)
  match Fi.parse_spec " seed=7 , task-fail=0.1 ,, phase = reduce " with
  | Error msg -> Alcotest.fail msg
  | Ok cfg ->
    check_int "padded seed" 7 cfg.Fi.seed;
    Alcotest.(check (float 0.0)) "padded task-fail" 0.1 cfg.Fi.task_fail_p;
    check_bool "padded phase" true (cfg.Fi.target = Some Fi.Reduce)

let test_parse_spec_errors () =
  (* Format errors carry the flag's prefix; range errors come from
     [Fault_injector.create]. *)
  let expect_error (spec, prefix) =
    match Fi.parse_spec spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error msg ->
      check_bool
        (Printf.sprintf "%S: %S starts with %S" spec msg prefix)
        true
        (String.starts_with ~prefix msg && not (String.contains msg '\n'))
  in
  List.iter expect_error
    [
      ("task-fail=lots", "--faults: task-fail expects a number");
      ("seed", "--faults: expected key=value");
      ("bogus=1", "--faults: unknown key");
      ("speculation=maybe", "--faults: speculation expects on or off");
      ("phase=both", "--faults: phase expects map, reduce, or all");
      (" seed = x ", "--faults: seed expects an integer, got \"x\"");
      ("task-fail=1.5", "Fault_injector.create:");
      ("straggler=-0.1", "Fault_injector.create:");
      ("max-attempts=0", "Fault_injector.create:");
      ("slowdown=0.5", "Fault_injector.create:");
    ]

let test_outcome_deterministic () =
  let t =
    Fi.create { Fi.default with Fi.seed = 3; task_fail_p = 0.3; straggler_p = 0.3 }
  in
  let outcome task attempt =
    Fi.attempt_outcome t ~job:"j" ~job_attempt:0 ~phase:Fi.Map ~task ~attempt
  in
  for task = 0 to 20 do
    for attempt = 1 to 4 do
      check_bool "same coordinates, same fate" true
        (outcome task attempt = outcome task attempt)
    done
  done;
  (* Bumping the whole-job attempt re-rolls the dice: over enough tasks,
     at least one fate must change. *)
  let differs =
    List.exists
      (fun task ->
        Fi.attempt_outcome t ~job:"j" ~job_attempt:1 ~phase:Fi.Map ~task
          ~attempt:1
        <> outcome task 1)
      (List.init 50 Fun.id)
  in
  check_bool "job_attempt re-rolls" true differs

let test_simulate_phase_inactive_exact () =
  let t = Fi.create Fi.default in
  let base_s = 123.456789 in
  let sim =
    Fi.simulate_phase t ~job:"j" ~job_attempt:0 ~phase:Fi.Map ~tasks:7
      ~slots:4 ~base_s
  in
  check_bool "elapsed is exactly base" true (sim.Fi.elapsed_s = base_s);
  check_int "no events" 0 (List.length sim.Fi.events)

let test_simulate_phase_seeds_differ () =
  let sim seed =
    Fi.simulate_phase
      (Fi.create { Fi.default with Fi.seed; task_fail_p = 0.5 })
      ~job:"j" ~job_attempt:0 ~phase:Fi.Map ~tasks:50 ~slots:10 ~base_s:100.0
  in
  check_bool "same seed reproduces" true
    ((sim 1).Fi.elapsed_s = (sim 1).Fi.elapsed_s);
  check_bool "different seeds diverge" true
    ((sim 1).Fi.elapsed_s <> (sim 2).Fi.elapsed_s)

let test_straggler_cost () =
  (* Every attempt straggles. With speculation the duplicate finishes in
     normal time and the original is killed after occupying its slot that
     long (2x work); without it the phase runs at the slowdown factor. *)
  let sim ~speculation =
    Fi.simulate_phase
      (Fi.create
         {
           Fi.default with
           Fi.seed = 1;
           straggler_p = 1.0;
           straggler_slowdown = 3.0;
           speculation;
         })
      ~job:"j" ~job_attempt:0 ~phase:Fi.Reduce ~tasks:10 ~slots:5 ~base_s:50.0
  in
  let spec = sim ~speculation:true in
  check_int "one speculative copy per task" 10 spec.Fi.speculative_launched;
  check_int "losers killed" 10 spec.Fi.attempts_killed;
  Alcotest.(check (float 1e-9)) "speculation doubles the work" 100.0
    spec.Fi.elapsed_s;
  let slow = sim ~speculation:false in
  check_int "no speculative copies" 0 slow.Fi.speculative_launched;
  Alcotest.(check (float 1e-9)) "slowdown factor" 150.0 slow.Fi.elapsed_s

(* --- job-level fault tolerance ------------------------------------------ *)

let faulty_cfg seed =
  { Fi.default with Fi.seed; task_fail_p = 0.2; straggler_p = 0.2 }

let test_transparency_and_cost () =
  let out_h, s_h = Job.run (ctx ~cluster:slow ()) wordcount lines in
  let c = ctx ~cluster:slow ~faults:(faulty_cfg 3) () in
  let out_f, s_f = Job.run c wordcount lines in
  Alcotest.(check (list (pair string int)))
    "faults never change results"
    (List.sort compare out_h) (List.sort compare out_f);
  check_int "same shuffle bytes" s_h.Stats.shuffle_bytes s_f.Stats.shuffle_bytes;
  check_bool "some attempts were injected upon" true
    (s_f.Stats.attempts_failed + s_f.Stats.speculative_launched > 0);
  check_bool "re-work costs simulated time" true
    (s_f.Stats.est_time_s > s_h.Stats.est_time_s)

let test_disabled_faults_identical_times () =
  (* An execution context built with an explicit all-zero fault config
     prices jobs bit-identically to one built with no fault config. *)
  let _, s_plain = Job.run (ctx ~cluster:slow ()) wordcount lines in
  let _, s_cfg =
    Job.run (ctx ~cluster:slow ~faults:Fi.default ()) wordcount lines
  in
  check_bool "est_time_s bit-identical" true
    (s_plain.Stats.est_time_s = s_cfg.Stats.est_time_s);
  check_bool "breakdown bit-identical" true
    (s_plain.Stats.breakdown = s_cfg.Stats.breakdown)

let test_failure_rate_migration () =
  (* The deprecated Cluster.task_failure_rate flat multiplier is gone;
     its replacement — an injector with task_fail_p — prices re-work the
     way the shim used to, on top of the same healthy baseline. *)
  let flaky_cfg =
    { Fi.default with Fi.seed = 3; task_fail_p = 0.3; max_attempts = 100 }
  in
  let _, s_flaky = Job.run (ctx ~cluster:slow ~faults:flaky_cfg ()) wordcount lines in
  let _, s_clean = Job.run (ctx ~cluster:slow ()) wordcount lines in
  check_bool "task-fail prices re-work" true
    (s_flaky.Stats.est_time_s > s_clean.Stats.est_time_s);
  check_bool "attempts_failed counted" true
    (s_flaky.Stats.attempts_failed > 0)

let exhausting_cfg = { Fi.default with Fi.seed = 1; task_fail_p = 0.9; max_attempts = 1 }

let test_exhaustion_raises_job_failed () =
  match Job.run (ctx ~cluster:slow ~faults:exhausting_cfg ()) wordcount lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_string "job name" "wordcount" f.Job.f_job;
    check_bool "attempt count" true (f.Job.f_attempts = 1);
    check_bool "charges partial time" true (f.Job.f_elapsed_s > 0.0)

let test_workflow_abort () =
  let wf = Workflow.create (ctx ~cluster:slow ~faults:exhausting_cfg ()) in
  match Workflow.run_job wf wordcount lines with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Workflow.Aborted a ->
    check_int "no retries configured" 0 a.Workflow.a_resubmissions;
    check_int "nothing completed" 0 a.Workflow.a_completed;
    check_bool "lost time charged" true
      ((Workflow.stats wf).Stats.lost_s > 0.0)

let test_workflow_retry_succeeds () =
  (* With task-fail high enough to kill some submission but retries
     re-rolling the dice, the workflow eventually completes; every lost
     submission's time plus backoff lands in lost_s. *)
  let cfg =
    { Fi.default with Fi.seed = 8; task_fail_p = 0.55; max_attempts = 1;
      job_retries = 10; retry_backoff_s = 2.0; target = Some Fi.Map }
  in
  let c = ctx ~cluster:slow ~faults:cfg () in
  let wf = Workflow.create c in
  let out = Workflow.run_job wf wordcount lines in
  let out_h = fst (Job.run (ctx ~cluster:slow ()) wordcount lines) in
  Alcotest.(check (list (pair string int)))
    "retried job still returns the right answer"
    (List.sort compare out_h) (List.sort compare out);
  let stats = Workflow.stats wf in
  let resubmissions = stats.Stats.lost_submissions in
  check_bool "at least one submission was lost" true (resubmissions > 0);
  check_bool "lost time includes backoff" true
    (stats.Stats.lost_s >= 2.0 *. float_of_int resubmissions);
  check_bool "est includes lost time" true
    (Stats.est_time_s stats > stats.Stats.lost_s)

let test_user_exception_captured () =
  let bomb = { wordcount with
               Job.name = "bomb";
               reduce = (fun k counts ->
                 if k = "beta" then failwith "user bug";
                 [ (k, List.fold_left ( + ) 0 counts) ]) }
  in
  (match Job.run (ctx ()) bomb lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_string "job" "bomb" f.Job.f_job;
    check_bool "reduce phase" true (f.Job.f_phase = Fi.Reduce);
    check_bool "carries the exception text" true
      (contains_sub f.Job.f_reason "user bug"));
  (* Through a workflow it becomes a structured abort, not an escaping
     exception — and retrying a deterministic bug never helps. *)
  let wf =
    Workflow.create
      (ctx ~faults:{ Fi.default with Fi.job_retries = 2 } ())
  in
  match Workflow.run_job wf bomb lines with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Workflow.Aborted a ->
    check_int "burned every retry" 2 a.Workflow.a_resubmissions

let test_lost_s_exact () =
  (* lost_s charges each failed submission's partial runtime plus exactly
     one backoff per resubmission, in submission order. A deterministic
     bomb fails identically every time, so a 2-retry workflow loses
     e + B + e + B + e — computed here by the same left fold the
     workflow's sequential charging performs, and compared bitwise. *)
  let bomb = { wordcount with
               Job.name = "bomb";
               reduce = (fun k counts ->
                 if k = "beta" then failwith "boom";
                 [ (k, List.fold_left ( + ) 0 counts) ]) }
  in
  let e =
    match Job.run (ctx ~cluster:slow ()) bomb lines with
    | _ -> Alcotest.fail "expected Job_failed"
    | exception Job.Job_failed f -> f.Job.f_elapsed_s
  in
  let backoff = 2.5 in
  let cfg =
    { Fi.default with Fi.job_retries = 2; retry_backoff_s = backoff }
  in
  let wf = Workflow.create (ctx ~cluster:slow ~faults:cfg ()) in
  match Workflow.run_job wf bomb lines with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Workflow.Aborted a ->
    check_int "burned both retries" 2 a.Workflow.a_resubmissions;
    let expected =
      List.fold_left ( +. ) 0.0 [ e; backoff; e; backoff; e ]
    in
    let stats = Workflow.stats wf in
    check_bool "lost_s is exactly the submissions plus backoffs" true
      (stats.Stats.lost_s = expected);
    check_bool "nothing completed, so est_time_s is all lost time" true
      (Stats.est_time_s stats = expected)

(* A reduce-side failure is charged from the end of the map side: its
   map-side spill seconds included, since the job's reduce spans start
   after them. *)
let spilling =
  Cluster.with_memory slow
    { Memory.default with Memory.sort_buffer_bytes = 2048 }

let phase_names c =
  List.filter_map
    (fun (e : Trace.event) ->
      match List.assoc_opt "phase" e.Trace.args with
      | Some (Json.String p) -> Some p
      | _ -> None)
    (Trace.spans_with_cat (Exec_ctx.trace c) "phase")

(* The healthy job's seconds up to the end of its map side (startup,
   map-read and spill spans), summed left to right. Its map side spills,
   while its reduce-side merge does not, so [spill_s] is exactly the
   spill span. *)
let map_end_s () =
  let c = ctx ~cluster:spilling () in
  let _, s = Job.run c wordcount lines in
  check_bool "the map side spills, the reduce merge does not" true
    (List.mem "spill" (phase_names c)
    && not (List.mem "merge-spill" (phase_names c)));
  let b = s.Stats.breakdown in
  (s, b.Stats.startup_s +. b.Stats.map_s +. b.Stats.spill_s)

let test_reduce_failure_after_spill () =
  let s, map_end = map_end_s () in
  let b = s.Stats.breakdown in
  let bomb = { wordcount with
               Job.reduce = (fun k counts ->
                 if k = "beta" then failwith "boom";
                 [ (k, List.fold_left ( + ) 0 counts) ]) }
  in
  match Job.run (ctx ~cluster:spilling ()) bomb lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_bool "reduce phase" true (f.Job.f_phase = Fi.Reduce);
    check_bool "charged startup, map-read, spill, shuffle and sort, bitwise"
      true
      (f.Job.f_elapsed_s = map_end +. b.Stats.shuffle_s +. b.Stats.sort_s)

let test_reduce_exhaustion_after_spill () =
  let s, map_end = map_end_s () in
  let b = s.Stats.breakdown in
  let cfg = { exhausting_cfg with Fi.target = Some Fi.Reduce } in
  let sim =
    Fi.simulate_phase (Fi.create cfg) ~job:"wordcount" ~job_attempt:0
      ~phase:Fi.Reduce ~tasks:s.Stats.reduce_tasks
      ~slots:(Cluster.reduce_slots spilling)
      ~base_s:(b.Stats.shuffle_s +. b.Stats.sort_s +. b.Stats.reduce_s)
  in
  check_bool "the reduce phase exhausts" true (sim.Fi.exhausted <> None);
  match Job.run (ctx ~cluster:spilling ~faults:cfg ()) wordcount lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_bool "reduce phase" true (f.Job.f_phase = Fi.Reduce);
    check_bool "charged the map side plus the failed reduce phase, bitwise"
      true
      (f.Job.f_elapsed_s = map_end +. sim.Fi.elapsed_s)

(* --- map-only jobs -------------------------------------------------------- *)

let upper : (string, string) Job.map_only_spec =
  {
    mo_name = "upper";
    mo_map = (fun line -> [ String.uppercase_ascii line ]);
    mo_input_size = String.length;
    mo_output_size = String.length;
  }

let test_map_only_user_exception () =
  (* A throwing map function fails the map-only job deterministically,
     charged its startup plus the fault-free read of its whole input. *)
  let bomb = { upper with
               Job.mo_name = "bomb";
               mo_map = (fun line ->
                 if line = "alpha beta gamma 7" then failwith "map bug";
                 [ line ]) }
  in
  let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0) in
  let input_bytes =
    List.fold_left (fun acc l -> acc + String.length l) 0 lines
  in
  let tasks = Job.estimate_map_tasks slow ~input_bytes in
  let throughput =
    slow.Cluster.disk_mb_per_s
    *. float_of_int (max 1 (min tasks (Cluster.map_slots slow)))
  in
  match Job.run_map_only (ctx ~cluster:slow ()) bomb lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_string "job" "bomb" f.Job.f_job;
    check_bool "map phase" true (f.Job.f_phase = Fi.Map);
    check_bool "deterministic" true f.Job.f_deterministic;
    check_bool "carries the exception text" true
      (contains_sub f.Job.f_reason "map bug");
    check_bool "charged startup plus read, bitwise" true
      (f.Job.f_elapsed_s
      = slow.Cluster.map_only_startup_s +. (mb input_bytes /. throughput))

let test_map_only_exhaustion () =
  let c = ctx ~cluster:slow ~faults:exhausting_cfg () in
  match Job.run_map_only c upper lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_string "job" "upper" f.Job.f_job;
    check_bool "map phase" true (f.Job.f_phase = Fi.Map);
    check_int "attempt count" 1 f.Job.f_attempts;
    check_bool "not deterministic" false f.Job.f_deterministic;
    check_bool "charges more than startup" true
      (f.Job.f_elapsed_s > slow.Cluster.map_only_startup_s)

let test_pp_abort_golden () =
  let a =
    {
      Workflow.a_failure =
        {
          Job.f_job = "composite_join0";
          f_phase = Fi.Map;
          f_task = 3;
          f_attempts = 4;
          f_attempts_failed = 4;
          f_speculative_launched = 0;
          f_attempts_killed = 0;
          f_reason = "injected task-attempt crashes exhausted retries";
          f_elapsed_s = 12.5;
          f_deterministic = false;
        };
      a_resubmissions = 1;
      a_completed = 2;
    }
  in
  check_string "pp_abort golden"
    "workflow aborted: job \"composite_join0\": map task 3 failed 4 \
     attempts: injected task-attempt crashes exhausted retries (1 \
     whole-job resubmission, 2 jobs completed before the abort)"
    (Fmt.str "%a" Workflow.pp_abort a)

(* --- engine-level property ---------------------------------------------- *)

(* 20 fault seeds on a seeded BSBM workload: every engine's result is
   byte-identical to its fault-free run (the transparency invariant end
   to end), and no workflow aborts at these rates. *)
(* Bridge to the session API, keeping the old string-error shape these
   tests match on. *)
let run kind ctx input q =
  Result.map_error Engine.error_message
    (Engine.execute (Engine.prepare kind input) ctx q)

let test_engines_transparent_under_faults () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:11 ~products:30 ()))
  in
  let entries = [ Catalog.find_exn "G1"; Catalog.find_exn "MG1" ] in
  List.iter
    (fun entry ->
      let q = Catalog.parse entry in
      let baselines =
        List.map
          (fun kind ->
            let ctx = Plan_util.context (Plan_util.make ()) in
            match run kind ctx input q with
            | Ok out -> (kind, out.Engine.table)
            | Error msg -> Alcotest.failf "fault-free %s: %s" entry.Catalog.id msg)
          Engine.all_kinds
      in
      for seed = 1 to 20 do
        List.iter
          (fun (kind, base_table) ->
            let cfg =
              { Fi.default with Fi.seed; task_fail_p = 0.15;
                straggler_p = 0.15; job_retries = 3 }
            in
            let ctx = Plan_util.context (Plan_util.make ~faults:cfg ()) in
            match run kind ctx input q with
            | Error msg ->
              Alcotest.failf "%s seed %d %s: %s" entry.Catalog.id seed
                (Engine.kind_name kind) msg
            | Ok out ->
              if not (Relops.same_results base_table out.Engine.table) then
                Alcotest.failf "%s seed %d %s: result diverged under faults"
                  entry.Catalog.id seed (Engine.kind_name kind))
          baselines
      done)
    entries

(* Attempts that crash in a lost submission belong to no completed job,
   yet they are failed attempts: [Stats] counts them in its total. MG1
   on Hive(Naive) loses three submissions here, one crashed attempt
   each, and completes on the fourth. *)
let test_lost_submission_attempts () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:7 ~products:100 ()))
  in
  let faults =
    { Fi.default with Fi.seed = 7; task_fail_p = 0.1; straggler_p = 0.1;
      max_attempts = 1; job_retries = 3 }
  in
  let ctx = Plan_util.context (Plan_util.make ~faults ()) in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  match run Engine.Hive_naive ctx input q with
  | Error msg -> Alcotest.failf "MG1 should complete: %s" msg
  | Ok out ->
    let st = out.Engine.stats in
    let in_jobs =
      List.fold_left (fun acc j -> acc + j.Stats.attempts_failed) 0
        st.Stats.jobs
    in
    check_bool "submissions were lost" true (st.Stats.lost_s > 0.0);
    check_int "three lost submissions" 3 st.Stats.lost_submissions;
    check_int "lost attempts counted" 3
      (Stats.total_attempts_failed st - in_jobs)

(* Replay each lost submission of a completed run through the injector:
   its map phase, plus its reduce phase when the map phase completed. *)
let replay_lost_submissions ctx (st : Stats.t) =
  let cluster = Exec_ctx.cluster ctx in
  let replay ~job ~job_attempt phase ~tasks ~slots =
    Fi.simulate_phase (Exec_ctx.faults ctx) ~job ~job_attempt ~phase ~tasks
      ~slots ~base_s:1.0
  in
  List.map
    (fun (ev : Trace.event) ->
      let job = Filename.dirname ev.Trace.name in
      let job_attempt =
        match List.assoc "submission" ev.Trace.args with
        | Json.Int a -> a
        | _ -> Alcotest.fail "abort span without a submission"
      in
      let j = List.find (fun j -> j.Stats.name = job) st.Stats.jobs in
      let map =
        replay ~job ~job_attempt Fi.Map ~tasks:j.Stats.map_tasks
          ~slots:(Cluster.map_slots cluster)
      in
      match map.Fi.exhausted with
      | Some _ -> (map, None)
      | None ->
        ( map,
          Some
            (replay ~job ~job_attempt Fi.Reduce ~tasks:j.Stats.reduce_tasks
               ~slots:(Cluster.reduce_slots cluster)) ))
    (List.filter
       (fun (ev : Trace.event) -> Filename.basename ev.Trace.name = "failed")
       (Trace.spans_with_cat (Exec_ctx.trace ctx) "abort"))

(* The sum of [f] over every replayed phase of the lost submissions. *)
let sum_lost f lost =
  List.fold_left
    (fun acc (map, reduce) ->
      acc + f map + Option.fold ~none:0 ~some:f reduce)
    0 lost

let sum_jobs f (st : Stats.t) =
  List.fold_left (fun acc j -> acc + f j) 0 st.Stats.jobs

(* A submission lost in its reduce phase also lost its map phase's
   crashed attempts. MG1 on Hive(Naive) loses three sq0_groupby
   submissions in reduce here, one after a crashed map attempt. *)
let test_lost_map_side_attempts () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:7 ~products:100 ()))
  in
  let faults =
    { Fi.default with Fi.seed = 3; task_fail_p = 0.3; max_attempts = 2;
      job_retries = 5 }
  in
  let ctx = Plan_util.context (Plan_util.make ~faults ()) in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  match run Engine.Hive_naive ctx input q with
  | Error msg -> Alcotest.failf "MG1 should complete: %s" msg
  | Ok out ->
    let st = out.Engine.stats in
    let lost = replay_lost_submissions ctx st in
    let lost_after_map =
      List.fold_left
        (fun acc (map, reduce) ->
          if reduce = None then acc else acc + map.Fi.attempts_failed)
        0 lost
    in
    check_int "three lost submissions" 3 st.Stats.lost_submissions;
    check_int "a map-side crash preceded a reduce-side loss" 1 lost_after_map;
    check_int "lost attempts are the lost submissions' crashes"
      (sum_lost (fun sim -> sim.Fi.attempts_failed) lost)
      (Stats.total_attempts_failed st
      - sum_jobs (fun j -> j.Stats.attempts_failed) st)

(* Lost submissions also launch speculative attempts and kill the
   losers of each race; the totals count them as they count the lost
   crashes. MG1 on RAPIDAnalytics loses five submissions to crashes
   among stragglers here. *)
let test_lost_races () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:7 ~products:100 ()))
  in
  let faults =
    { Fi.default with Fi.seed = 3; task_fail_p = 0.3; straggler_p = 0.3;
      max_attempts = 2; job_retries = 5 }
  in
  let ctx = Plan_util.context (Plan_util.make ~faults ()) in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  match run Engine.Rapid_analytics ctx input q with
  | Error msg -> Alcotest.failf "MG1 should complete: %s" msg
  | Ok out ->
    let st = out.Engine.stats in
    let lost = replay_lost_submissions ctx st in
    check_int "five lost submissions" 5 (List.length lost);
    let launched = sum_lost (fun sim -> sim.Fi.speculative_launched) lost in
    check_bool "the lost submissions raced" true (launched > 0);
    check_int "lost speculative attempts are counted" launched
      (Stats.total_speculative_launched st
      - sum_jobs (fun j -> j.Stats.speculative_launched) st);
    check_int "lost killed attempts are counted"
      (sum_lost (fun sim -> sim.Fi.attempts_killed) lost)
      (Stats.total_attempts_killed st
      - sum_jobs (fun j -> j.Stats.attempts_killed) st)

let suite =
  [
    Alcotest.test_case "parse spec" `Quick test_parse_spec;
    Alcotest.test_case "parse spec errors" `Quick test_parse_spec_errors;
    Alcotest.test_case "deterministic outcomes" `Quick test_outcome_deterministic;
    Alcotest.test_case "inactive injector is exact" `Quick
      test_simulate_phase_inactive_exact;
    Alcotest.test_case "seeds diverge" `Quick test_simulate_phase_seeds_differ;
    Alcotest.test_case "straggler cost model" `Quick test_straggler_cost;
    Alcotest.test_case "transparency and cost" `Quick test_transparency_and_cost;
    Alcotest.test_case "disabled faults identical times" `Quick
      test_disabled_faults_identical_times;
    Alcotest.test_case "failure-rate migration" `Quick
      test_failure_rate_migration;
    Alcotest.test_case "exhaustion raises Job_failed" `Quick
      test_exhaustion_raises_job_failed;
    Alcotest.test_case "workflow abort" `Quick test_workflow_abort;
    Alcotest.test_case "workflow retry succeeds" `Quick
      test_workflow_retry_succeeds;
    Alcotest.test_case "user exception captured" `Quick
      test_user_exception_captured;
    Alcotest.test_case "lost_s charges backoff exactly once per retry" `Quick
      test_lost_s_exact;
    Alcotest.test_case "reduce failure charged after map-side spill" `Quick
      test_reduce_failure_after_spill;
    Alcotest.test_case "reduce exhaustion charged after map-side spill" `Quick
      test_reduce_exhaustion_after_spill;
    Alcotest.test_case "map-only user exception" `Quick
      test_map_only_user_exception;
    Alcotest.test_case "map-only exhaustion" `Quick test_map_only_exhaustion;
    Alcotest.test_case "pp_abort golden" `Quick test_pp_abort_golden;
    Alcotest.test_case "lost submissions' attempts in Stats" `Quick
      test_lost_submission_attempts;
    Alcotest.test_case "lost submissions' map-side attempts" `Quick
      test_lost_map_side_attempts;
    Alcotest.test_case "lost submissions' races in Stats" `Quick
      test_lost_races;
    Alcotest.test_case "engines transparent under faults" `Slow
      test_engines_transparent_under_faults;
  ]
