(* Checkpointed workflow recovery and bad-record skip mode: spec
   parsing, checkpoint pricing, degrade-but-complete recovery, the
   engine-level invariant that results are byte-identical under every
   policy/fault configuration, and Hadoop-style poison-record skipping.

   The robustness layers shape simulated time and counters only — the
   real in-memory computation runs once and every test here pins that
   down. *)

module Cluster = Rapida_mapred.Cluster
module Exec_ctx = Rapida_mapred.Exec_ctx
module Fi = Rapida_mapred.Fault_injector
module Ck = Rapida_mapred.Checkpoint
module Job = Rapida_mapred.Job
module Stats = Rapida_mapred.Stats
module Workflow = Rapida_mapred.Workflow
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops

(* Bridge to the session API, keeping the old string-error shape these
   tests match on. *)
let run_engine kind ctx input q =
  Result.map_error Engine.error_message
    (Engine.execute (Engine.prepare kind input) ctx q)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ctx ?cluster ?faults ?checkpoint () =
  let cluster = Option.value ~default:Cluster.default cluster in
  let faults = Option.map Fi.create faults in
  Exec_ctx.create ~cluster ?faults ?checkpoint ()

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

(* --- spec parsing ------------------------------------------------------- *)

let test_parse_spec () =
  (match Ck.parse_spec "every=2" with
  | Ok cfg ->
    check_bool "every=2" true (cfg.Ck.policy = Ck.Every_k 2);
    check_int "default replication" 3 cfg.Ck.replication
  | Error msg -> Alcotest.fail msg);
  (match Ck.parse_spec "adaptive=64m,replication=2" with
  | Ok cfg ->
    check_bool "adaptive bytes" true
      (cfg.Ck.policy = Ck.Adaptive (64 * 1024 * 1024));
    check_int "replication" 2 cfg.Ck.replication
  | Error msg -> Alcotest.fail msg);
  (match Ck.parse_spec "never" with
  | Ok cfg -> check_bool "never" false (Ck.active cfg)
  | Error msg -> Alcotest.fail msg);
  (match Ck.parse_spec "every=3,adaptive=1k" with
  | Ok cfg ->
    (* later policy keys override earlier ones *)
    check_bool "last policy wins" true (cfg.Ck.policy = Ck.Adaptive 1024)
  | Error msg -> Alcotest.fail msg);
  (match Ck.parse_spec " every = 2 , replication=2 , never " with
  | Ok cfg ->
    check_bool "padded bare word" false (Ck.active cfg);
    check_int "padded replication" 2 cfg.Ck.replication
  | Error msg -> Alcotest.fail msg);
  match Ck.parse_spec "adaptive=3G" with
  | Ok cfg ->
    check_bool "upper G" true
      (cfg.Ck.policy = Ck.Adaptive (3 * 1024 * 1024 * 1024))
  | Error msg -> Alcotest.fail msg

let test_parse_spec_errors () =
  (* Format errors carry the flag's prefix; range errors (a zero
     adaptive budget included) come from [Checkpoint.create]. *)
  let expect_error (spec, prefix) =
    match Ck.parse_spec spec with
    | Ok _ -> Alcotest.failf "%S should not parse" spec
    | Error msg ->
      check_bool
        (Printf.sprintf "%S: %S starts with %S" spec msg prefix)
        true
        (String.starts_with ~prefix msg && not (String.contains msg '\n'))
  in
  List.iter expect_error
    [
      ("every=x", "--checkpoint: every expects an integer, got \"x\"");
      ("adaptive=-4k", "--checkpoint: adaptive expects a size");
      ("bogus=1", "--checkpoint: unknown key \"bogus\"");
      ("every", "--checkpoint: expected key=value, got \"every\"");
      (" always ", "--checkpoint: expected key=value, got \"always\"");
      ("every=0", "Checkpoint.create:");
      ("adaptive=0", "Checkpoint.create: adaptive budget");
      ("replication=0", "Checkpoint.create:");
    ]

(* --- manager pricing ---------------------------------------------------- *)

let synthetic_job ?(output_bytes = 2 * 1024 * 1024) ?(est_time_s = 10.0) name =
  {
    Stats.name;
    kind = Stats.Map_reduce;
    input_records = 0;
    input_bytes = 0;
    shuffle_records = 0;
    shuffle_bytes = 0;
    output_records = 0;
    output_bytes;
    map_tasks = 8;
    reduce_tasks = 4;
    est_time_s;
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

let test_manager_never () =
  let m = Ck.manager Ck.default in
  for i = 1 to 5 do
    check_bool "never checkpoints" true
      (Ck.note_success m ~cluster:Cluster.default
         (synthetic_job (Printf.sprintf "j%d" i))
      = None)
  done;
  check_bool "nothing pending under Never" true (Ck.replay m = (0, 0.0))

let test_manager_every_k () =
  let m = Ck.manager { Ck.policy = Ck.Every_k 2; replication = 3 } in
  let j1 = synthetic_job ~est_time_s:10.0 "j1" in
  let j2 = synthetic_job ~est_time_s:20.0 "j2" in
  check_bool "first job rides" true
    (Ck.note_success m ~cluster:Cluster.default j1 = None);
  check_bool "uncheckpointed suffix accumulates" true
    (Ck.replay m = (1, 10.0));
  (match Ck.note_success m ~cluster:Cluster.default j2 with
  | None -> Alcotest.fail "second job should checkpoint"
  | Some d ->
    check_int "payload is the checkpointed job's output" j2.Stats.output_bytes
      d.Ck.ck_bytes;
    (* replication copies at disk bandwidth, spread over the job's
       reduce tasks (the writers) *)
    let expected =
      3.0
      *. (float_of_int j2.Stats.output_bytes /. (1024.0 *. 1024.0))
      /. (Cluster.default.Cluster.disk_mb_per_s *. 4.0)
    in
    check_bool "cost formula exact" true (d.Ck.ck_cost_s = expected));
  check_bool "checkpoint clears the pending suffix" true
    (Ck.replay m = (0, 0.0));
  check_bool "next job pends again" true
    (Ck.note_success m ~cluster:Cluster.default j1 = None);
  check_bool "replay does not reset" true
    (Ck.replay m = (1, 10.0) && Ck.replay m = (1, 10.0))

let test_manager_adaptive () =
  let budget = 3 * 1024 * 1024 in
  let m = Ck.manager { Ck.policy = Ck.Adaptive budget; replication = 1 } in
  let j = synthetic_job ~output_bytes:(2 * 1024 * 1024) "j" in
  check_bool "2MB under a 3MB budget rides" true
    (Ck.note_success m ~cluster:Cluster.default j = None);
  check_bool "4MB accumulated crosses the budget" true
    (Ck.note_success m ~cluster:Cluster.default j <> None);
  check_bool "reset after checkpoint" true (Ck.replay m = (0, 0.0))

(* --- workflow pricing and recovery -------------------------------------- *)

(* Checkpointing a fault-free workflow adds exactly the checkpoint cost
   and nothing else: est = never_est +. checkpoint_s, bitwise. *)
let test_checkpoint_pricing_end_to_end () =
  let run checkpoint =
    let wf = Workflow.create (ctx ?checkpoint ()) in
    let out = Workflow.run_job wf wordcount lines in
    (out, Workflow.stats wf)
  in
  let out_n, s_n = run None in
  let out_c, s_c =
    run (Some { Ck.policy = Ck.Every_k 1; replication = 3 })
  in
  Alcotest.(check (list (pair string int)))
    "checkpointing never changes results"
    (List.sort compare out_n) (List.sort compare out_c);
  check_int "one checkpoint written" 1 s_c.Stats.checkpoints_written;
  check_bool "payload recorded" true (s_c.Stats.checkpoint_bytes > 0);
  check_bool "checkpoint costs time" true (s_c.Stats.checkpoint_s > 0.0);
  check_bool "est = never est + checkpoint_s, bitwise" true
    (Stats.est_time_s s_c = Stats.est_time_s s_n +. s_c.Stats.checkpoint_s);
  check_bool "disabled checkpointing is bit-identical" true
    (Stats.est_time_s (snd (run (Some Ck.default))) = Stats.est_time_s s_n)

(* Retries exhausted under an active policy: the workflow recovers and
   completes instead of aborting, replaying the uncheckpointed suffix. *)
let test_workflow_recovers_and_completes () =
  let cfg =
    { Fi.default with Fi.seed = 1; task_fail_p = 0.5; max_attempts = 2 }
  in
  let c =
    ctx ~faults:cfg
      ~checkpoint:{ Ck.policy = Ck.Adaptive max_int; replication = 3 }
      ()
  in
  let wf = Workflow.create c in
  let wc_a = { wordcount with Job.name = "first" } in
  let wc_b = { wordcount with Job.name = "second" } in
  let out_a = Workflow.run_job wf wc_a lines in
  let out_b = Workflow.run_job wf wc_b lines in
  let healthy = fst (Job.run (ctx ()) wordcount lines) in
  Alcotest.(check (list (pair string int)))
    "recovered workflow returns the right first answer"
    (List.sort compare healthy) (List.sort compare out_a);
  Alcotest.(check (list (pair string int)))
    "recovered workflow returns the right second answer"
    (List.sort compare healthy) (List.sort compare out_b);
  let stats = Workflow.stats wf in
  check_bool "at these rates the workflow must have recovered" true
    (stats.Stats.recoveries > 0);
  check_bool "second job's recoveries replay the first job" true
    (stats.Stats.replayed_s > 0.0 && stats.Stats.recovered_jobs > 0);
  check_bool "replay is charged into the total" true
    (Stats.est_time_s stats >= stats.Stats.replayed_s +. stats.Stats.lost_s)

(* The same configuration without a policy aborts — recovery is what
   turned the abort into completion. *)
let test_never_policy_still_aborts () =
  let cfg =
    { Fi.default with Fi.seed = 1; task_fail_p = 0.9; max_attempts = 1 }
  in
  let wf = Workflow.create (ctx ~faults:cfg ()) in
  match Workflow.run_job wf wordcount lines with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Workflow.Aborted a ->
    check_bool "abort carries the failure" true
      (a.Workflow.a_failure.Job.f_job = "wordcount")

(* 20 fault seeds x 4 engines x active policies on a seeded BSBM
   workload: every run completes (no aborts with recovery on), results
   are byte-identical to the fault-free run, and a checkpoint-rich
   policy never replays more than the whole-plan-resubmission reference
   (strictly less whenever the reference replays anything). *)
let test_engines_identical_under_recovery () =
  let input =
    Engine.input_of_graph
      Rapida_datagen.Bsbm.(generate (config ~seed:11 ~products:30 ()))
  in
  let entry = Catalog.find_exn "MG1" in
  let q = Catalog.parse entry in
  let run kind seed policy =
    let cfg =
      { Fi.default with Fi.seed; task_fail_p = 0.3; max_attempts = 2 }
    in
    let ctx =
      Plan_util.context
        (Plan_util.make ~faults:cfg
           ~checkpoint:{ Ck.default with Ck.policy } ())
    in
    run_engine kind ctx input q
  in
  let baselines =
    List.map
      (fun kind ->
        match
          run_engine kind (Plan_util.context (Plan_util.make ())) input q
        with
        | Ok out -> (kind, out.Engine.table)
        | Error msg -> Alcotest.failf "fault-free %s failed: %s"
                         (Engine.kind_name kind) msg)
      Engine.all_kinds
  in
  let nonvacuous = ref 0 in
  for seed = 1 to 20 do
    List.iter
      (fun (kind, base_table) ->
        let whole =
          match run kind seed (Ck.Adaptive max_int) with
          | Error msg ->
            Alcotest.failf "seed %d %s whole-plan: aborted despite recovery: %s"
              seed (Engine.kind_name kind) msg
          | Ok out ->
            if not (Relops.same_results base_table out.Engine.table) then
              Alcotest.failf "seed %d %s whole-plan: result diverged" seed
                (Engine.kind_name kind);
            out.Engine.stats.Stats.replayed_s
        in
        match run kind seed (Ck.Every_k 1) with
        | Error msg ->
          Alcotest.failf "seed %d %s every-1: aborted despite recovery: %s"
            seed (Engine.kind_name kind) msg
        | Ok out ->
          if not (Relops.same_results base_table out.Engine.table) then
            Alcotest.failf "seed %d %s every-1: result diverged" seed
              (Engine.kind_name kind);
          let replayed = out.Engine.stats.Stats.replayed_s in
          if whole > 0.0 then begin
            incr nonvacuous;
            if not (replayed < whole) then
              Alcotest.failf
                "seed %d %s: every-1 replayed %.3fs, whole-plan %.3fs" seed
                (Engine.kind_name kind) replayed whole
          end
          else if not (replayed <= whole) then
            Alcotest.failf "seed %d %s: replay without recoveries" seed
              (Engine.kind_name kind))
      baselines
  done;
  check_bool "property exercised actual whole-plan replays" true
    (!nonvacuous > 0)

(* --- bad-record skip mode ----------------------------------------------- *)

let test_poison_deterministic () =
  let t = Fi.create { Fi.default with Fi.seed = 5; poison_p = 0.05 } in
  check_bool "poison decisions are stable" true
    (List.init 200 (fun r -> Fi.poisoned t ~job:"j" ~record:r)
    = List.init 200 (fun r -> Fi.poisoned t ~job:"j" ~record:r));
  check_bool "some record is poisoned at p=0.05 over 200" true
    (List.exists
       (fun r -> Fi.poisoned t ~job:"j" ~record:r)
       (List.init 200 Fun.id));
  check_bool "different jobs poison different records" true
    (List.init 200 (fun r -> Fi.poisoned t ~job:"j" ~record:r)
    <> List.init 200 (fun r -> Fi.poisoned t ~job:"k" ~record:r))

(* Find a seed that poisons at least one of our 60 input records of
   [job], so the skip-mode tests below are never vacuous. *)
let first_poison_seed job =
  let poisons seed =
    let t = Fi.create { Fi.default with Fi.seed; poison_p = 0.05 } in
    List.exists
      (fun r -> Fi.poisoned t ~job ~record:r)
      (List.init (List.length lines) Fun.id)
  in
  let rec find seed =
    if seed > 100 then Alcotest.fail "no poisoning seed in 1..100"
    else if poisons seed then seed
    else find (seed + 1)
  in
  find 1

let poison_seed = lazy (first_poison_seed "wordcount")

let test_skip_within_tolerance () =
  let seed = Lazy.force poison_seed in
  let cfg =
    { Fi.default with Fi.seed = seed; poison_p = 0.05; skip_max_records = 10 }
  in
  let out_h, s_h = Job.run (ctx ()) wordcount lines in
  let c = ctx ~faults:cfg () in
  let out_p, s_p = Job.run c wordcount lines in
  Alcotest.(check (list (pair string int)))
    "skip mode never changes results"
    (List.sort compare out_h) (List.sort compare out_p);
  check_bool "poison records were skipped" true (s_p.Stats.skipped_records > 0);
  check_bool "skipping costs simulated time" true
    (s_p.Stats.est_time_s > s_h.Stats.est_time_s);
  check_int "counter surfaced" s_p.Stats.skipped_records
    (List.assoc "mr.skipped_records"
       (Stats.counters (Stats.append Stats.empty s_p)))

let test_poison_beyond_tolerance_fails () =
  let seed = Lazy.force poison_seed in
  let cfg = { Fi.default with Fi.seed = seed; poison_p = 0.05 } in
  (* skip_max_records = 0 (the default): skip mode off, any poison is
     fatal, and the failure is deterministic — retries never help. *)
  match Job.run (ctx ~faults:cfg ()) wordcount lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_bool "typed reason" true (contains_sub f.Job.f_reason "skip");
    check_bool "deterministic failure" true f.Job.f_deterministic

let test_poison_aborts_despite_checkpointing () =
  let seed = Lazy.force poison_seed in
  let cfg = { Fi.default with Fi.seed = seed; poison_p = 0.05 } in
  let wf =
    Workflow.create
      (ctx ~faults:cfg
         ~checkpoint:{ Ck.policy = Ck.Every_k 1; replication = 3 }
         ())
  in
  match Workflow.run_job wf wordcount lines with
  | _ -> Alcotest.fail "expected Aborted"
  | exception Workflow.Aborted a ->
    check_bool "deterministic failures abort even with recovery on" true
      a.Workflow.a_failure.Job.f_deterministic

(* Map-only jobs run the same skip mode on their map tasks. *)
let upper : (string, string) Job.map_only_spec =
  {
    mo_name = "upper";
    mo_map = (fun line -> [ String.uppercase_ascii line ]);
    mo_input_size = String.length;
    mo_output_size = String.length;
  }

let test_map_only_skip_within_tolerance () =
  let cfg =
    { Fi.default with Fi.seed = first_poison_seed "upper"; poison_p = 0.05;
      skip_max_records = 10 }
  in
  let out_h, s_h = Job.run_map_only (ctx ()) upper lines in
  let c = ctx ~faults:cfg () in
  let out_p, s_p = Job.run_map_only c upper lines in
  Alcotest.(check (list string)) "skip mode never changes results" out_h out_p;
  check_bool "poison records were skipped" true (s_p.Stats.skipped_records > 0);
  check_bool "skipping costs simulated time" true
    (s_p.Stats.est_time_s > s_h.Stats.est_time_s);
  check_int "counter surfaced" s_p.Stats.skipped_records
    (List.assoc "mr.skipped_records"
       (Stats.counters (Stats.append Stats.empty s_p)))

let test_map_only_poison_beyond_tolerance_fails () =
  let cfg =
    { Fi.default with Fi.seed = first_poison_seed "upper"; poison_p = 0.05 }
  in
  match Job.run_map_only (ctx ~faults:cfg ()) upper lines with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Job.Job_failed f ->
    check_bool "map phase" true (f.Job.f_phase = Fi.Map);
    check_bool "typed reason" true (contains_sub f.Job.f_reason "skip");
    check_bool "deterministic failure" true f.Job.f_deterministic

let suite =
  [
    Alcotest.test_case "parse spec" `Quick test_parse_spec;
    Alcotest.test_case "parse spec errors" `Quick test_parse_spec_errors;
    Alcotest.test_case "manager: never" `Quick test_manager_never;
    Alcotest.test_case "manager: every-k" `Quick test_manager_every_k;
    Alcotest.test_case "manager: adaptive" `Quick test_manager_adaptive;
    Alcotest.test_case "checkpoint pricing end to end" `Quick
      test_checkpoint_pricing_end_to_end;
    Alcotest.test_case "workflow recovers and completes" `Quick
      test_workflow_recovers_and_completes;
    Alcotest.test_case "never policy still aborts" `Quick
      test_never_policy_still_aborts;
    Alcotest.test_case "engines identical under recovery" `Slow
      test_engines_identical_under_recovery;
    Alcotest.test_case "poison decisions deterministic" `Quick
      test_poison_deterministic;
    Alcotest.test_case "skip within tolerance" `Quick
      test_skip_within_tolerance;
    Alcotest.test_case "poison beyond tolerance fails" `Quick
      test_poison_beyond_tolerance_fails;
    Alcotest.test_case "poison aborts despite checkpointing" `Quick
      test_poison_aborts_despite_checkpointing;
    Alcotest.test_case "map-only skip within tolerance" `Quick
      test_map_only_skip_within_tolerance;
    Alcotest.test_case "map-only poison beyond tolerance fails" `Quick
      test_map_only_poison_beyond_tolerance_fails;
  ]
