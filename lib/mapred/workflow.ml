let log_src = Logs.Src.create "rapida.mapred" ~doc:"MapReduce simulator jobs"

module Log = (val Logs.src_log log_src)

type t = {
  ctx : Exec_ctx.t;
  mutable stats : Stats.t;
  ckpt : Checkpoint.manager;
}

type abort = {
  a_failure : Job.failure;
  a_resubmissions : int;
  a_completed : int;
}

exception Aborted of abort

let pp_abort ppf a =
  Fmt.pf ppf
    "workflow aborted: %a (%d whole-job resubmission%s, %d job%s completed \
     before the abort)"
    Job.pp_failure a.a_failure a.a_resubmissions
    (if a.a_resubmissions = 1 then "" else "s")
    a.a_completed
    (if a.a_completed = 1 then "" else "s")

let abort_to_json a =
  let f = a.a_failure in
  Json.Obj
    [
      ("job", Json.String f.Job.f_job);
      ("phase", Json.String (Fault_injector.phase_name f.Job.f_phase));
      ("task", Json.Int f.Job.f_task);
      ("attempts", Json.Int f.Job.f_attempts);
      ("attempts_failed", Json.Int f.Job.f_attempts_failed);
      ("reason", Json.String f.Job.f_reason);
      ("elapsed_s", Json.Float f.Job.f_elapsed_s);
      ("deterministic", Json.Bool f.Job.f_deterministic);
      ("resubmissions", Json.Int a.a_resubmissions);
      ("completed", Json.Int a.a_completed);
    ]

let create ctx =
  {
    ctx;
    stats = Stats.empty;
    ckpt = Checkpoint.manager (Exec_ctx.checkpoint ctx);
  }

let ctx t = t.ctx
let cluster t = Exec_ctx.cluster t.ctx

(* Safety valve: with recovery active a workflow keeps resubmitting
   until it completes; independent fault dice make eventual success
   certain, but a pathological configuration should fail loudly rather
   than loop. Far above anything a real sweep reaches. *)
let max_recoveries = 1000

(* Run one job submission with Hadoop-style whole-job resubmission: a
   [Job_failed] charges the doomed submission's partial runtime as lost
   time, then (while retries remain) waits out the backoff and resubmits
   with a bumped attempt number, re-rolling every injected fault
   decision. Out of retries, a checkpoint-disabled workflow aborts;
   under any active checkpoint policy it instead replays the completed
   jobs since the last checkpoint (charging their recorded simulated
   time to [Stats.replayed_s]) and keeps resubmitting — degrade but
   complete. Deterministic failures (user exceptions, poison beyond the
   skip tolerance) recur identically on every resubmission, so they
   abort even with recovery active. *)
let run_with_retries t name run =
  let cfg = Fault_injector.config (Exec_ctx.faults t.ctx) in
  let ckpt_cfg = Checkpoint.config t.ckpt in
  let trace = Exec_ctx.trace t.ctx in
  let charge_backoff next_submission =
    let backoff = cfg.Fault_injector.retry_backoff_s in
    if backoff > 0.0 then begin
      Trace.span trace ~name:(name ^ "/backoff") ~cat:"abort"
        ~start_s:(Trace.now_s trace) ~dur_s:backoff
        [ ("next_submission", Json.Int next_submission) ];
      Trace.advance trace backoff;
      t.stats <- Stats.charge_backoff t.stats backoff
    end
  in
  let rec go attempt =
    match run ~attempt with
    | output, job_stats ->
      Log.debug (fun m -> m "%a" Stats.pp_job job_stats);
      t.stats <- Stats.append t.stats job_stats;
      (match
         Checkpoint.note_success t.ckpt ~cluster:(Exec_ctx.cluster t.ctx)
           job_stats
       with
      | None -> ()
      | Some d ->
        Trace.span trace ~name:(name ^ "/checkpoint") ~cat:"checkpoint"
          ~start_s:(Trace.now_s trace) ~dur_s:d.Checkpoint.ck_cost_s
          [
            ("bytes", Json.Int d.Checkpoint.ck_bytes);
            ("replication", Json.Int ckpt_cfg.Checkpoint.replication);
          ];
        Trace.advance trace d.Checkpoint.ck_cost_s;
        t.stats <-
          Stats.charge_checkpoint t.stats ~bytes:d.Checkpoint.ck_bytes
            d.Checkpoint.ck_cost_s);
      output
    | exception Job.Job_failed f ->
      Log.warn (fun m ->
          m "submission %d of %S lost: %a" attempt name Job.pp_failure f);
      Trace.span trace ~name:(name ^ "/failed") ~cat:"abort"
        ~start_s:(Trace.now_s trace) ~dur_s:f.Job.f_elapsed_s
        [
          ("submission", Json.Int attempt);
          ("reason", Json.String f.Job.f_reason);
        ];
      Trace.advance trace f.Job.f_elapsed_s;
      t.stats <-
        Stats.charge_lost t.stats ~attempts_failed:f.Job.f_attempts_failed
          ~speculative_launched:f.Job.f_speculative_launched
          ~attempts_killed:f.Job.f_attempts_killed f.Job.f_elapsed_s;
      if attempt < cfg.Fault_injector.job_retries then begin
        charge_backoff (attempt + 1);
        go (attempt + 1)
      end
      else if
        Checkpoint.active ckpt_cfg
        && (not f.Job.f_deterministic)
        && t.stats.Stats.recoveries < max_recoveries
      then begin
        (* Recovery: the workflow restarts from the last materialized
           output, re-running the completed jobs since then. Their
           recorded simulated time is charged as replay; the real
           results are deterministic and already in memory, so only the
           clock moves. *)
        let jobs, replay_s = Checkpoint.replay t.ckpt in
        t.stats <- Stats.charge_replay t.stats ~jobs replay_s;
        Log.warn (fun m ->
            m "recovering %S: replaying %d job%s (%.1f s) since the last \
               checkpoint"
              name jobs
              (if jobs = 1 then "" else "s")
              replay_s);
        Trace.span trace ~name:(name ^ "/replay") ~cat:"replay"
          ~start_s:(Trace.now_s trace) ~dur_s:replay_s
          [
            ("jobs", Json.Int jobs);
            ("recovery", Json.Int t.stats.Stats.recoveries);
          ];
        Trace.advance trace replay_s;
        charge_backoff (attempt + 1);
        go (attempt + 1)
      end
      else
        raise
          (Aborted
             {
               a_failure = f;
               a_resubmissions = attempt;
               a_completed = Stats.cycles t.stats;
             })
  in
  go 0

let run_job t spec input =
  run_with_retries t spec.Job.name (fun ~attempt ->
      Job.run ~attempt t.ctx spec input)

let run_map_only t spec input =
  run_with_retries t spec.Job.mo_name (fun ~attempt ->
      Job.run_map_only ~attempt t.ctx spec input)

let stats t = t.stats

let note_mapjoin_fallback t =
  t.stats <-
    { t.stats with mapjoin_fallbacks = t.stats.Stats.mapjoin_fallbacks + 1 }

let note_agj_ht_bytes t bytes =
  t.stats <-
    { t.stats with agj_ht_bytes = max t.stats.Stats.agj_ht_bytes bytes }
