(** A workflow is a sequence of MapReduce jobs executed by one query plan.
    It runs against an {!Exec_ctx.t} (cluster model, trace) and keeps the
    plan's {!Stats.t}. *)

(** Logs source for per-job debug lines (enable with
    [Logs.Src.set_level]). *)
val log_src : Logs.src

type t

(** A workflow that ran out of whole-job resubmissions (see
    {!Fault_injector.config}[.job_retries]) aborts. [a_resubmissions] is
    the number of failed submissions beyond the first; [a_completed] is
    how many jobs of the workflow finished before the abort. The time of
    every lost submission (plus retry backoff) is charged to
    {!Stats.field-lost_s}.

    With any {!Checkpoint} policy active, [Aborted] is reserved for
    {e deterministic} failures (a user function raising, poison records
    beyond the skip tolerance — see {!Job.failure.f_deterministic});
    every other failure recovers from the last checkpoint instead. *)
type abort = {
  a_failure : Job.failure;
  a_resubmissions : int;
  a_completed : int;
}

exception Aborted of abort

val pp_abort : abort Fmt.t

(** [abort_to_json a] is [a] as one JSON object: the failed job, its
    phase and task, the task's attempts, every crashed attempt of the
    lost submission, the reason, the seconds it ran, whether the failure
    is deterministic, then the resubmission and completed-job counts. *)
val abort_to_json : abort -> Json.t

val create : Exec_ctx.t -> t

(** The execution context the workflow runs against. *)
val ctx : t -> Exec_ctx.t

(** Shorthand for [Exec_ctx.cluster (ctx t)]. *)
val cluster : t -> Cluster.t

(** [run_job wf spec input] executes a full map-reduce cycle, recording its
    stats in [wf] and its spans in the context's trace. A {!Job.Job_failed}
    submission is resubmitted up to the context's
    {!Fault_injector.config}[.job_retries] times (charging lost time and
    backoff), then the workflow aborts.

    Under an active {!Checkpoint} policy (see {!Exec_ctx.checkpoint})
    the workflow instead degrades but completes: each successful job may
    checkpoint its output (a [checkpoint] trace span, priced into
    {!Stats.field-checkpoint_s}), and a submission that exhausts its retries
    on a non-deterministic failure replays the completed jobs since the
    last checkpoint (a [replay] span, {!Stats.field-replayed_s}), backs off,
    and resubmits with fresh fault dice — never raising {!Aborted}.
    Replay is pure time accounting: the replayed jobs' results are
    deterministic and already computed, so the answer is byte-identical
    to a healthy run.

    @raise Aborted *)
val run_job : t -> ('a, 'k, 'v, 'b) Job.spec -> 'a list -> 'b list

(** [run_map_only wf spec input] executes a map-only cycle, with the same
    resubmission-then-abort behaviour as {!run_job}.

    @raise Aborted *)
val run_map_only : t -> ('a, 'b) Job.map_only_spec -> 'a list -> 'b list

(** Stats of all jobs run so far, in order. *)
val stats : t -> Stats.t

(** The planner's memory notes: one more {!Stats.field-mapjoin_fallbacks},
    and an Agg-Join cycle's hash-table estimate for the largest
    {!Stats.field-agj_ht_bytes}. *)
val note_mapjoin_fallback : t -> unit
val note_agj_ht_bytes : t -> int -> unit
