(** Per-job and per-workflow statistics: the simulator's one ledger,
    which {!counters} renders as [query --json]'s named counters. *)

type job_kind = Map_reduce | Map_only

(** Where a job's simulated time goes. All phase times include the
    failure-retry re-work, so
    [startup_s + map_s + shuffle_s + sort_s + reduce_s + spill_s
    = est_time_s]
    (up to float rounding). Map-only jobs charge all their I/O to
    [map_s]. *)
type breakdown = {
  startup_s : float;  (** fixed per-cycle scheduling/JVM cost *)
  map_s : float;  (** map-phase read (and, map-only, write) I/O *)
  shuffle_s : float;  (** network transfer of the shuffle *)
  sort_s : float;  (** merge sort of the shuffled pairs *)
  reduce_s : float;  (** reduce output write *)
  spill_s : float;
      (** memory-pressure surcharge: external-sort spill passes on the
          map and reduce sides, plus attempts wasted to OOM kills; 0.0
          under the default (generous) {!Memory.default} budget *)
}

val breakdown_zero : breakdown

(** Sum of every phase including startup. *)
val breakdown_total_s : breakdown -> float

type job = {
  name : string;
  kind : job_kind;
  input_records : int;
  input_bytes : int;
  shuffle_records : int;  (** records emitted to the shuffle, post-combine *)
  shuffle_bytes : int;
  output_records : int;
  output_bytes : int;
  map_tasks : int;
  reduce_tasks : int;
  est_time_s : float;  (** simulated wall-clock from the cost model *)
  breakdown : breakdown;
  combine_input_records : int;
      (** map-emitted records entering the combiner (equals
          [combine_output_records] when the job has no combiner) *)
  combine_output_records : int;  (** records leaving the combiner *)
  reduce_groups : int;  (** distinct reduce keys (0 for map-only jobs) *)
  attempts_failed : int;  (** injected task-attempt crashes, retried *)
  speculative_launched : int;  (** speculative duplicate attempts started *)
  attempts_killed : int;  (** attempts killed after losing the race *)
  spilled_bytes : int;
      (** bytes written to (and re-read from) local disk by external-sort
          spill passes, summed over passes *)
  spill_passes : int;  (** total extra merge passes across all tasks *)
  oom_kills : int;
      (** task attempts killed for exceeding the container heap; each is
          retried and the task eventually reruns with its combiner
          disabled (degraded but completing) *)
  skipped_records : int;
      (** poison input records isolated by skip-mode bisection and
          dropped from the simulated map input (the real computation is
          untouched — skip mode shapes time, never answers) *)
}

type t = {
  jobs : job list;  (** in execution order *)
  lost_s : float;
      (** simulated time charged to failed job submissions (partial runs
          that aborted and were resubmitted) and their retry backoff;
          not part of any job's phase breakdown *)
  lost_submissions : int;  (** failed job submissions *)
  lost_attempts_failed : int;
      (** task attempts that crashed in failed job submissions; no job
          of {!field-jobs} holds them *)
  lost_speculative_launched : int;  (** raced in failed submissions *)
  lost_attempts_killed : int;  (** killed in failed submissions *)
  replayed_s : float;
      (** simulated time spent re-running already-completed jobs whose
          outputs were not checkpointed when a later submission failed
          (see {!Checkpoint}); like [lost_s], outside every breakdown *)
  recoveries : int;  (** restarts from the last checkpoint *)
  recovered_jobs : int;
      (** completed jobs replayed across all recoveries (a job replayed
          by two separate recoveries counts twice) *)
  checkpoint_s : float;
      (** simulated time spent materializing job outputs to the
          distributed filesystem at checkpoint boundaries *)
  checkpoints_written : int;
  checkpoint_bytes : int;
      (** pre-replication payload bytes across all checkpoints *)
  mapjoin_fallbacks : int;  (** map-joins over the heap, repartitioned *)
  agj_ht_bytes : int;  (** largest per-task Agg-Join hash table estimate *)
}

val empty : t
val append : t -> job -> t

(** [charge_lost t ~attempts_failed ~speculative_launched ~attempts_killed
    dt_s] records one failed job submission of [dt_s] seconds. *)
val charge_lost :
  t -> attempts_failed:int -> speculative_launched:int ->
  attempts_killed:int -> float -> t

(** [charge_backoff t dt_s] adds a retry backoff to {!field-lost_s}. *)
val charge_backoff : t -> float -> t

(** [charge_replay t ~jobs dt_s] records one recovery that re-ran [jobs]
    completed jobs in [dt_s] after a submission exhausted its retries. *)
val charge_replay : t -> jobs:int -> float -> t

(** [charge_checkpoint t ~bytes dt_s] records one checkpoint of a
    [bytes]-byte job output costing [dt_s] simulated seconds. *)
val charge_checkpoint : t -> bytes:int -> float -> t

(** [job_slots j] is the job's peak concurrent slot demand:
    [max map_tasks reduce_tasks] (the phases run one after the other),
    floored at 1. The {!Scheduler} caps this at the cluster's pool. *)
val job_slots : job -> int

(** [slot_seconds t] is the workload's total slot occupancy,
    Σ {!job_slots} × [est_time_s] over the jobs — what the jobs cost the
    cluster, as opposed to {!est_time_s}, which is what they cost the
    querier. *)
val slot_seconds : t -> float

(** Total number of MR cycles (map-reduce + map-only jobs). *)
val cycles : t -> int

val map_only_cycles : t -> int
val full_cycles : t -> int
val total_input_bytes : t -> int
val total_shuffle_bytes : t -> int

(** Crashed task attempts: every job's, plus those of failed
    submissions ({!field-lost_attempts_failed}). *)
val total_attempts_failed : t -> int

(** Like {!total_attempts_failed}, these add the failed submissions'. *)
val total_speculative_launched : t -> int
val total_attempts_killed : t -> int
val total_spill_passes : t -> int
val total_oom_kills : t -> int

(** Per-phase totals across all jobs. Excludes {!field-lost_s}, so
    under whole-job retries the breakdown covers [est_time_s - lost_s]. *)
val total_breakdown : t -> breakdown

(** Sum of per-job simulated times plus {!field-lost_s},
    {!field-replayed_s} and {!field-checkpoint_s}: jobs in a workflow
    run sequentially, as in a Hadoop DAG of dependent stages. The
    recovery terms are exactly 0.0 when checkpointing is off, leaving
    the total bit-identical to a run without the recovery layer. *)
val est_time_s : t -> float

(** [counters t] are [query --json]'s named counters, in name order:
    the twelve per-job ones, [mr.jobs] through [mr.reduce.groups], once
    a job completes; the two checkpoint ones once one is written; every
    other only when above 0. [mr.job_resubmissions], the lost
    submissions not recovered, assumes a completed workflow. *)
val counters : t -> (string * int) list

(** Machine-consumable form: cycle counts, byte totals, per-phase time
    totals, and the per-job list. *)
val to_json : t -> Json.t

val pp_job : job Fmt.t
val pp : t Fmt.t

(** One-line summary: cycles, bytes, simulated seconds. *)
val pp_summary : t Fmt.t
