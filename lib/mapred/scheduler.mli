(** Cluster scheduler: slot contention between concurrent workflows.

    The cost model prices each workflow as if it owned the whole cluster
    — correct for the paper's one-query-at-a-time experiments, wrong for
    a query server. This module layers admission-to-completion timing on
    top of already-priced workflows: each workflow is a sequence of jobs
    (its {!Stats.job} list, in execution order), each job demands up to
    {!Stats.job_slots} task slots and carries [est_time_s] of
    dedicated-cluster work, and concurrent workflows contend for the
    cluster's fixed slot pool under a FIFO or fair-share policy.

    The model is fluid (malleable tasks): a job granted [n] of its [d]
    demanded slots progresses at rate [n/d], so its slot-seconds consumed
    are exactly [d × est_time_s] regardless of the allocation path —
    contention stretches completion time, never the work. This keeps the
    per-workflow cost model untouched (answers and per-job stats are
    computed before scheduling) while queueing delay, makespan, and slot
    utilization come out of the contention simulation. *)

(** [Fifo] grants slots in submission order, head-of-line first, each
    active workflow's current job taking as many of its demanded slots
    as remain (Hadoop's classic FIFO scheduler). [Fair] is max-min fair:
    the pool is water-filled evenly across active workflows, excess
    beyond a job's demand redistributed to the still-hungry (Hadoop's
    fair scheduler in its fluid idealization). *)
type policy = Fifo | Fair

val policy_name : policy -> string
val policy_of_string : string -> policy option

(** One workflow submitted to the scheduler. *)
type item = {
  it_id : int;  (** caller's key, echoed in the placement *)
  it_submit_s : float;  (** admission time (simulated seconds) *)
  it_jobs : Stats.job list;  (** priced jobs, run in order *)
}

(** Where one workflow landed. [p_queue_s] is the contention delay:
    completion minus submission minus the workflow's dedicated-cluster
    execution time — 0 when the cluster was all its own. *)
type placement = {
  p_id : int;
  p_submit_s : float;
  p_start_s : float;  (** first instant any of its jobs held a slot *)
  p_finish_s : float;
  p_queue_s : float;
  p_slot_seconds : float;  (** Σ per-job [demand × est_time_s] *)
}

type t = {
  placements : placement list;  (** in [it_id] submission order *)
  makespan_s : float;  (** last finish − first submission *)
  busy_slot_seconds : float;
  capacity_slot_seconds : float;  (** slot pool × makespan *)
  utilization : float;  (** busy / capacity; 0 on an empty run *)
}

(** [simulate cluster policy items] runs the contention simulation over
    the cluster's map-slot pool. Deterministic: ties break on
    submission time then [it_id]. *)
val simulate : Cluster.t -> policy -> item list -> t

(** [placement t id] finds one workflow's placement. *)
val placement : t -> int -> placement option
