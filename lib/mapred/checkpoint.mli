(** Workflow checkpointing and recovery policy.

    Hadoop workflows survive job failures by materializing intermediate
    job outputs to the distributed filesystem: when a later job exhausts
    its retries, the workflow restarts from the last materialized
    output instead of from scratch. This module prices that trade
    through the cost model — a checkpoint costs a replicated disk write
    of the job's output (spread over the writer slots, like every other
    phase), and a recovery replays the simulated time of every
    completed job since the last checkpoint.

    Everything here shapes simulated time and counters only. The real
    in-memory computation runs once and its results are never touched:
    robustness shapes time, never answers. *)

(** When to materialize a job's output.

    - [Never]: no checkpoints, no recovery — a workflow that exhausts
      its retries raises {!Workflow.Aborted}, exactly as before this
      module existed (the default; bit-identical cost model).
    - [Every_k k]: checkpoint after every [k]-th completed job
      ([k >= 1]). [Every_k 1] materializes everything: recoveries
      replay nothing, at maximal checkpoint cost.
    - [Adaptive budget]: checkpoint once at least [budget] bytes of
      un-materialized output have accumulated ([budget >= 1]) — cheap
      jobs ride for free, expensive outputs are protected. With an
      unreachable budget this is "recovery on, checkpoints off": a
      failure replays the whole plan, the cost of naive whole-plan
      resubmission. *)
type policy = Never | Every_k of int | Adaptive of int

type config = {
  policy : policy;
  replication : int;  (** HDFS replication factor for checkpoint writes *)
}

(** [Never] with replication 3 (the HDFS default). *)
val default : config

(** [create cfg] validates [cfg].
    @raise Invalid_argument on [Every_k k] with [k < 1], [Adaptive b]
    with [b < 1], or [replication < 1]. *)
val create : config -> config

(** A config with any policy other than [Never] enables recovery. *)
val active : config -> bool

(** Parse a [--checkpoint] spec in the {!Spec} format from the bare word
    [never], [every=K], [adaptive=BYTES] (with an optional k/m/g
    suffix), [replication=N]; later policy keys override earlier ones. *)
val parse_spec : string -> (config, string) result

val pp_policy : policy Fmt.t
val pp : config Fmt.t

(** What one checkpoint costs: the payload written (pre-replication)
    and the simulated seconds charged. *)
type decision = { ck_bytes : int; ck_cost_s : float }

(** Mutable per-workflow state: the completed jobs (and their output
    bytes and simulated seconds) since the last checkpoint. *)
type manager

val manager : config -> manager
val config : manager -> config

(** [note_success m ~cluster job] records a completed job and decides
    whether to checkpoint its output. On [Some d], the manager's
    pending state has been reset and the caller should charge
    [d.ck_cost_s] ([replication] copies of the job's output written at
    the cluster's disk bandwidth, spread over the writer slots — the
    job's reduce tasks, or map tasks for a map-only job). [None] under
    [Never] or when the policy holds off. *)
val note_success : manager -> cluster:Cluster.t -> Stats.job -> decision option

(** [replay m] is [(jobs, seconds)]: the completed jobs since the last
    checkpoint and their summed simulated time — what a recovery must
    re-run. Does not reset the pending state: the replayed jobs are
    still un-materialized, so a second failure replays them again. *)
val replay : manager -> int * float
