(** Execution context for the MapReduce simulator.

    One context bundles everything a query execution threads through the
    stack: the cluster model the cost model prices against, the planner
    options the engines consult, and a trace sink recording per-phase
    spans. Every job run against a context appends to the same trace, so
    a full query workflow — across engines' helper cycles — is
    observable end to end.

    Contexts are cheap; create a fresh one per query run so a trace
    attributes to a single execution. *)

(** Planner knobs shared by all engines (the fields mirror the paper's
    ablations; see {!Rapida_core.Plan_util.options} for the user-facing
    record that also picks the cluster). *)
type planner = {
  map_join_threshold : int;
      (** a join input below this many bytes is broadcast (Hive map-join) *)
  hive_compression : float;
      (** on-disk size ratio of the Hive engines' ORC-format tables *)
  ntga_combiner : bool;
      (** per-mapper partial aggregation in the NTGA Agg-Join cycles *)
  ntga_filter_pushdown : bool;
      (** evaluate star-local FILTERs during the map-side group filter *)
}

val default_planner : planner

type t

(** [create ?cluster ?planner ?faults ?checkpoint ?join_orders ()] is a
    fresh context with an empty trace. Defaults:
    {!Cluster.default}, {!default_planner}, an inactive
    {!Fault_injector.t} (healthy cluster), {!Checkpoint.default} (no
    checkpoints, no recovery), and no join-order hints.

    @raise Invalid_argument on an invalid [checkpoint] config. *)
val create :
  ?cluster:Cluster.t ->
  ?planner:planner ->
  ?faults:Fault_injector.t ->
  ?checkpoint:Checkpoint.config ->
  ?join_orders:(int * int list) list ->
  unit ->
  t

val cluster : t -> Cluster.t
val planner : t -> planner

(** The fault injector every job run against this context consults for
    task-attempt crashes and stragglers. Inactive by default. *)
val faults : t -> Fault_injector.t

(** The checkpoint policy {!Workflow} runs under. {!Checkpoint.default}
    ([Never]) by default — no checkpoints, no recovery, and a cost model
    bit-identical to one without the recovery layer. *)
val checkpoint : t -> Checkpoint.config

(** [join_order t key] is the optimizer-chosen star-id join order for
    the subquery (or composite) identified by [key], if any. Keys are
    subquery ids ([sq_id]); the reserved key [-1] carries the composite
    (MQO) plan's star order ([cs_id] space). [None] means "use the
    heuristic order" — the pre-optimizer behavior. The hints are plain
    ints so this module needs no dependency on the SPARQL front end. *)
val join_order : t -> int -> int list option

val trace : t -> Trace.t

(** [with_cluster t cluster] prices jobs against [cluster] while sharing
    [t]'s planner and trace — how the Hive engines apply their
    storage compression without forking the telemetry. *)
val with_cluster : t -> Cluster.t -> t
