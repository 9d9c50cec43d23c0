(** Shared physical-plan building blocks for the engines.

    Scans translate triple patterns to variable-named columns so that all
    later joins are natural joins; the star-join helpers implement Hive's
    multiway same-key join (all triple patterns of a star join on the
    subject in one MR cycle, map-only when the broadcast tables fit the
    map-join threshold). *)

module Ast = Rapida_sparql.Ast
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Exec_ctx = Rapida_mapred.Exec_ctx

type options = {
  cluster : Rapida_mapred.Cluster.t;
  map_join_threshold : int;
      (** a join input below this many bytes is broadcast (Hive map-join) *)
  hive_compression : float;
      (** on-disk size ratio of the Hive engines' ORC-format tables
          (paper §5.1: ~80-96% reduction); the NTGA engines read plain
          text triplegroups at ratio 1.0. Fewer stored bytes also means
          fewer map tasks — the reduced-parallelism effect the paper
          observes for ORC at scale. *)
  ntga_combiner : bool;
      (** ablation: hash-based per-mapper partial aggregation in the
          Agg-Join cycles (Algorithm 3's multiAggMap). Disable to measure
          its shuffle savings. *)
  ntga_filter_pushdown : bool;
      (** ablation: evaluate star-local FILTERs during the map-side group
          filter instead of at aggregation time. *)
  faults : Rapida_mapred.Fault_injector.config;
      (** fault-injection knobs (seed, crash/straggler probabilities,
          retry policy); the all-zero {!Rapida_mapred.Fault_injector.default}
          leaves the cost model untouched. *)
  checkpoint : Rapida_mapred.Checkpoint.config;
      (** workflow checkpoint/recovery policy; the default
          ({!Rapida_mapred.Checkpoint.default}, [Never]) leaves the cost
          model untouched and reserves {!Workflow.Aborted} behaviour. *)
  join_orders : (int * int list) list;
      (** optimizer-chosen star-id join orders, keyed by subquery id
          (reserved key [-1]: the composite MQO plan's [cs_id] order).
          Produced by [Rapida_planner.plan]; see
          {!Rapida_mapred.Exec_ctx.join_order}. *)
}

val default_options : options

(** [make ()] is {!default_options}; each argument overrides one field.
    [?base] picks the record the unspecified fields come from, so option
    fields can be added later without breaking any caller — construct
    options with [make], never with a record literal. *)
val make :
  ?base:options ->
  ?cluster:Rapida_mapred.Cluster.t ->
  ?map_join_threshold:int ->
  ?hive_compression:float ->
  ?ntga_combiner:bool ->
  ?ntga_filter_pushdown:bool ->
  ?faults:Rapida_mapred.Fault_injector.config ->
  ?checkpoint:Rapida_mapred.Checkpoint.config ->
  ?join_orders:(int * int list) list ->
  unit -> options

(** [degrade_options base] is [base] with the map-join threshold raised
    to [max_int]: every star join broadcasts, so plans come out cheaper
    (fewer MR cycles) with lower latency variance, at the price of
    skipping the cost-based shuffle/broadcast decision. Answers are
    unchanged — this is the query server's cheap-heuristic-plan rung of
    the degradation ladder. Optimizer hints are dropped too
    ([join_orders = []]): degraded execution is the misestimate-defense
    fallback and must use the heuristic order. *)
val degrade_options : options -> options

(** [context options] is a fresh execution context (empty trace)
    configured with [options]. Create one per query run. *)
val context : options -> Exec_ctx.t

(** [hive_ctx ctx] prices jobs with the Hive engines' storage compression
    applied to the cluster, sharing [ctx]'s planner and trace. *)
val hive_ctx : Exec_ctx.t -> Exec_ctx.t

(** [tp_table vp tp] scans the VP partition of a triple pattern into a
    table whose columns are named by the pattern's variables. Constant
    objects are filtered out and dropped; rdf:type patterns read the
    per-class partition. @raise Invalid_argument on unbound properties. *)
val tp_table : Vp_store.t -> Ast.triple_pattern -> Table.t

(** [ctp_table vp ~subject_var ctp] scans a composite triple pattern,
    always keeping an object column (constant objects become a filtered
    witness column) — the form the MQO rewriting needs. *)
val ctp_table : Vp_store.t -> subject_var:Ast.var -> Composite.ctp -> Table.t

(** [star_join wf ~name ~required ~optional] joins tables sharing
    their subject column in one MR cycle (Hive merges same-key joins):
    inner on [required], left-outer on [optional]. Becomes a map-only
    cycle when every table but the largest required one fits the map-join
    threshold of the workflow's context {e and} the combined build side
    fits the cluster's per-task heap — otherwise it degrades to the
    reduce-side form (counted in the [mem.mapjoin_fallbacks] metric). A
    single required table with no optionals is returned as-is (a scan is
    not a join). *)
val star_join :
  Workflow.t -> name:string -> required:Table.t list ->
  optional:Table.t list -> Table.t

(** [pair_join wf ~name a b] is a natural join as one MR cycle,
    map-only when one side fits both the threshold and the per-task
    heap; a side that fits the threshold but not the heap falls back to
    a repartition join (counted in [mem.mapjoin_fallbacks]). *)
val pair_join : Workflow.t -> name:string -> Table.t -> Table.t -> Table.t

(** [apply_ready_filters table filters] applies (map-side, no cycle) every
    filter whose variables are all present as columns; returns the
    filtered table and the filters still pending. *)
val apply_ready_filters :
  Table.t -> Ast.expr list -> Table.t * Ast.expr list

(** [project_needed table keep] projects to the columns of [keep] that
    exist in [table], preserving [table]'s column order. *)
val project_needed : Table.t -> Ast.var list -> Table.t

(** [agg_specs sq] translates a subquery's aggregates for the relational
    group-by. *)
val agg_specs : Analytical.subquery -> Rapida_relational.Relops.agg_spec list

(** [ensure_total_row sq table] adds the default all-empty-aggregates row
    for a GROUP BY ALL subquery whose input was empty. *)
val ensure_total_row : Analytical.subquery -> Table.t -> Table.t

(** [apply_having sq table] filters the aggregated groups with the
    subquery's HAVING clauses (map-side, no extra cycle). *)
val apply_having : Analytical.subquery -> Table.t -> Table.t

(** [finish_subquery sq table] is {!ensure_total_row} then
    {!apply_having} — the post-aggregation finish every engine applies. *)
val finish_subquery : Analytical.subquery -> Table.t -> Table.t

(** [final_join wf q tables] joins the per-subquery result tables
    (map-only cycles, as the aggregated results are small — unless one
    overflows the per-task heap, which degrades that step to a
    repartition cycle) and applies the outer projection. Single-table
    queries skip the join. *)
val final_join : Workflow.t -> Analytical.t -> Table.t list -> Table.t

(** [push_star_filters star filters] splits [filters] into those
    evaluable during the map-side group filter of [star] —
    single-variable filters over the star's subject or an object
    variable — and the rest. Returns a triple-level refinement (drop
    failing object triples, or the whole triplegroup when the subject
    fails), the pushed filters, and the pending ones. *)
val push_star_filters :
  Rapida_sparql.Star.t -> Ast.expr list ->
  (Rapida_ntga.Triplegroup.t -> Rapida_ntga.Triplegroup.t option)
  * Ast.expr list * Ast.expr list
