(** Hive (Naive) baseline: direct relational translation of the SPARQL
    analytical query over vertically partitioned tables, evaluating each
    graph pattern independently — the paper's first comparison point.

    Plan per subquery: one multiway same-key MR join per star (map-only
    when the VP tables are small), one MR join per join edge between
    stars, filters and projections pushed map-side, then one grouping
    cycle with map-side partial aggregation. Aggregated subquery results
    are finally joined with map-only cycles. *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Vp_store = Rapida_relational.Vp_store
module Stats = Rapida_mapred.Stats

(** [run ctx store q] evaluates [q] and returns its result with the
    statistics of every simulated job it ran.
    @raise Failure or [Invalid_argument] when there is no plan for [q]
    @raise Rapida_mapred.Workflow.Aborted when a job exhausts its
    retries ({!Engine.guard} maps both to typed errors). *)
val run :
  Rapida_mapred.Exec_ctx.t -> Vp_store.t -> Analytical.t ->
  Table.t * Stats.t
