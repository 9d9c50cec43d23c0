(** Hive (MQO) baseline: the multi-query-optimization rewriting of Le et
    al. applied to the analytical query's graph patterns, executed
    Hive-style. The overlapping patterns are rewritten into one composite
    query whose pattern-specific triples become OPTIONAL (left outer
    joins); the composite result is materialized, then each original
    pattern's distinct bindings are extracted (one MR cycle per pattern)
    and aggregated (another cycle per pattern).

    As the paper observes, the materialization boundary prevents early
    projection and partial aggregation across the two HiveQL queries —
    the extraction re-reads the full composite result once per pattern.
    Falls back to {!Hive_naive} when the patterns do not overlap. *)

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

(** [shared wf vp composite members] evaluates one composite plan for
    several queries on [wf]: the composite pattern is materialized once
    (one multiway star join per composite star, one pair join per join
    edge), then each member [(q, sqs)] gets one distinct-extraction and
    one aggregation cycle per subquery in [sqs] and its final join. [sqs]
    are [q]'s subqueries numbered as [composite]'s pattern ids. Returns
    one result per member, in order. A solo {!run} is the one-member
    call; the query server's cross-query MQO ({!Batch_exec}) passes every
    query of an overlap group.
    @raise Failure when the composite pattern has no join plan. *)
val shared :
  Rapida_mapred.Workflow.t -> Vp_store.t -> Composite.t ->
  (Analytical.t * Analytical.subquery list) list -> Table.t list
