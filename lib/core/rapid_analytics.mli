(** RAPIDAnalytics: the paper's contribution. Overlapping graph patterns
    are rewritten into one composite graph pattern evaluated with shared
    scans and joins (optional group filter + α-join), and all independent
    grouping-aggregations are computed in a single parallel Agg-Join
    cycle, followed by a map-only join of the aggregated triplegroups.

    When the patterns do not overlap (Def. 3.2 fails), evaluation falls
    back to the RAPID+ plan — the paper restricts the optimization to
    overlapping patterns. *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Tg_store = Rapida_ntga.Tg_store
module Stats = Rapida_mapred.Stats

(** [run ctx store q] evaluates [q] and returns its result with the
    statistics of every simulated job it ran.
    @raise Failure or [Invalid_argument] when there is no plan for [q]
    @raise Rapida_mapred.Workflow.Aborted when a job exhausts its
    retries ({!Engine.guard} maps both to typed errors). *)
val run :
  Rapida_mapred.Exec_ctx.t -> Tg_store.t -> Analytical.t ->
  Table.t * Stats.t

(** [plan_description q] renders the composite rewriting that [run] would
    use (or the overlap failure), for the CLI's explain command. *)
val plan_description : Analytical.t -> string

(** [shared wf store composite members] evaluates one composite plan for
    several queries on [wf]: the composite pattern once with NTGA
    operators (one map-side scan + group filter per composite star, one
    join cycle per join edge), then one parallel Agg-Join cycle over
    every member's every subquery, then each member [(q, sqs)]'s final
    join. [sqs] are [q]'s subqueries numbered as [composite]'s pattern
    ids. Returns one result per member, in order. A solo {!run} is the
    one-member call; the query server's cross-query MQO ({!Batch_exec})
    passes every query of an overlap group.
    @raise Failure when the composite pattern has no join plan. *)
val shared :
  Rapida_mapred.Workflow.t -> Tg_store.t -> Composite.t ->
  (Analytical.t * Analytical.subquery list) list -> Table.t list
