(** RAPID+ (naive NTGA) baseline: each graph pattern is evaluated
    separately with NTGA operators — star patterns are matched by
    map-side triplegroup filtering and joined in reduce phases — followed
    by one grouping-aggregation cycle per subquery and a map-only join of
    the aggregated results. Shared execution across patterns is {e not}
    exploited; that is RAPIDAnalytics' contribution. *)

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

(** [pending_filters planner stars filters] is the part of [filters] no
    star of [stars] consumes map-side (all of them when the planner does
    not push filters down); these run during aggregation. *)
val pending_filters :
  Rapida_mapred.Exec_ctx.planner -> Rapida_sparql.Star.t list ->
  Rapida_sparql.Ast.expr list -> Rapida_sparql.Ast.expr list

(** [key_of_endpoint e] translates a join-edge endpoint into a triplegroup
    join-key accessor. @raise Failure on property-role endpoints. *)
val key_of_endpoint : Rapida_sparql.Star.endpoint -> Rapida_ntga.Ops.join_key
