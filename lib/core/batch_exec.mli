(** Cross-query multi-query optimization: the batch executor behind the
    query server.

    Where the engines apply the paper's Defs 3.1/3.2 overlap machinery
    {e within} one analytical query (its subquery patterns), this module
    applies the same machinery {e across} concurrent queries: the
    subqueries of every query in an admission batch are pooled, greedily
    grouped by composite-pattern overlap ({!Composite.build} on the
    pooled subquery list), and each overlapping group is evaluated as
    {e one} shared composite plan — one scan plus one Agg-Join cycle (or,
    Hive-style, one materialized composite with per-pattern extraction)
    feeding every member query's result channel, closed by a map-only
    demux job priced in the MR cost model.

    Sharing applies to the MQO-capable engine kinds ([Hive_mqo] and
    [Rapid_analytics]); the naive baselines ([Hive_naive], [Rapid_plus])
    evaluate every query solo, exactly as they do intra-query — that
    contrast is the server's headline experiment. Either way, every
    member's result table is identical to its solo {!Engine.execute}
    run (the server test suite's 20-seed × 4-engine property). *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx

(** One query of a batch, carried through grouping. [m_subqueries] are
    the query's subqueries renumbered into the group's merged, pooled
    numbering (contiguous [sq_id]s). *)
type member = {
  m_index : int;  (** position in the batch, preserved through grouping *)
  m_query : Analytical.t;
  m_subqueries : Analytical.subquery list;
}

(** A set of batch members proved mutually overlapping. [g_composite]
    is the composite pattern over the pooled subqueries; [None] marks a
    singleton group whose own subqueries do not overlap (the member's
    engine falls back internally, as it does solo). Invariant: a group
    with two or more members always carries a composite. *)
type group = {
  g_members : member list;  (** in batch order *)
  g_composite : Composite.t option;
}

(** [shares kind] holds when the engine kind can evaluate a shared
    composite across queries. *)
val shares : Engine.kind -> bool

(** [singletons queries] makes every query its own group, in batch
    order: the grouping of a non-sharing kind, and of a batch that runs
    without cross-query sharing. *)
val singletons : Analytical.t list -> group list

(** [group_queries kind queries] partitions a batch into overlap groups,
    greedily and first-fit: each query joins the first existing group
    whose pooled subqueries still build a composite with the query's
    subqueries added, else opens a new group. For non-sharing kinds it
    is {!singletons}. Order within groups and across first members
    follows batch order. *)
val group_queries : Engine.kind -> Analytical.t list -> group list

(** Result of one group execution: per-member outcomes in batch-member
    order, plus the statistics of every simulated job the group ran —
    one shared workflow for a shared group, the member's own workflow
    for a singleton. *)
type result = {
  outputs : (Table.t, Engine.error) Stdlib.result list;
  stats : Stats.t;
}

(** [run_group session ctx group] executes one group against the
    session's engine: singleton groups via plain {!Engine.execute},
    multi-member groups via the shared composite plan (shared scan and
    joins, per-member aggregation channels, one demux cycle). *)
val run_group : Engine.session -> Exec_ctx.t -> group -> result
