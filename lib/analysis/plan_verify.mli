(** Layer 2 of the static analyzer: optimizer-invariant verification.

    While {!Ast_lint} checks what the user wrote, this module re-checks
    what the optimizer {e derived}: the composite-pattern rewriting of
    paper §3 and the schemas the engines produce. Rules and their ids:

    - [composite-cover] (error): the composite pattern's stars do not
      exactly cover the original patterns' properties as primary
      (owned by all) plus secondary (owned by a strict subset)
      requirements, or a property lost its ownership (Def. 3.1).
    - [composite-role] (error): merged join variables of corresponding
      star pairs are not role-equivalent (Def. 3.2); carries the
      {!Rapida_core.Overlap} evidence.
    - [nsplit-arity] (error): the n-split of the composite pattern does
      not produce exactly one pattern per input subquery, or a pattern's
      α condition / variable mapping refers outside the composite
      pattern (Defs. 3.4–3.5).
    - [aggjoin-keys] (error): a subquery's grouping keys or aggregate
      arguments are not available in the bindings its split pattern
      carries, or aggregate output names collide (Def. 3.6).
    - [workflow-dag] (error): the join-order a workflow would execute is
      not a connected left-deep sequence — some join's shuffle key is
      not bound by an upstream star.
    - [opt-join-order] (error): a cost-based-planner-enumerated star
      order is not a permutation of the pattern's stars or joins a star
      before any edge connects it to the joined prefix (see
      {!verify_join_order}).
    - [schema-mismatch] (error): an engine's result schema differs from
      the statically expected schema, or the four engines disagree.
    - [mem-overcommit] (warning): the Agg-Join's estimated per-task
      hash-table footprint exceeds the cluster's per-task heap; the run
      degrades (OOM retries, combiner disabled) instead of failing
      (see {!verify_memory}). *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Engine = Rapida_core.Engine

(** [expected_schema q] is the result schema every engine must produce:
    the subquery output columns folded left-to-right with natural-join
    semantics (shared columns kept once), then the outer projection
    (identity when empty). *)
val expected_schema : Analytical.t -> string list

(** [verify_query q] checks every static invariant — per-subquery
    grouping/aggregation consistency and join-order connectivity, plus
    the composite-pattern invariants when the query has at least two
    subqueries (the MQO case). An empty result means the optimizer's
    derivations are sound for [q]. *)
val verify_query : Analytical.t -> Diagnostic.t list

(** [verify_join_order ~star_ids ~edges ~order] checks an
    optimizer-enumerated star visiting order before execution: [order]
    must be a permutation of [star_ids] and every star after the first
    must connect to the already-joined prefix through some edge
    ([opt-join-order]). The planner runs this on every plan it emits; a
    rejected order is replaced by the verified heuristic fallback rather
    than executed. *)
val verify_join_order :
  star_ids:int list ->
  edges:Rapida_sparql.Star.edge list ->
  order:int list ->
  Diagnostic.t list

(** [verify_result ~engine q table] checks an actual result table
    against {!expected_schema} ([schema-mismatch]). *)
val verify_result : engine:string -> Analytical.t -> Table.t -> Diagnostic.t list

(** [verify_cross_engine q results] checks that every engine produced
    the same schema ([schema-mismatch] names the disagreeing pair). *)
val verify_cross_engine :
  Analytical.t -> (string * Table.t) list -> Diagnostic.t list

(** [check_run kind q table] checks a finished run of engine [kind] on
    [q]: {!verify_query} plus {!verify_result} on the run's [table]. It
    is [None] when neither reports an error, else the one-line failure
    [plan verification failed (<engine>): <problem>; <problem>...].
    Pure and called after {!Rapida_core.Engine.execute} returns, so the
    run's answer, trace and stats are the same whether or not it is
    checked. *)
val check_run : Engine.kind -> Analytical.t -> Table.t -> string option

(** [verify_memory ~heap_bytes ~agj_ht_bytes] checks the Agg-Join's
    estimated per-task hash-table footprint (the [mem.agj_ht_bytes]
    metric recorded by the NTGA engines) against the cluster's per-task
    heap, and emits a [mem-overcommit] {e warning} when the estimate
    exceeds the budget: the run still completes — the simulator retries
    the OOM-killed attempts and reruns the task with its combiner
    disabled — but pays for the kills and the bigger shuffle. Warnings
    never affect exit codes. *)
val verify_memory : heap_bytes:int -> agj_ht_bytes:int -> Diagnostic.t list
