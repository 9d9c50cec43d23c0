(** Static cardinality and cost analysis of analytical query plans.

    An abstract interpretation of the analytical normal form over the
    interval domain {!Interval.Card}: every operator of an
    engine-independent logical plan — scans, star joins, inter-star
    joins, filters, aggregation, and the outer join of subquery
    results — is annotated with a {e sound} cardinality interval
    [[lo, hi]] derived from a {!Stats_catalog}, plus a byte interval
    sized like {!Rapida_relational.Table.row_size_bytes}.

    Soundness is the contract: for every node, the true cardinality of
    the corresponding intermediate result (as computed by {!measure},
    whose semantics mirror the reference engine) lies inside the node's
    interval whenever the catalog was built from the same graph. The
    test suite enforces this across the whole query catalog, seeds, and
    engines. Estimates ({!Interval.Card.point_estimate}, q-error) are
    derived from the intervals and carry no such guarantee.

    On top of the intervals the analysis derives stats-aware
    diagnostics (all on the {!Diagnostic} machinery):

    - [statically-empty-join] (warning): a star join or inter-star join
      has upper bound 0 — e.g. a predicate absent from the catalog —
      so the subquery provably returns nothing.
    - [filter-selectivity-zero] (warning): a FILTER's numeric
      constraints are disjoint from the catalog's literal-range sketch
      of every predicate that can bind the variable, so the filter can
      never hold.
    - [skewed-star] (info): a star pattern's predicate has a maximum
      subject fanout far above its average — the reduce-side skew
      signature for that star's join key.
    - [broadcast-feasible] (info): every build-side table of a star
      join is below the map-join threshold and the combined build side
      fits the task heap {e at the upper bound} — the star join is
      guaranteed to run map-only.
    - [mapjoin-overcommit-predicted] (warning): the planner will pick
      the map-join (upper bounds below the threshold) but the build
      side exceeds the task heap already {e at the lower bound} — the
      map-only attempt is guaranteed to fall back (or OOM under
      degraded settings). *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical

type op =
  | Scan of Ast.triple_pattern
  | Star_join of Star.t  (** children: the star's scans *)
  | Filter of Ast.expr list
      (** star-local (pushed) or subquery-pending filters *)
  | Join of Ast.var list
      (** inter-star natural join on the shared variables;
          children: accumulated plan, next star subtree *)
  | Cross  (** disconnected star components: cartesian product *)
  | Agg of Analytical.subquery
      (** grouping + HAVING + the GROUP-BY-ALL total row *)
  | Final_join  (** outer natural join of the subquery results *)
  | Result  (** outer projection, ORDER BY, LIMIT *)

type node = {
  id : int;  (** preorder index, root = 0 *)
  op : op;
  label : string;  (** one-line rendering for plan output *)
  ncols : int;  (** columns (bound variables) of the node's output *)
  card : Interval.Card.t;  (** sound bound on output rows *)
  bytes : Interval.Card.t;  (** derived bound on output bytes *)
  children : node list;
}

type t = {
  query : Analytical.t;
  root : node;
  diagnostics : Diagnostic.t list;  (** sorted with {!Diagnostic.sort} *)
}

(** [analyze catalog q] annotates [q]'s logical plan. The byte-level
    diagnostics compare against [map_join_threshold] (default
    {!Rapida_core.Plan_util.default_options}) and [memory]'s task heap
    (default {!Rapida_mapred.Memory.default}). *)
val analyze :
  ?map_join_threshold:int ->
  ?memory:Rapida_mapred.Memory.config ->
  Stats_catalog.t ->
  Analytical.t ->
  t

(** Preorder list of the plan's nodes (root first). *)
val nodes : t -> node list

(** A plan node paired with the {e exact} cardinality of its
    intermediate result on a concrete graph. *)
type measured = { m_node : node; actual : int; m_children : measured list }

(** [measure g t] evaluates every plan node against [g] with reference
    semantics (identical to {!Rapida_refengine.Ref_engine} at the
    root). The soundness property under test:
    [Interval.Card.contains m_node.card actual] for every node when
    [t]'s catalog was built from [g]. *)
val measure : Graph.t -> t -> measured

(** Preorder list of (node, actual) pairs. *)
val measured_list : measured -> (node * int) list

(** [root_q_error m] is the q-error of the root estimate vs the actual
    result cardinality. *)
val root_q_error : measured -> float

val pp_plan : t Fmt.t

(** Plan tree with estimated intervals and actual cardinalities side by
    side — the [query --analyze] report. *)
val pp_measured : measured Fmt.t

(** Machine-readable plan: nested nodes with intervals, plus the
    diagnostics array. *)
val to_json : t -> Rapida_mapred.Json.t

(** {1 Planner-facing primitives}

    The interval machinery the plan annotation is built from, exposed
    for [Rapida_planner]'s join enumeration. All bounds share the
    soundness contract of {!analyze}. *)

(** [star_interval cat star] is the sound cardinality interval of the
    star join of [star]'s patterns (the Star_join node bound). *)
val star_interval : Stats_catalog.t -> Star.t -> Interval.Card.t

(** [join_match_bound cat star endpoint] is the most rows of [star] that
    can join one fixed value arriving through [endpoint] — the
    per-match fanout the inter-star join rule multiplies by. *)
val join_match_bound : Stats_catalog.t -> Star.t -> Star.endpoint -> int

(** [bytes_interval cat ~ncols card] sizes [card] rows of [ncols]
    columns like {!Rapida_relational.Table.row_size_bytes} against the
    catalog's term-length range. *)
val bytes_interval :
  Stats_catalog.t -> ncols:int -> Interval.Card.t -> Interval.Card.t
