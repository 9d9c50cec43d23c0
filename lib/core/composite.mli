(** Composite graph patterns (paper §3).

    Overlapping graph patterns GP1, GP2, … are rewritten into a single
    composite pattern GP' whose stars carry {e primary} requirements
    (shared by every pattern) and {e secondary} requirements (owned by a
    strict subset of the patterns). Evaluating GP' once replaces
    evaluating every GPi; per-pattern α conditions then select, from each
    match of GP', the patterns it satisfies.

    Note on α conditions: the paper's Table 2 lists mutually exclusive
    conditions that also {e forbid} other patterns' secondary properties
    (e.g. α1 = c≠∅ ∧ f=∅). Under SPARQL semantics a subject carrying an
    extra optional property still matches a pattern that does not mention
    it, so exclusive conditions under-count; we therefore derive
    requirement-only conditions (α_i = pattern i's own secondary
    requirements are present), which the reference-engine oracle in the
    test suite validates. The exclusive form remains available in
    {!Rapida_ntga.Ops.alpha} and is exercised by the operator tests. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Joined = Rapida_ntga.Joined

(** One composite triple pattern: always a variable object column, with an
    optional constant-object constraint, owned by the patterns that
    require it. *)
type ctp = {
  prop : Term.t;
  obj_var : Ast.var;
  obj_const : Term.t option;
  owners : int list;  (** pattern ids (sq_id) requiring this triple *)
}

type star = {
  cs_id : int;
  subject_var : Ast.var;
  ctps : ctp list;
}

(** Requirement-only α condition: (composite star, requirement) pairs that
    must be present for the pattern to match. *)
type alpha = (int * Ops.prop_req) list

type pattern_info = {
  pat_id : int;
  star_of : (int * int) list;  (** original star id -> composite star id *)
  alpha : alpha;
  var_map : (Ast.var * Ast.var) list;  (** pattern var -> composite var *)
}

type t = {
  stars : star list;
  edges : Star.edge list;  (** join edges over composite star ids *)
  patterns : pattern_info list;
}

(** [build subqueries] checks pairwise overlap of every subquery against
    the first and constructs the composite pattern. [Error] carries the
    overlap report rendering when patterns do not overlap. *)
val build : Analytical.subquery list -> (t, string) result

(** [req_of ctp] is the NTGA property requirement of a composite triple. *)
val req_of : ctp -> Ops.prop_req

(** [prim_reqs star] / [sec_reqs star] split a composite star's
    requirements into primary (owned by all patterns) and secondary. *)
val prim_reqs : t -> star -> Ops.prop_req list

val sec_reqs : t -> star -> Ops.prop_req list

(** [alpha_holds alpha joined] tests a requirement-only α condition
    against a joined triplegroup. *)
val alpha_holds : alpha -> Joined.t -> bool

(** [map_var info v] is the composite variable for pattern variable [v]
    (identity when unmapped — pattern 0 uses composite names). *)
val map_var : pattern_info -> Ast.var -> Ast.var

(** [map_expr info e] rewrites a filter expression into composite
    variables. *)
val map_expr : pattern_info -> Ast.expr -> Ast.expr

(** [pattern_columns t info] is the composite variables carrying pattern
    [info]'s bindings: mapped subject and object variables of the
    pattern's triples, distinct, in order. *)
val pattern_columns : t -> pattern_info -> Ast.var list

(** [order_edges ~star_order ~star_ids ~edges] orders join edges so each
    successive edge connects one new star to the already-joined prefix
    (the generic form used for both composite and original patterns).

    With [star_order = None] the heuristic greedy order is used — the
    exact pre-optimizer behavior. With [Some order] (an optimizer-chosen
    star visiting order, typically from [Rapida_planner]), the edge plan
    realizes that order: the first listed star seeds the prefix and each
    subsequent star joins through a connecting edge. An [order] that is
    not a permutation of [star_ids] or cannot be realized as a connected
    left-deep plan silently falls back to the heuristic — a stale or
    invalid hint degrades to the baseline plan, never to an error the
    heuristic would not also produce. *)
val order_edges :
  star_order:int list option ->
  star_ids:int list ->
  edges:Star.edge list ->
  (Star.edge list, string) result

(** [join_plan ?star_order t] orders the edges so that each successive
    edge joins one new star to the already-joined prefix; the first
    edge's left star seeds the prefix (or [star_order]'s head when
    given, with the same fallback semantics as {!order_edges}). Errors
    when the pattern is disconnected. *)
val join_plan : ?star_order:int list -> t -> (Star.edge list, string) result

(** [left_deep plan ~first ~next] walks an edge plan from
    {!order_edges} or {!join_plan} as a left-deep join: [first e] builds
    the prefix from the first edge's two stars, then
    [next i acc ~bound ~fresh ~joined] joins each later edge's
    not-yet-joined endpoint [fresh] to the prefix [acc] through its
    already-joined endpoint [bound], with [i] counting the joins from 1.
    [joined] tests membership in the joined prefix and already holds
    [fresh] when [next] runs. An edge whose two endpoints are both
    already joined closes a cycle; the earlier joins on the shared
    variables enforce it, so it calls nothing.
    @raise Failure on an [Error] plan or an empty plan. *)
val left_deep :
  (Star.edge list, string) result ->
  first:(Star.edge -> 'a) ->
  next:
    (int -> 'a -> bound:Star.endpoint -> fresh:Star.endpoint ->
     joined:(int -> bool) -> 'a) ->
  'a

val pp : t Fmt.t
