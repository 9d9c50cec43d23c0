(** Decomposition of a basic graph pattern into subject-rooted star
    subpatterns and the join edges connecting them.

    A star pattern groups all triple patterns sharing a subject node; join
    edges record which variable connects two stars and in what {e role}
    (subject / property / object) it occurs on each side — the ingredients
    of the paper's role-equivalence test (Def. 3.2). *)

open Rapida_rdf

type t = {
  id : int;  (** position in the decomposition, 0-based *)
  subject : Ast.node;
  patterns : Ast.triple_pattern list;  (** in query order *)
}

(** [props star] is the set of bound property terms of the star, sorted.
    Unbound (variable) properties are omitted. *)
val props : t -> Term.t list

(** [type_objects star] is the set of bound objects of [rdf:type] triple
    patterns in the star, sorted. *)
val type_objects : t -> Term.t list

(** [decompose bgp] groups triple patterns by subject node, in order of
    first appearance. *)
val decompose : Ast.triple_pattern list -> t list

type role = Subject | Property | Object

(** One side of a join edge: which star, the variable's role there, and —
    when the role is [Property] or [Object] — the bound property of the
    triple pattern containing the variable ([None] for unbound-property
    patterns, which are out of scope for the optimizations). *)
type endpoint = { star : int; role : role; prop : Term.t option }

type edge = { var : Ast.var; left : endpoint; right : endpoint }

(** [edges stars] is every (star, star, shared-variable) join edge, with
    [left.star < right.star]. A variable occurring twice within one star
    does not produce an edge. *)
val edges : t list -> edge list

(** [connected stars edges] tests whether the star-join graph is
    connected (single component). *)
val connected : t list -> edge list -> bool

val pp_role : role Fmt.t
val pp_edge : edge Fmt.t
val pp : t Fmt.t
