(** Matching star patterns against joined triplegroups: enumerate the
    variable bindings a joined triplegroup represents (the n-split of the
    Agg-Join, paper Algorithm 3).

    NTGA keeps intermediate results denormalized — one triplegroup with a
    multi-valued property stands for several flat solution rows. This
    module unfolds that representation where flat semantics are needed
    (filters and aggregation).

    The star patterns are compiled once per plan: every variable gets a
    slot index, and a binding is a [Term.t option array] indexed by slot
    ([None] = unbound). *)

open Rapida_rdf
open Rapida_sparql

(** Compiled star patterns of one Agg-Join. *)
type t

(** [compile stars] compiles star patterns, each tagged with the index of
    the joined part it matches. Slots are numbered in order of first
    occurrence: stars in list order, patterns in query order, then
    subject, property, object. *)
val compile : (int * Star.t) list -> t

(** [slot t v] is the slot of variable [v], if it occurs in a pattern. *)
val slot : t -> Ast.var -> int option

(** [iter t joined f] calls [f] on every binding of the compiled stars
    against [joined]: per star, the cartesian product over multi-valued
    properties, crossed with the other stars' bindings where shared
    variables agree. Stars whose part is missing from [joined] are
    ignored; if a present star has no match, there are no bindings.

    Bindings come in lexicographic order of the matched triples (stars in
    [compile] order, patterns in query order, triples in triplegroup
    order). [f] receives the same array each time, mutated between
    calls: copy it to keep it. *)
val iter : t -> Joined.t -> (Term.t option array -> unit) -> unit
