(** NTGA logical operators (paper §3.1).

    These are the in-memory (logical) versions used to define semantics
    and for testing; the engines in [rapida_core] implement the same
    operators as MapReduce physical operators over the simulator. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast

(** A property requirement of a star pattern: the property must be
    present; when [obj] is set the triple's object must equal it (the
    rdf:type case of Def. 3.1). *)
type prop_req = { prop : Term.t; obj : Term.t option }

val req : ?obj:Term.t -> Term.t -> prop_req

(** [satisfies tg r] tests whether some triple of [tg] matches [r]: the
    membership test of {!group_filter}, without building the projected
    triplegroup. *)
val satisfies : Triplegroup.t -> prop_req -> bool

(** [group_filter ~required tgs] keeps triplegroups containing a match for
    every requirement, projected to the required properties — the classic
    NTGA TG_GroupFilter. *)
val group_filter :
  required:prop_req list -> Triplegroup.t list -> Triplegroup.t list

(** [opt_group_filter ~prim ~opt tgs] is the Optional Group Filter
    (Def. 3.3): keeps triplegroups with matches for all primary
    requirements, projected to primary + optional properties. *)
val opt_group_filter :
  prim:prop_req list -> opt:prop_req list -> Triplegroup.t list ->
  Triplegroup.t list

(** [n_split ~prim ~secs tgs] (Def. 3.4) extracts, for each triplegroup
    and each secondary property set [secs.(i)], the sub-triplegroup with
    the primary properties plus set [i]'s properties — provided all of set
    [i]'s properties are present. Results are tagged with the set index. *)
val n_split :
  prim:Term.t list -> secs:Term.t list list -> Triplegroup.t list ->
  (int * Triplegroup.t) list

(** An α condition (Def. 3.5, Table 2): a conjunction requiring some
    secondary properties to be present and others absent. *)
type alpha = { required : Term.t list; forbidden : Term.t list }

val alpha_true : alpha

val alpha_holds_tg : alpha -> Triplegroup.t -> bool
val alpha_holds : alpha -> Joined.t -> bool

(** How one side of a join extracts its key(s) from a joined triplegroup:
    the subject of the part at [star], the objects of [`ObjectOf p] there
    (multi-valued properties yield several keys), or every object value
    ([`AnyObject], the unbound-property case). *)
type join_key = {
  star : int;
  access : [ `Subject | `ObjectOf of Term.t | `AnyObject ];
}

val key_values : join_key -> Joined.t -> Term.t list

(** [alpha_join ~left ~right ~left_key ~right_key ~alphas] (Def. 3.5)
    joins two triplegroup classes on their key values, keeping only
    combinations that satisfy at least one α condition. *)
val alpha_join :
  left:Joined.t list -> right:Joined.t list -> left_key:join_key ->
  right_key:join_key -> alphas:alpha list -> Joined.t list

(** [agg_join ~base ~detail ~theta ~alpha ~inputs ~aggs] (Def. 3.6) is the
    triplegroup Agg-Join: for each base element, aggregate over the detail
    elements in its range RNG(base) = those satisfying [theta] and
    [alpha]. [inputs base detail] lists the rows of aggregate-argument
    values that [detail] contributes to [base]'s group (one row per
    unfolded binding; each row has one entry per aggregate in [aggs]).
    Bases with empty ranges keep default (empty-state) values, per the
    MD-join semantics. *)
val agg_join :
  base:'b list ->
  detail:'d list ->
  theta:('b -> 'd -> bool) ->
  alpha:('d -> bool) ->
  inputs:('b -> 'd -> Term.t option list list) ->
  aggs:(Ast.agg_func * bool) list ->
  ('b * Term.t option list) list
