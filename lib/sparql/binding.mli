(** Variable bindings (solution mappings) and FILTER expression
    evaluation.

    A binding maps variables to RDF terms. Expression evaluation follows
    SPARQL semantics closely enough for the analytical fragment: numeric
    comparison when both operands are numeric, term equality otherwise,
    and three-valued logic collapsed to [false] on type error (a FILTER
    over an error is not satisfied). [regex] is implemented as substring
    containment with optional ["i"] case-insensitivity — all the catalog
    workloads need. *)

open Rapida_rdf

type t = (Ast.var * Term.t) list

val empty : t
val lookup : t -> Ast.var -> Term.t option
val bind : t -> Ast.var -> Term.t -> t

(** [compatible a b] holds when no variable is bound to different terms. *)
val compatible : t -> t -> bool

(** [merge a b] is the union of two compatible bindings. *)
val merge : t -> t -> t

(** [match_triple tp triple binding] extends [binding] by matching the
    triple pattern against a concrete triple, or [None] on mismatch. *)
val match_triple : Ast.triple_pattern -> Triple.t -> t -> t option

(** [eval_expr_with lookup e] evaluates a non-aggregate expression to a
    term, reading variables through [lookup]. [None] signals an
    evaluation error (unbound variable, bad types). *)
val eval_expr_with : (Ast.var -> Term.t option) -> Ast.expr -> Term.t option

(** [eval_filter_with lookup e] is the effective boolean value of [e],
    with errors collapsed to [false]. *)
val eval_filter_with : (Ast.var -> Term.t option) -> Ast.expr -> bool

(** [eval_expr binding e] is [eval_expr_with (lookup binding) e]. *)
val eval_expr : t -> Ast.expr -> Term.t option

(** [eval_filter binding e] is [eval_filter_with (lookup binding) e]. *)
val eval_filter : t -> Ast.expr -> bool

(** [contains ~needle hay] holds when [needle] is a substring of [hay]
    (the empty needle occurs everywhere). *)
val contains : needle:string -> string -> bool

(** [contains_ci ~needle hay] is [contains] up to ASCII case. *)
val contains_ci : needle:string -> string -> bool

(** [term_truth t] is the SPARQL effective boolean value of a term. *)
val term_truth : Term.t -> bool

val pp : t Fmt.t
