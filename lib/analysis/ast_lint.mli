(** Layer 1 of the static analyzer: semantic lint of the SPARQL AST.

    The lint walks every SELECT (outer and nested) and reports structured
    {!Diagnostic.t} findings. Rules and their ids:

    - [parse-error] (error): the source failed to lex or parse; the
      diagnostic carries the failure position.
    - [unbound-var] (error): a variable used in the projection, FILTER,
      GROUP BY, HAVING, ORDER BY, or an aggregate argument is never bound
      by a triple pattern (or a subquery's output) in scope.
    - [ungrouped-projection] (error): a grouped or aggregated SELECT
      projects a plain variable that is not a grouping key — the classic
      SQL/SPARQL aggregation scope error.
    - [filter-unsatisfiable] (warning): a FILTER can never hold — it
      constant-folds to false, or its conjunction implies an empty
      interval for some variable (e.g. [?x > 10 && ?x < 5]).
    - [filter-constant] (warning): a FILTER folds to a constant (true or
      non-boolean) and can be removed.
    - [cartesian-product] (warning): the star-join graph of a SELECT's
      basic graph pattern is disconnected, so evaluation forms a cross
      product.
    - [duplicate-pattern] (warning): the same triple pattern appears
      twice in one basic graph pattern.
    - [duplicate-prefix] (warning): a PREFIX is declared more than once.
    - [unused-prefix] (warning): a declared PREFIX is never used.
    - [unused-var] (info): a variable is bound by a triple pattern but
      referenced nowhere else in its SELECT. Info, not warning: in the
      benchmark workloads such existence-only variables are deliberate —
      the triple constrains matches to subjects carrying the property
      (see DESIGN.md).
    - [analytical-form] (error): the query parses but falls outside the
      analytical normal form the engines evaluate
      ({!Rapida_sparql.Analytical.of_query} rejects it). *)

module Ast = Rapida_sparql.Ast
module Lexer = Rapida_sparql.Lexer
module Srcloc = Rapida_sparql.Srcloc

(** Source index: token-derived spans for variables and PREFIX
    declarations, used to attach locations to AST-level findings (the AST
    itself carries no positions). *)
type index

val index_of_tokens : Lexer.located list -> index

(** [var_span index v] is the span of the first occurrence of [?v]. *)
val var_span : index -> Ast.var -> Srcloc.span option

(** [conj_constraints e] is the per-variable numeric constraint set of
    [e]'s top-level conjunction: for each variable compared against
    numeric constants, its {!Interval.Num} bound interval plus the
    equality and disequality constants. This is the single interval
    analysis shared with {!Card_analysis}, which meets these intervals
    against the statistics catalog's literal-range sketches. *)
val conj_constraints :
  Ast.expr -> (Ast.var * Interval.Num.t * float list * float list) list

(** [filter_always_false e] holds when [e] constant-folds to false —
    the trivially-unsatisfiable case, with no variable reasoning. *)
val filter_always_false : Ast.expr -> bool

(** [unsat_conjunction e] is [Some v] when the numeric constraints [e]
    places on variable [v] are contradictory on their own (empty
    interval, conflicting equalities) — the witness behind the
    [filter-unsatisfiable] rule. *)
val unsat_conjunction : Ast.expr -> Ast.var option

(** [lint_source src] lexes, parses, and lints: parse failures become
    [parse-error] diagnostics, PREFIX hygiene is checked from the token
    stream, and queries outside the analytical fragment get
    [analytical-form]. The result is sorted with {!Diagnostic.sort}. *)
val lint_source : string -> Diagnostic.t list
