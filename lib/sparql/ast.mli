(** Abstract syntax for the SPARQL 1.1 subset used by analytical queries.

    The subset covers everything the paper's workloads need: basic graph
    patterns with [;] / [,] shorthand, FILTER with comparisons and
    [regex], OPTIONAL blocks, nested sub-SELECTs, GROUP BY, and the
    aggregate functions COUNT / SUM / AVG / MIN / MAX. *)

open Rapida_rdf

(** Variable name, without the leading ['?']. *)
type var = string

type agg_func = Count | Sum | Avg | Min | Max

type binop =
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Add | Sub | Mul | Div

type expr =
  | Evar of var
  | Eterm of Term.t
  | Ebin of binop * expr * expr
  | Enot of expr
  | Eagg of agg_func * expr option * bool
      (** function, argument ([None] = count-star), DISTINCT flag *)
  | Eregex of expr * string * string option
      (** [regex(?x, "pattern", "flags"?)] *)

(** One item of a SELECT projection. *)
type sel_item =
  | Svar of var
  | Sexpr of expr * var  (** [(expr AS ?v)] *)

type node = Nterm of Term.t | Nvar of var

type triple_pattern = { tp_s : node; tp_p : node; tp_o : node }

type pattern_elt =
  | Ptriple of triple_pattern
  | Pfilter of expr
  | Psub of select
  | Poptional of pattern_elt list

and order = Asc of var | Desc of var

and select = {
  distinct : bool;
  projection : sel_item list;  (** empty means [SELECT *] *)
  where : pattern_elt list;
  group_by : var list;
  having : expr list;  (** group filters evaluated after aggregation *)
  order_by : order list;  (** solution ordering of the outermost SELECT *)
  limit : int option;
}

type query = { base_select : select }

(** {1 Utilities} *)

val expr_vars : expr -> var list

(** [pattern_vars tp] is the variables of a triple pattern, in s, p, o
    order. *)
val pattern_vars : triple_pattern -> var list

val pp_expr : expr Fmt.t
val pp_triple_pattern : triple_pattern Fmt.t
val pp_select : select Fmt.t
