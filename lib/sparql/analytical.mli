(** Normal form for SPARQL analytical queries.

    An analytical query, in the paper's sense, is an outer SELECT joining
    the results of one or more grouped sub-SELECTs, each of which is a
    basic graph pattern with filters, a grouping (possibly the empty
    grouping "ALL"), and a list of aggregations. Simple grouping queries
    (a single grouped SELECT with no subqueries) normalize to a single
    subquery with an identity outer projection. *)

type aggregate = {
  func : Ast.agg_func;
  arg : Ast.var option;  (** [None] for count-star *)
  distinct : bool;
  out : Ast.var;  (** output column name *)
}

type subquery = {
  sq_id : int;
  bgp : Ast.triple_pattern list;
  stars : Star.t list;
  edges : Star.edge list;
  filters : Ast.expr list;
  group_by : Ast.var list;  (** empty = GROUP BY ALL (grand total) *)
  aggregates : aggregate list;
  having : Ast.expr list;
      (** group filters over the subquery's output columns, evaluated
          after aggregation *)
}

type t = {
  subqueries : subquery list;
  outer_projection : Ast.sel_item list;
      (** projection of the outer SELECT; empty = all columns *)
  order_by : Ast.order list;  (** solution ordering of the final result *)
  limit : int option;
}

(** [of_query q] recognizes the analytical normal form. Errors on
    constructs outside the supported fragment (OPTIONAL in user queries,
    non-variable aggregate arguments, ungrouped projected variables,
    triple patterns at the outer level mixed with subqueries). *)
val of_query : Ast.query -> (t, string) result

(** [parse src] composes {!Parser.parse} and {!of_query}. *)
val parse : string -> (t, string) result

val parse_exn : string -> t

(** [output_columns sq] is the column names a subquery produces: its
    group-by variables followed by its aggregate output names. *)
val output_columns : subquery -> Ast.var list

(** [join_vars a b] is the shared group-by variables of two subqueries —
    the natural-join keys of the outer query. *)
val join_vars : subquery -> subquery -> Ast.var list

val pp_subquery : subquery Fmt.t
val pp : t Fmt.t
