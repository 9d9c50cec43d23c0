(** In-memory relational operators over {!Table}.

    Joins are natural joins: columns are named after query variables, so
    the shared column names are exactly the join variables. These are the
    building blocks that the MapReduce physical operators
    ({!Mr_relops}) apply inside map / reduce functions. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast

(** Aggregate specification: function, DISTINCT flag, input column
    ([None] = count-star), output column name. *)
type agg_spec = {
  func : Ast.agg_func;
  distinct : bool;
  col : string option;
  out : string;
}

(** [filter pred t] keeps the rows satisfying [pred]. Resolve the
    columns [pred] reads before building it, not once per row. *)
val filter : (Table.row -> bool) -> Table.t -> Table.t

(** [project t cols] keeps [cols] in order.
    @raise Not_found on a missing column. *)
val project : Table.t -> string list -> Table.t

(** [rename_cols t renames] renames columns per the assoc list. *)
val rename_cols : Table.t -> (string * string) list -> Table.t

(** [shared_cols a b] is the natural-join columns, in [a]'s order. *)
val shared_cols : Table.t -> Table.t -> string list

(** [join_schema a b] is [a]'s schema followed by [b]'s non-shared
    columns — the schema a natural join produces. *)
val join_schema : Table.t -> Table.t -> string list

(** {2 Staged row functions}

    The next three functions resolve column positions when partially
    applied to their tables and return a per-row function. They are
    meant to be applied once per operator and the result bound: applying
    them to every row redoes the column lookups each time. *)

(** [merge_rows a b ~left_row ~right_row] builds an output row of
    [join_schema a b] from matched rows. *)
val merge_rows :
  Table.t -> Table.t -> left_row:Table.row -> right_row:Table.row -> Table.row

(** [key_of_row t cols row] is the values of [cols]; [None] when any is
    NULL (NULL never equi-joins).
    @raise Not_found from [key_of_row t cols] on a missing column. *)
val key_of_row : Table.t -> string list -> Table.row -> Term.t list option

(** [hash_probe a b] indexes [b] on the shared columns and returns the
    probe that joins one row of [a] against that index. The index is
    built once, when [hash_probe a b] is partially applied, so bind the
    probe before mapping it over many rows. Each call returns the row's
    matches in [b]'s row order, merged into [join_schema a b]. A row
    with a NULL key matches nothing. *)
val hash_probe : Table.t -> Table.t -> Table.row -> Table.row list

(** [hash_join ~name a b] is the natural (inner) join: {!hash_probe}
    mapped over [a]'s rows. NULL keys do not match. *)
val hash_join : name:string -> Table.t -> Table.t -> Table.t

(** [group_by ~name ~keys ~aggs t] groups by the key columns (NULLs group
    together) and computes the aggregates. [keys = []] is the grand total:
    exactly one output row. Output schema is [keys @ outs]. *)
val group_by :
  name:string -> keys:string list -> aggs:agg_spec list -> Table.t -> Table.t

(** [distinct t] removes duplicate rows. *)
val distinct : Table.t -> Table.t

(** [project_exprs ~name items t] evaluates an outer SELECT projection:
    [Svar] items copy columns, [Sexpr] items evaluate expressions over the
    row (columns become bindings; NULLs are unbound). [items = []] is the
    identity projection. *)
val project_exprs : name:string -> Ast.sel_item list -> Table.t -> Table.t

(** Total order on rows (NULLs first), used for canonical comparison. *)
val row_compare : Table.row -> Table.row -> int

(** [canonicalize t] sorts columns by name and rows by value — the
    canonical form for comparing results across engines. *)
val canonicalize : Table.t -> Table.t

(** [same_results a b] compares two result tables up to column and row
    order. *)
val same_results : Table.t -> Table.t -> bool

(** [order_limit ~order_by ~limit t] applies the outer SELECT's solution
    ordering (numeric-aware, NULLs first, full row as deterministic
    tiebreaker) and row limit. *)
val order_limit :
  order_by:Ast.order list -> limit:int option -> Table.t -> Table.t
