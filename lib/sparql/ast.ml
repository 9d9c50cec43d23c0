open Rapida_rdf

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
  | Eregex of expr * string * string option

type sel_item =
  | Svar of var
  | Sexpr of expr * var

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
  projection : sel_item list;
  where : pattern_elt list;
  group_by : var list;
  having : expr list;
  order_by : order list;
  limit : int option;
}

type query = { base_select : select }

let rec expr_vars = function
  | Evar v -> [ v ]
  | Eterm _ -> []
  | Ebin (_, a, b) -> expr_vars a @ expr_vars b
  | Enot e -> expr_vars e
  | Eagg (_, None, _) -> []
  | Eagg (_, Some e, _) -> expr_vars e
  | Eregex (e, _, _) -> expr_vars e

let node_vars = function Nvar v -> [ v ] | Nterm _ -> []

let pattern_vars tp =
  node_vars tp.tp_s @ node_vars tp.tp_p @ node_vars tp.tp_o

let string_of_agg = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let string_of_binop = function
  | Eq -> "=" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "&&" | Or -> "||"
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let rec pp_expr ppf = function
  | Evar v -> Fmt.pf ppf "?%s" v
  | Eterm t -> Term.pp ppf t
  | Ebin (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (string_of_binop op) pp_expr b
  | Enot e -> Fmt.pf ppf "(!%a)" pp_expr e
  | Eagg (f, None, distinct) ->
    Fmt.pf ppf "%s(%s*)" (string_of_agg f) (if distinct then "DISTINCT " else "")
  | Eagg (f, Some e, distinct) ->
    Fmt.pf ppf "%s(%s%a)" (string_of_agg f)
      (if distinct then "DISTINCT " else "")
      pp_expr e
  | Eregex (e, pat, None) -> Fmt.pf ppf "regex(%a, %S)" pp_expr e pat
  | Eregex (e, pat, Some flags) ->
    Fmt.pf ppf "regex(%a, %S, %S)" pp_expr e pat flags

let pp_node ppf = function
  | Nterm t -> Term.pp ppf t
  | Nvar v -> Fmt.pf ppf "?%s" v

let pp_triple_pattern ppf tp =
  Fmt.pf ppf "%a %a %a ." pp_node tp.tp_s pp_node tp.tp_p pp_node tp.tp_o

let pp_sel_item ppf = function
  | Svar v -> Fmt.pf ppf "?%s" v
  | Sexpr (e, v) -> Fmt.pf ppf "(%a AS ?%s)" pp_expr e v

let rec pp_pattern_elt ppf = function
  | Ptriple tp -> pp_triple_pattern ppf tp
  | Pfilter e -> Fmt.pf ppf "FILTER %a" pp_expr e
  | Psub s -> Fmt.pf ppf "{ %a }" pp_select s
  | Poptional elts ->
    Fmt.pf ppf "OPTIONAL { %a }"
      (Fmt.list ~sep:Fmt.sp pp_pattern_elt)
      elts

and pp_select ppf s =
  let pp_proj ppf = function
    | [] -> Fmt.string ppf "*"
    | items -> Fmt.list ~sep:Fmt.sp pp_sel_item ppf items
  in
  Fmt.pf ppf "@[<v 2>SELECT %s%a WHERE {@ %a@]@ }%a"
    (if s.distinct then "DISTINCT " else "")
    pp_proj s.projection
    (Fmt.list ~sep:Fmt.cut pp_pattern_elt)
    s.where
    (fun ppf -> function
      | [] -> ()
      | vars ->
        Fmt.pf ppf " GROUP BY %a"
          (Fmt.list ~sep:Fmt.sp (fun ppf v -> Fmt.pf ppf "?%s" v))
          vars)
    s.group_by;
  List.iter (fun e -> Fmt.pf ppf " HAVING %a" pp_expr e) s.having;
  (match s.order_by with
  | [] -> ()
  | orders ->
    Fmt.pf ppf " ORDER BY %a"
      (Fmt.list ~sep:Fmt.sp (fun ppf -> function
         | Asc v -> Fmt.pf ppf "ASC(?%s)" v
         | Desc v -> Fmt.pf ppf "DESC(?%s)" v))
      orders);
  match s.limit with
  | None -> ()
  | Some n -> Fmt.pf ppf " LIMIT %d" n
