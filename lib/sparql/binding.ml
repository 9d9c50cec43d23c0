open Rapida_rdf

type t = (Ast.var * Term.t) list

let empty = []

let lookup b v = List.assoc_opt v b

let bind b v t = (v, t) :: b

let compatible a b =
  List.for_all
    (fun (v, t) ->
      match lookup b v with None -> true | Some t' -> Term.equal t t')
    a

let merge a b =
  List.fold_left (fun acc (v, t) -> if List.mem_assoc v acc then acc else (v, t) :: acc) b a

let match_node node term binding =
  match node with
  | Ast.Nterm t -> if Term.equal t term then Some binding else None
  | Ast.Nvar v -> (
    match lookup binding v with
    | None -> Some (bind binding v term)
    | Some t' -> if Term.equal t' term then Some binding else None)

let match_triple (tp : Ast.triple_pattern) (triple : Triple.t) binding =
  match match_node tp.tp_s triple.s binding with
  | None -> None
  | Some b -> (
    match match_node tp.tp_p triple.p b with
    | None -> None
    | Some b -> match_node tp.tp_o triple.o b)

let term_truth = function
  | Term.Literal { lex; datatype = Term.Dboolean } -> lex = "true"
  | Term.Literal { lex; datatype = Term.Dint | Term.Ddecimal } -> (
    match float_of_string_opt lex with Some f -> f <> 0.0 | None -> false)
  | Term.Literal { lex; _ } -> lex <> ""
  | Term.Iri _ | Term.Bnode _ -> true

let bool_term b = Term.boolean b

(* Numeric comparison when both sides are numeric; otherwise compare by
   term ordering within the same kind. *)
let compare_terms a b : int option =
  match Term.as_number a, Term.as_number b with
  | Some x, Some y -> Some (Float.compare x y)
  | _ -> (
    match a, b with
    | Term.Literal la, Term.Literal lb when la.datatype = lb.datatype ->
      Some (String.compare la.lex lb.lex)
    | Term.Iri x, Term.Iri y -> Some (String.compare x y)
    | _ -> None)

(* [needle] occurs in [hay] at some position, comparing characters with
   [eq hay_char needle_char] in place. *)
let occurs ~eq needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i j = j = nl || (eq hay.[i + j] needle.[j] && at i (j + 1)) in
  let rec go i = i + nl <= hl && (at i 0 || go (i + 1)) in
  go 0

let contains ~needle hay = occurs ~eq:Char.equal needle hay

let contains_ci ~needle hay =
  occurs
    ~eq:(fun h n -> Char.equal (Char.lowercase_ascii h) n)
    (String.lowercase_ascii needle) hay

let rec eval_expr_with lookup (e : Ast.expr) : Term.t option =
  match e with
  | Ast.Evar v -> lookup v
  | Ast.Eterm t -> Some t
  | Ast.Enot e -> (
    match eval_expr_with lookup e with
    | Some t -> Some (bool_term (not (term_truth t)))
    | None -> None)
  | Ast.Eagg _ -> None (* aggregates are evaluated by the engines *)
  | Ast.Eregex (e, pattern, flags) -> (
    match eval_expr_with lookup e with
    | Some t ->
      let hay = Term.lexical t in
      let matched =
        match flags with
        | Some f when String.contains f 'i' -> contains_ci ~needle:pattern hay
        | _ -> contains ~needle:pattern hay
      in
      Some (bool_term matched)
    | None -> None)
  | Ast.Ebin (op, a, b) -> (
    match op with
    | Ast.And -> (
      match eval_expr_with lookup a, eval_expr_with lookup b with
      | Some x, Some y -> Some (bool_term (term_truth x && term_truth y))
      | _ -> None)
    | Ast.Or -> (
      match eval_expr_with lookup a, eval_expr_with lookup b with
      | Some x, Some y -> Some (bool_term (term_truth x || term_truth y))
      | _ -> None)
    | Ast.Eq | Ast.Ne -> (
      match eval_expr_with lookup a, eval_expr_with lookup b with
      | Some x, Some y ->
        let eq =
          match compare_terms x y with
          | Some c -> c = 0
          | None -> Term.equal x y
        in
        Some (bool_term (if op = Ast.Eq then eq else not eq))
      | _ -> None)
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match eval_expr_with lookup a, eval_expr_with lookup b with
      | Some x, Some y -> (
        match compare_terms x y with
        | None -> None
        | Some c ->
          let r =
            match op with
            | Ast.Lt -> c < 0
            | Ast.Le -> c <= 0
            | Ast.Gt -> c > 0
            | Ast.Ge -> c >= 0
            | _ -> assert false
          in
          Some (bool_term r))
      | _ -> None)
    | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> (
      match eval_expr_with lookup a, eval_expr_with lookup b with
      | Some x, Some y -> (
        match Term.as_number x, Term.as_number y with
        | Some fx, Some fy ->
          let r =
            match op with
            | Ast.Add -> fx +. fy
            | Ast.Sub -> fx -. fy
            | Ast.Mul -> fx *. fy
            | Ast.Div -> if fy = 0.0 then Float.nan else fx /. fy
            | _ -> assert false
          in
          if Float.is_nan r then None else Some (Term.decimal r)
        | _ -> None)
      | _ -> None))

let eval_filter_with lookup e =
  match eval_expr_with lookup e with Some t -> term_truth t | None -> false

let eval_expr binding = eval_expr_with (lookup binding)
let eval_filter binding = eval_filter_with (lookup binding)

let pp ppf b =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:Fmt.comma (fun ppf (v, t) ->
         Fmt.pf ppf "?%s=%a" v Term.pp t))
    b
