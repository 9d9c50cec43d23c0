open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Aggregate = Rapida_sparql.Aggregate

type agg_spec = {
  func : Ast.agg_func;
  distinct : bool;
  col : string option;
  out : string;
}

let filter pred t = { t with Table.rows = List.filter pred t.Table.rows }

let project t cols =
  let idx = List.map (Table.col_index t) cols in
  let rows =
    List.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) idx)) t.Table.rows
  in
  Table.make ~name:t.Table.name ~schema:cols rows

let rename_cols t renames =
  let schema =
    List.map
      (fun c -> match List.assoc_opt c renames with Some c' -> c' | None -> c)
      t.Table.schema
  in
  { t with Table.schema = schema }

let shared_cols a b =
  List.filter (fun c -> Table.mem_col b c) a.Table.schema

let right_only_cols a b =
  List.filter (fun c -> not (Table.mem_col a c)) b.Table.schema

let join_schema a b = a.Table.schema @ right_only_cols a b

let merge_rows a b =
  let extra =
    Array.of_list (List.map (Table.col_index b) (right_only_cols a b))
  in
  fun ~left_row ~right_row ->
    Array.append left_row (Array.map (fun i -> right_row.(i)) extra)

let key_of_row t cols =
  let idx = List.map (Table.col_index t) cols in
  fun row ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | i :: rest -> (
        match row.(i) with Some v -> go (v :: acc) rest | None -> None)
    in
    go [] idx

let hash_probe a b =
  let shared = shared_cols a b in
  let key_a = key_of_row a shared and key_b = key_of_row b shared in
  let merge = merge_rows a b in
  let index = Hashtbl.create (max 16 (Table.cardinality b)) in
  List.iter
    (fun row ->
      match key_b row with
      | Some key ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt index key) in
        Hashtbl.replace index key (row :: existing)
      | None -> ())
    b.Table.rows;
  fun left_row ->
    match key_a left_row with
    | Some key ->
      Option.value ~default:[] (Hashtbl.find_opt index key)
      |> List.rev_map (fun right_row -> merge ~left_row ~right_row)
    | None -> []

let hash_join ~name a b =
  let rows = List.concat_map (hash_probe a b) a.Table.rows in
  Table.make ~name ~schema:(join_schema a b) rows

(* Group keys are option lists so NULLs group together (SQL semantics). *)
let group_by ~name ~keys ~aggs t =
  let key_idx = List.map (Table.col_index t) keys in
  let agg_idx =
    List.map (fun a -> Option.map (Table.col_index t) a.col) aggs
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) key_idx in
      let states =
        match Hashtbl.find_opt groups key with
        | Some states -> states
        | None ->
          let states =
            List.map (fun a -> ref (Aggregate.init a.func ~distinct:a.distinct)) aggs
          in
          Hashtbl.add groups key states;
          order := key :: !order;
          states
      in
      List.iter2
        (fun state idx ->
          let v =
            match idx with
            | None -> Some (Term.int 1) (* count-star: every row counts *)
            | Some i -> row.(i)
          in
          state := Aggregate.add !state v)
        states agg_idx)
    t.Table.rows;
  let out_schema = keys @ List.map (fun a -> a.out) aggs in
  let rows =
    if keys = [] && Hashtbl.length groups = 0 then
      (* Grand total over an empty input still yields one row of empty
         aggregates (COUNT = 0), as in SQL. *)
      [ Array.of_list
          (List.map
             (fun a -> Aggregate.finish (Aggregate.init a.func ~distinct:a.distinct))
             aggs) ]
    else
      List.rev_map
        (fun key ->
          let states = Hashtbl.find groups key in
          Array.of_list
            (key @ List.map (fun s -> Aggregate.finish !s) states))
        !order
  in
  Table.make ~name ~schema:out_schema rows

let distinct t =
  let seen = Hashtbl.create 64 in
  let rows =
    List.filter
      (fun row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      t.Table.rows
  in
  { t with Table.rows = rows }

(* Evaluate the outer SELECT's projection expressions over each row. A row
   becomes a binding (NULL cells unbound); Svar items copy columns, Sexpr
   items evaluate arithmetic over them. *)
let project_exprs ~name items t =
  match items with
  | [] -> Table.rename t name
  | items ->
    let binding_of_row row =
      List.fold_left
        (fun (b, i) col ->
          let b =
            match row.(i) with
            | Some v -> Rapida_sparql.Binding.bind b col v
            | None -> b
          in
          (b, i + 1))
        (Rapida_sparql.Binding.empty, 0)
        t.Table.schema
      |> fst
    in
    let schema =
      List.map (function Ast.Svar v -> v | Ast.Sexpr (_, out) -> out) items
    in
    let rows =
      List.map
        (fun row ->
          let b = binding_of_row row in
          Array.of_list
            (List.map
               (function
                 | Ast.Svar v -> Rapida_sparql.Binding.lookup b v
                 | Ast.Sexpr (e, _) -> Rapida_sparql.Binding.eval_expr b e)
               items))
        t.Table.rows
    in
    Table.make ~name ~schema rows

let row_compare (a : Table.row) (b : Table.row) =
  let cell_compare x y =
    match x, y with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some s, Some t -> Term.compare s t
  in
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = cell_compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Canonical form for cross-engine result comparison: columns sorted by
   name, rows sorted, and decimal literals rounded to 9 significant
   digits — engines fold floating-point sums in different orders (partial
   aggregation trees vs sequential folds), so the last bits of a SUM / AVG
   legitimately differ across plans. *)
let round_cell = function
  | Some (Term.Literal { lex; datatype = Term.Ddecimal }) as cell -> (
    match float_of_string_opt lex with
    | Some f ->
      Some (Term.literal (Printf.sprintf "%.9g" f) Term.Ddecimal)
    | None -> cell)
  | cell -> cell

let canonicalize t =
  let cols = List.sort String.compare t.Table.schema in
  let t' = project t cols in
  let rows = List.map (Array.map round_cell) t'.Table.rows in
  { t' with Table.rows = List.sort row_compare rows }

let same_results a b =
  let ca = canonicalize a and cb = canonicalize b in
  ca.Table.schema = cb.Table.schema
  && List.length ca.Table.rows = List.length cb.Table.rows
  && List.for_all2 (fun x y -> row_compare x y = 0) ca.Table.rows cb.Table.rows

(* ORDER BY + LIMIT over a result table. Numeric-aware per-key comparison
   (NULLs first), with the full row as a deterministic tiebreaker so that
   LIMIT selects the same rows in every engine. *)
let order_limit ~order_by ~limit t =
  let rows =
    match order_by with
    | [] -> t.Table.rows
    | keys ->
      (* Positions are resolved once; an unknown column still fails only
         when two rows are compared. *)
      let keys =
        List.map
          (fun key ->
            let col, flip =
              match key with
              | Rapida_sparql.Ast.Asc c -> (c, 1)
              | Rapida_sparql.Ast.Desc c -> (c, -1)
            in
            match Table.col_index t col with
            | i -> ((fun (row : Table.row) -> row.(i)), flip)
            | exception Not_found -> ((fun _ -> raise Not_found), flip))
          keys
      in
      let key_compare a b =
        let value_compare x y =
          match x, y with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some s, Some u -> (
            match Term.as_number s, Term.as_number u with
            | Some fs, Some fu -> Float.compare fs fu
            | _ -> Term.compare s u)
        in
        let rec go = function
          | [] -> row_compare a b
          | (cell, flip) :: rest ->
            let c = flip * value_compare (cell a) (cell b) in
            if c <> 0 then c else go rest
        in
        go keys
      in
      List.stable_sort key_compare t.Table.rows
  in
  let rows =
    match limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { t with Table.rows = rows }
