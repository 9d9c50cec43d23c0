(* Relational substrate: vertical partitioning, in-memory operators, and
   the equivalence of the MapReduce physical operators with their
   in-memory counterparts (the core simulator-correctness property). *)

module Term = Rapida_rdf.Term
module Triple = Rapida_rdf.Triple
module Graph = Rapida_rdf.Graph
module Namespace = Rapida_rdf.Namespace
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Cluster = Rapida_mapred.Cluster
module Ast = Rapida_sparql.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let iri n = Term.iri ("http://x.test/" ^ n)

let test_table_basics () =
  let t =
    Table.make ~name:"t" ~schema:[ "a"; "b" ]
      [ [| Some (Term.int 1); None |]; [| Some (Term.int 2); Some (Term.str "x") |] ]
  in
  check_int "arity" 2 (Table.arity t);
  check_int "cardinality" 2 (Table.cardinality t);
  check_int "col index" 1 (Table.col_index t "b");
  check_bool "mem_col" true (Table.mem_col t "a");
  check_bool "size positive" true (Table.size_bytes t > 0);
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Table.make t: row arity 1, schema arity 2") (fun () ->
      ignore (Table.make ~name:"t" ~schema:[ "a"; "b" ] [ [| None |] ]))

let test_vp_store () =
  let p = iri "p" and q = iri "q" in
  let g =
    Graph.of_list
      [
        Triple.make (iri "s1") p (Term.int 1);
        Triple.make (iri "s2") p (Term.int 2);
        Triple.make (iri "s1") q (Term.int 3);
        Triple.make (iri "s1") Namespace.rdf_type (iri "T1");
        Triple.make (iri "s2") Namespace.rdf_type (iri "T2");
      ]
  in
  let vp = Vp_store.of_graph g in
  check_int "p partition" 2 (Table.cardinality (Vp_store.property_table vp p));
  check_int "q partition" 1 (Table.cardinality (Vp_store.property_table vp q));
  check_int "type T1" 1 (Table.cardinality (Vp_store.type_table vp (iri "T1")));
  check_int "missing property empty" 0
    (Table.cardinality (Vp_store.property_table vp (iri "nope")));
  let n, _ = Vp_store.stats vp in
  check_int "four partitions" 4 n

let row_list = Alcotest.(list (list (option string)))

let rows_of t =
  List.map
    (fun row ->
      Array.to_list (Array.map (Option.map Term.lexical) row))
    (Relops.canonicalize t).Table.rows

let test_hash_join_inner () =
  let a =
    Table.make ~name:"a" ~schema:[ "k"; "x" ]
      [ [| Some (Term.int 1); Some (Term.str "a1") |];
        [| Some (Term.int 2); Some (Term.str "a2") |];
        [| None; Some (Term.str "anull") |] ]
  in
  let b =
    Table.make ~name:"b" ~schema:[ "k"; "y" ]
      [ [| Some (Term.int 1); Some (Term.str "b1") |];
        [| Some (Term.int 1); Some (Term.str "b1bis") |];
        [| Some (Term.int 3); Some (Term.str "b3") |] ]
  in
  let j = Relops.hash_join ~name:"j" a b in
  check_int "two matches" 2 (Table.cardinality j);
  Alcotest.(check (list string)) "schema" [ "k"; "x"; "y" ] j.Table.schema;
  (* NULL keys never join. *)
  check_bool "no null join" true
    (List.for_all (fun r -> List.hd r <> None) (rows_of j))

let test_cross_product () =
  let a = Table.make ~name:"a" ~schema:[ "x" ] [ [| Some (Term.int 1) |]; [| Some (Term.int 2) |] ] in
  let b = Table.make ~name:"b" ~schema:[ "y" ] [ [| Some (Term.int 3) |] ] in
  let j = Relops.hash_join ~name:"j" a b in
  check_int "cross product" 2 (Table.cardinality j)

let test_group_by () =
  let t =
    Table.make ~name:"t" ~schema:[ "g"; "v" ]
      [ [| Some (Term.str "a"); Some (Term.int 1) |];
        [| Some (Term.str "a"); Some (Term.int 2) |];
        [| Some (Term.str "b"); Some (Term.int 5) |];
        [| Some (Term.str "a"); None |] ]
  in
  let aggs =
    [ { Relops.func = Ast.Count; distinct = false; col = Some "v"; out = "c" };
      { Relops.func = Ast.Sum; distinct = false; col = Some "v"; out = "s" };
      { Relops.func = Ast.Count; distinct = false; col = None; out = "star" } ]
  in
  let r = Relops.group_by ~name:"r" ~keys:[ "g" ] ~aggs t in
  check_int "two groups" 2 (Table.cardinality r);
  (* rows_of canonicalizes: columns sort to [c; g; s; star]. *)
  Alcotest.check row_list "values"
    [ [ Some "1"; Some "b"; Some "5"; Some "1" ];
      [ Some "2"; Some "a"; Some "3"; Some "3" ] ]
    (rows_of r)

let test_group_by_grand_total_empty () =
  let t = Table.make ~name:"t" ~schema:[ "v" ] [] in
  let aggs = [ { Relops.func = Ast.Count; distinct = false; col = Some "v"; out = "c" } ] in
  let r = Relops.group_by ~name:"r" ~keys:[] ~aggs t in
  Alcotest.check row_list "zero row" [ [ Some "0" ] ] (rows_of r)

let test_distinct_and_project () =
  let t =
    Table.make ~name:"t" ~schema:[ "a"; "b" ]
      [ [| Some (Term.int 1); Some (Term.int 2) |];
        [| Some (Term.int 1); Some (Term.int 2) |];
        [| Some (Term.int 1); Some (Term.int 3) |] ]
  in
  check_int "distinct" 2 (Table.cardinality (Relops.distinct t));
  let p = Relops.project t [ "b" ] in
  Alcotest.(check (list string)) "projected schema" [ "b" ] p.Table.schema;
  check_int "projection keeps rows" 3 (Table.cardinality p)

let test_project_exprs () =
  let t =
    Table.make ~name:"t" ~schema:[ "sumF"; "cntF" ]
      [ [| Some (Term.int 10); Some (Term.int 4) |] ]
  in
  let items =
    [ Ast.Svar "cntF";
      Ast.Sexpr (Ast.Ebin (Ast.Div, Ast.Evar "sumF", Ast.Evar "cntF"), "avg") ]
  in
  let r = Relops.project_exprs ~name:"r" items t in
  (* canonical column order: [avg; cntF] *)
  Alcotest.check row_list "ratio" [ [ Some "2.5"; Some "4" ] ] (rows_of r)

let test_same_results_modulo_order () =
  let a =
    Table.make ~name:"a" ~schema:[ "x"; "y" ]
      [ [| Some (Term.int 1); Some (Term.int 2) |];
        [| Some (Term.int 3); Some (Term.int 4) |] ]
  in
  let b =
    Table.make ~name:"b" ~schema:[ "y"; "x" ]
      [ [| Some (Term.int 4); Some (Term.int 3) |];
        [| Some (Term.int 2); Some (Term.int 1) |] ]
  in
  check_bool "same modulo order" true (Relops.same_results a b);
  let c = { b with Table.rows = List.tl b.Table.rows } in
  check_bool "different cardinality" false (Relops.same_results a c)

(* --- MR physical operators match the in-memory semantics ----------------- *)

let gen_key = QCheck2.Gen.(map Term.int (0 -- 6))
let gen_val = QCheck2.Gen.(map Term.int (0 -- 50))

let gen_table ~schema =
  QCheck2.Gen.(
    map
      (fun rows ->
        Table.make ~name:"g" ~schema
          (List.map
             (fun (k, v) ->
               [| (if Term.equal k (Term.int 6) then None else Some k); Some v |])
             rows))
      (list_size (0 -- 25) (pair gen_key gen_val)))

let wf () =
  Workflow.create
    (Rapida_mapred.Exec_ctx.create ~cluster:Cluster.default ())

let prop_repartition_join_matches =
  QCheck2.Test.make ~count:200 ~name:"repartition join = hash join"
    QCheck2.Gen.(pair (gen_table ~schema:["k";"x"]) (gen_table ~schema:["k";"y"]))
    (fun (a, b) ->
      let expected = Relops.hash_join ~name:"e" a b in
      let got = Mr_relops.repartition_join (wf ()) ~name:"g" a b in
      Relops.same_results expected got)

let prop_map_join_matches =
  QCheck2.Test.make ~count:200 ~name:"map join = hash join"
    QCheck2.Gen.(pair (gen_table ~schema:["k";"x"]) (gen_table ~schema:["k";"y"]))
    (fun (a, b) ->
      let expected = Relops.hash_join ~name:"e" a b in
      let got = Mr_relops.map_join (wf ()) ~name:"g" ~big:a ~small:b () in
      Relops.same_results expected got)

(* Two shared key columns, in a different order on each side, and NULL
   keys in either; the map join must return [hash_join]'s rows in
   [hash_join]'s order, not merely the same multiset. *)
let gen_key2_table ~schema =
  let gen_cell = QCheck2.Gen.(opt ~ratio:0.85 (map Term.int (0 -- 3))) in
  QCheck2.Gen.(
    map
      (fun rows ->
        Table.make ~name:"g" ~schema
          (List.map (fun (a, b, v) -> [| a; b; Some v |]) rows))
      (list_size (0 -- 25) (triple gen_cell gen_cell gen_val)))

let same_rows_in_order x y =
  x.Table.schema = y.Table.schema
  && List.equal
       (fun r s -> Relops.row_compare r s = 0)
       x.Table.rows y.Table.rows

let prop_map_join_exact =
  QCheck2.Test.make ~count:200
    ~name:"map join = hash join, rows in order (inner)"
    QCheck2.Gen.(
      pair
        (gen_key2_table ~schema:[ "k1"; "k2"; "x" ])
        (gen_key2_table ~schema:[ "k2"; "k1"; "y" ]))
    (fun (a, b) ->
      let expected = Relops.hash_join ~name:"g" a b in
      let got = Mr_relops.map_join (wf ()) ~name:"g" ~big:a ~small:b () in
      same_rows_in_order expected got)

(* The broadcast side is indexed once per join, not once per probe row:
   the map join allocates about what the in-memory hash join does. *)
let test_map_join_builds_once () =
  let int_table name col n key =
    Table.make ~name ~schema:[ "k"; col ]
      (List.init n (fun i -> [| Some (Term.int (key i)); Some (Term.int i) |]))
  in
  let big = int_table "big" "x" 2000 (fun i -> i mod 1000) in
  let small = int_table "small" "y" 1000 Fun.id in
  let minor_words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let in_memory =
    minor_words (fun () -> Relops.hash_join ~name:"j" big small)
  in
  let w = wf () in
  let broadcast =
    minor_words (fun () -> Mr_relops.map_join w ~name:"j" ~big ~small ())
  in
  if broadcast > 3.0 *. in_memory then
    Alcotest.failf "map join allocated %.0f minor words, hash join %.0f"
      broadcast in_memory

let prop_group_aggregate_matches =
  QCheck2.Test.make ~count:200 ~name:"MR group-by = in-memory group-by"
    (gen_table ~schema:["k";"v"])
    (fun t ->
      let aggs =
        [ { Relops.func = Ast.Count; distinct = false; col = Some "v"; out = "c" };
          { Relops.func = Ast.Sum; distinct = false; col = Some "v"; out = "s" };
          { Relops.func = Ast.Min; distinct = false; col = Some "v"; out = "lo" };
          { Relops.func = Ast.Max; distinct = true; col = Some "v"; out = "hi" } ]
      in
      let expected = Relops.group_by ~name:"e" ~keys:[ "k" ] ~aggs t in
      let got = Mr_relops.group_aggregate (wf ()) ~name:"g" ~keys:[ "k" ] ~aggs t in
      Relops.same_results expected got)

let prop_distinct_project_matches =
  QCheck2.Test.make ~count:200 ~name:"MR distinct = in-memory distinct"
    (gen_table ~schema:["k";"v"])
    (fun t ->
      let expected = Relops.distinct (Relops.project t [ "k" ]) in
      let got = Mr_relops.distinct_project (wf ()) ~name:"g" ~cols:[ "k" ] t in
      Relops.same_results expected got)

let suite =
  [
    Alcotest.test_case "table basics" `Quick test_table_basics;
    Alcotest.test_case "vp store" `Quick test_vp_store;
    Alcotest.test_case "hash join inner" `Quick test_hash_join_inner;
    Alcotest.test_case "cross product" `Quick test_cross_product;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group by grand total on empty" `Quick test_group_by_grand_total_empty;
    Alcotest.test_case "distinct and project" `Quick test_distinct_and_project;
    Alcotest.test_case "project exprs" `Quick test_project_exprs;
    Alcotest.test_case "same_results modulo order" `Quick test_same_results_modulo_order;
    QCheck_alcotest.to_alcotest prop_repartition_join_matches;
    QCheck_alcotest.to_alcotest prop_map_join_matches;
    QCheck_alcotest.to_alcotest prop_map_join_exact;
    Alcotest.test_case "map join builds its index once" `Quick
      test_map_join_builds_once;
    QCheck_alcotest.to_alcotest prop_group_aggregate_matches;
    QCheck_alcotest.to_alcotest prop_distinct_project_matches;
  ]

let prop_canonicalize_idempotent =
  QCheck2.Test.make ~count:200 ~name:"canonicalize is idempotent"
    (gen_table ~schema:["k";"v"])
    (fun t ->
      let once = Relops.canonicalize t in
      let twice = Relops.canonicalize once in
      once.Table.schema = twice.Table.schema
      && List.for_all2
           (fun a b -> Relops.row_compare a b = 0)
           once.Table.rows twice.Table.rows)

let prop_same_results_reflexive =
  QCheck2.Test.make ~count:200 ~name:"same_results is reflexive"
    (gen_table ~schema:["k";"v"])
    (fun t -> Relops.same_results t t)

let prop_order_limit_deterministic =
  QCheck2.Test.make ~count:200
    ~name:"order_limit picks a deterministic prefix"
    QCheck2.Gen.(pair (gen_table ~schema:["k";"v"]) (0 -- 5))
    (fun (t, n) ->
      let order_by = [ Ast.Desc "v"; Ast.Asc "k" ] in
      let a = Relops.order_limit ~order_by ~limit:(Some n) t in
      let b = Relops.order_limit ~order_by ~limit:(Some n) t in
      Table.cardinality a = min n (Table.cardinality t)
      && List.for_all2 (fun x y -> Relops.row_compare x y = 0) a.Table.rows
           b.Table.rows
      &&
      (* the limited rows are a prefix of the full ordering *)
      let full = Relops.order_limit ~order_by ~limit:None t in
      List.for_all2
        (fun x y -> Relops.row_compare x y = 0)
        a.Table.rows
        (List.filteri (fun i _ -> i < n) full.Table.rows))

(* --- Staged row functions = the per-row versions they replaced ---------- *)

(* References: the row functions as they were before staging, looking
   every column up by name on every row. *)
module Per_row = struct
  let right_only_cols a b =
    List.filter (fun c -> not (Table.mem_col a c)) b.Table.schema

  let merge_rows a b ~left_row ~right_row =
    let extras =
      List.map (fun c -> right_row.(Table.col_index b c)) (right_only_cols a b)
    in
    Array.append left_row (Array.of_list extras)

  let key_of_row t cols row =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | c :: rest -> (
        match row.(Table.col_index t c) with
        | Some v -> go (v :: acc) rest
        | None -> None)
    in
    go [] cols

  let hash_probe a b =
    let shared = Relops.shared_cols a b in
    let index = Hashtbl.create 16 in
    List.iter
      (fun row ->
        match key_of_row b shared row with
        | Some key ->
          let existing = Option.value ~default:[] (Hashtbl.find_opt index key) in
          Hashtbl.replace index key (row :: existing)
        | None -> ())
      b.Table.rows;
    fun left_row ->
      let matches =
        match key_of_row a shared left_row with
        | Some key ->
          Option.value ~default:[] (Hashtbl.find_opt index key) |> List.rev
        | None -> []
      in
      List.map (fun right_row -> merge_rows a b ~left_row ~right_row) matches

  let order_limit ~order_by ~limit t =
    let rows =
      match order_by with
      | [] -> t.Table.rows
      | keys ->
        let key_compare a b =
          let cell_value row col = row.(Table.col_index t col) in
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
            | [] -> Relops.row_compare a b
            | key :: rest ->
              let col, flip =
                match key with Ast.Asc c -> (c, 1) | Ast.Desc c -> (c, -1)
              in
              let c =
                flip * value_compare (cell_value a col) (cell_value b col)
              in
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
end

(* Two tables whose shared key columns (none, one or two) sit after a
   private first column, in an independently shuffled order on each
   side; any cell, keys included, may be NULL. Mixed int and string
   values make [order_limit] compare both numerically and by term. *)
let gen_join_pair =
  let open QCheck2.Gen in
  let gen_cell =
    opt ~ratio:0.8
      (oneof [ map Term.int (0 -- 3); map Term.str (oneofl [ "a"; "b" ]) ])
  in
  let gen_rows name schema =
    map
      (fun rows -> Table.make ~name ~schema (List.map Array.of_list rows))
      (list_size (0 -- 12) (flatten_l (List.map (fun _ -> gen_cell) schema)))
  in
  let* shared = oneofl [ []; [ "k1" ]; [ "k1"; "k2" ] ] in
  let* sa = shuffle_l shared in
  let* sb = shuffle_l ("z" :: shared) in
  let* a = gen_rows "a" ("x" :: sa) in
  let* b = gen_rows "b" ("y" :: sb) in
  return (a, b)

let print_join_pair (a, b) = Fmt.str "@[<v>%a@ %a@]" Table.pp a Table.pp b

let prop_staged_rows_match =
  QCheck2.Test.make ~count:300 ~name:"staged row functions = per-row (inner)"
    ~print:print_join_pair gen_join_pair (fun (a, b) ->
      let shared = Relops.shared_cols a b in
      let key = Relops.key_of_row a shared in
      let merge = Relops.merge_rows a b in
      let probe = Relops.hash_probe a b in
      let ref_probe = Per_row.hash_probe a b in
      List.for_all
        (fun left_row ->
          key left_row = Per_row.key_of_row a shared left_row
          && probe left_row = ref_probe left_row
          && List.for_all
               (fun right_row ->
                 merge ~left_row ~right_row
                 = Per_row.merge_rows a b ~left_row ~right_row)
               b.Table.rows)
        a.Table.rows
      && Relops.same_results
           (Relops.hash_join ~name:"e" a b)
           (Mr_relops.repartition_join (wf ()) ~name:"g" a b))

let prop_staged_order_limit_matches =
  QCheck2.Test.make ~count:300 ~name:"staged order_limit = per-row"
    ~print:(fun ((a, _), _, _) -> Fmt.str "%a" Table.pp a)
    QCheck2.Gen.(
      triple gen_join_pair
        (list_size (1 -- 3)
           (map2
              (fun desc c -> if desc then Ast.Desc c else Ast.Asc c)
              bool (oneofl [ "x"; "k1"; "k2" ])))
        (opt (0 -- 6)))
    (fun ((a, _), order_by, limit) ->
      let known = function Ast.Asc c | Ast.Desc c -> Table.mem_col a c in
      let order_by = List.filter known order_by in
      same_rows_in_order
        (Relops.order_limit ~order_by ~limit a)
        (Per_row.order_limit ~order_by ~limit a))

(* ORDER BY over a column the table lacks fails only once two rows are
   compared, as it did when columns were looked up per comparison. *)
let test_order_limit_unknown_column () =
  let order_by = [ Ast.Asc "missing" ] in
  let table n =
    Table.make ~name:"t" ~schema:[ "k" ]
      (List.init n (fun i -> [| Some (Term.int i) |]))
  in
  check_int "one row passes" 1
    (Table.cardinality (Relops.order_limit ~order_by ~limit:None (table 1)));
  Alcotest.check_raises "two rows compare" Not_found (fun () ->
      ignore (Relops.order_limit ~order_by ~limit:None (table 2)))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_canonicalize_idempotent;
      QCheck_alcotest.to_alcotest prop_same_results_reflexive;
      QCheck_alcotest.to_alcotest prop_order_limit_deterministic;
      QCheck_alcotest.to_alcotest prop_staged_rows_match;
      QCheck_alcotest.to_alcotest prop_staged_order_limit_matches;
      Alcotest.test_case "order_limit unknown column" `Quick
        test_order_limit_unknown_column;
    ]
