(* Cross-engine agreement: every engine must produce exactly the reference
   evaluator's result on every catalog query, over every dataset. This is
   the central correctness oracle of the reproduction. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops
module Table = Rapida_relational.Table
module Stats = Rapida_mapred.Stats

let bsbm_graph = lazy (Rapida_datagen.Bsbm.(generate (config ~products:120 ())))

let chem_graph =
  lazy (Rapida_datagen.Chem2bio.(generate (config ~compounds:60 ())))

let pubmed_graph =
  lazy (Rapida_datagen.Pubmed.(generate (config ~publications:150 ())))

let graph_for = function
  | Catalog.Bsbm -> Lazy.force bsbm_graph
  | Catalog.Chem2bio -> Lazy.force chem_graph
  | Catalog.Pubmed -> Lazy.force pubmed_graph

let inputs = Hashtbl.create 4

let input_for dataset =
  match Hashtbl.find_opt inputs dataset with
  | Some i -> i
  | None ->
    let i = Engine.input_of_graph (graph_for dataset) in
    Hashtbl.add inputs dataset i;
    i

let show_table t =
  Fmt.str "%a" Table.pp (Relops.canonicalize t)

(* Bridge to the session API, keeping the old string-error shape these
   tests match on. *)
let run kind ctx input q =
  Result.map_error Engine.error_message
    (Engine.execute (Engine.prepare kind input) ctx q)

let check_query_all_engines entry () =
  let q = Catalog.parse entry in
  let graph = graph_for entry.Catalog.dataset in
  let expected = Rapida_ref.Ref_engine.run graph q in
  List.iter
    (fun kind ->
      match
        run kind (Plan_util.context Plan_util.default_options)
          (input_for entry.Catalog.dataset) q
      with
      | Error msg ->
        Alcotest.failf "%s on %s: engine error: %s" (Engine.kind_name kind)
          entry.Catalog.id msg
      | Ok { table; _ } ->
        if not (Relops.same_results expected table) then
          Alcotest.failf
            "%s on %s: results differ.@.--- expected (reference):@.%s@.--- \
             got:@.%s"
            (Engine.kind_name kind) entry.Catalog.id (show_table expected)
            (show_table table))
    Engine.all_kinds

let non_empty_results entry () =
  (* Guards against vacuous agreement: catalog queries must return rows on
     the generated datasets. *)
  let q = Catalog.parse entry in
  let graph = graph_for entry.Catalog.dataset in
  let result = Rapida_ref.Ref_engine.run graph q in
  Alcotest.(check bool)
    (entry.Catalog.id ^ " returns rows")
    true
    (Table.cardinality result > 0)

(* MR-cycle contracts from the paper (§5.2) for the 2-star and 3-star
   multi-grouping queries. *)
let cycle_contract id kind expected () =
  let entry = Catalog.find_exn id in
  let q = Catalog.parse entry in
  match
    run kind (Plan_util.context Plan_util.default_options) (input_for entry.Catalog.dataset) q
  with
  | Error msg -> Alcotest.failf "engine error: %s" msg
  | Ok { stats; _ } ->
    Alcotest.(check int)
      (Printf.sprintf "%s cycles on %s" (Engine.kind_name kind) id)
      expected (Stats.cycles stats)

(* The static cycle predictor must match the executed workflow length for
   every catalog query and engine. *)
let prediction_matches_execution entry () =
  let q = Catalog.parse entry in
  List.iter
    (fun kind ->
      match
        run kind (Plan_util.context Plan_util.default_options)
          (input_for entry.Catalog.dataset) q
      with
      | Error msg ->
        Alcotest.failf "%s on %s: %s" (Engine.kind_name kind) entry.Catalog.id
          msg
      | Ok { stats; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "%s cycles on %s" (Engine.kind_name kind)
             entry.Catalog.id)
          (Rapida_core.Plan_summary.predict kind q)
          (Stats.cycles stats))
    Engine.all_kinds

(* A cyclic join graph: stars ?a {p, v}, ?b {q} and ?c {r} joined
   a-b, b-c and c-a. Whichever edge the plan visits last joins two stars
   that are already in the prefix, so it is a selection, not a join: the
   earlier joins on the shared variables (Hive) and the Agg-Join's n-split
   over shared slots (NTGA) already enforce it. *)
let triangle_query =
  "SELECT ?va (COUNT(?a) AS ?n) { ?a p ?b . ?a v ?va . ?b q ?c . ?c r ?a . \
   } GROUP BY ?va"

let triangle_graph triples =
  let module Term = Rapida_rdf.Term in
  let iri n = Term.iri (Rapida_rdf.Namespace.bench ^ n) in
  Rapida_rdf.Graph.of_list
    (List.map
       (fun (s, p, o) ->
         Rapida_rdf.Triple.make (iri s) (iri p)
           (match int_of_string_opt o with
           | Some i -> Term.int i
           | None -> iri o))
       triples)

(* a1 closes its triangle; a2's and a3's cycles close on a1 instead. *)
let broken_triangle =
  triangle_graph
    [
      ("a1", "p", "b1"); ("a1", "v", "1"); ("b1", "q", "c1"); ("c1", "r", "a1");
      ("a2", "p", "b2"); ("a2", "v", "2"); ("b2", "q", "c2"); ("c2", "r", "a1");
      ("a3", "p", "b1"); ("a3", "v", "1");
    ]

(* Every property of the cycle is multi-valued, so each star matches
   several bindings and only some combinations close the cycle. *)
let multivalued_triangle =
  triangle_graph
    [
      ("a1", "p", "b1"); ("a1", "p", "b2"); ("a1", "v", "1"); ("a1", "v", "3");
      ("a2", "p", "b1"); ("a2", "v", "2");
      ("b1", "q", "c1"); ("b1", "q", "c2"); ("b2", "q", "c1");
      ("c1", "r", "a1"); ("c1", "r", "a2"); ("c2", "r", "a1");
    ]

let triangle_on graph () =
  let q = Rapida_sparql.Analytical.parse_exn triangle_query in
  let expected = Rapida_ref.Ref_engine.run graph q in
  Alcotest.(check bool) "reference returns rows" true
    (Table.cardinality expected > 0);
  let input = Engine.input_of_graph graph in
  List.iter
    (fun kind ->
      match run kind (Plan_util.context Plan_util.default_options) input q with
      | Error msg -> Alcotest.failf "%s: %s" (Engine.kind_name kind) msg
      | Ok { table; stats; _ } ->
        if not (Relops.same_results expected table) then
          Alcotest.failf "%s differs:@.expected %s@.got %s"
            (Engine.kind_name kind) (show_table expected) (show_table table);
        Alcotest.(check int)
          (Engine.kind_name kind ^ " cycles")
          (Rapida_core.Plan_summary.predict kind q)
          (Stats.cycles stats))
    Engine.all_kinds

let suite =
  let agreement =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s agrees across engines" entry.Catalog.id)
          `Slow
          (check_query_all_engines entry))
      Catalog.all
  in
  let coverage =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s non-empty" entry.Catalog.id)
          `Quick (non_empty_results entry))
      Catalog.all
  in
  let contracts =
    [
      Alcotest.test_case "MG1 cycles: rapid-analytics = 3" `Quick
        (cycle_contract "MG1" Engine.Rapid_analytics 3);
      Alcotest.test_case "MG1 cycles: rapid-plus = 5" `Quick
        (cycle_contract "MG1" Engine.Rapid_plus 5);
      Alcotest.test_case "MG1 cycles: hive-naive = 9" `Quick
        (cycle_contract "MG1" Engine.Hive_naive 9);
      Alcotest.test_case "MG3 cycles: rapid-analytics = 4" `Quick
        (cycle_contract "MG3" Engine.Rapid_analytics 4);
      Alcotest.test_case "MG3 cycles: rapid-plus = 7" `Quick
        (cycle_contract "MG3" Engine.Rapid_plus 7);
      Alcotest.test_case "G1 cycles: rapid-analytics = 2" `Quick
        (cycle_contract "G1" Engine.Rapid_analytics 2);
    ]
  in
  let predictions =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s cycle prediction" entry.Catalog.id)
          `Quick
          (prediction_matches_execution entry))
      Catalog.all
  in
  let cyclic =
    [
      Alcotest.test_case "triangle: broken cycles" `Quick
        (triangle_on broken_triangle);
      Alcotest.test_case "triangle: multi-valued cycle" `Quick
        (triangle_on multivalued_triangle);
    ]
  in
  agreement @ coverage @ contracts @ predictions @ cyclic
