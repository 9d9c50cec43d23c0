(* Statistics catalog + static cardinality analysis: interval algebra,
   catalog exactness and JSON round-trip, stats-aware diagnostics, the
   rule registry, and the soundness property — every plan node's
   [lo, hi] interval brackets the measured cardinality, and every
   engine's result cardinality lands inside the root interval, across
   the whole catalog, 20 seeds, and all four engines. *)

module Term = Rapida_rdf.Term
module Triple = Rapida_rdf.Triple
module Graph = Rapida_rdf.Graph
module Analytical = Rapida_sparql.Analytical
module Diagnostic = Rapida_analysis.Diagnostic
module Interval = Rapida_analysis.Interval
module Card = Rapida_analysis.Interval.Card
module Stats_catalog = Rapida_analysis.Stats_catalog
module Card_analysis = Rapida_analysis.Card_analysis
module Rules = Rapida_analysis.Rules
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Table = Rapida_relational.Table
module Json = Rapida_mapred.Json
module Memory = Rapida_mapred.Memory

let vocab n = Term.iri ("http://rapida.bench/vocab/" ^ n)
let ex n = Term.iri ("http://example.org/" ^ n)
let rdf_type = Rapida_rdf.Namespace.rdf_type

let parse_exn src =
  match Analytical.parse src with
  | Ok q -> q
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let has_rule ~severity rule ds =
  List.exists
    (fun d -> d.Diagnostic.rule = rule && d.Diagnostic.severity = severity)
    ds

let rule_names ds =
  String.concat ", " (List.map (fun d -> d.Diagnostic.rule) ds)

(* --- interval algebra -------------------------------------------------- *)

let card_algebra () =
  let i = Card.make 3 7 in
  Alcotest.(check bool) "contains lo" true (Card.contains i 3);
  Alcotest.(check bool) "contains hi" true (Card.contains i 7);
  Alcotest.(check bool) "excludes below" false (Card.contains i 2);
  Alcotest.(check int) "crossed bounds swap" 3 (Card.make 7 3).Card.lo;
  Alcotest.(check int) "negative clamps" 0 (Card.make (-4) 2).Card.lo;
  let s = Card.add (Card.make 1 2) (Card.make 10 20) in
  Alcotest.(check int) "add lo" 11 s.Card.lo;
  Alcotest.(check int) "add hi" 22 s.Card.hi;
  let p = Card.mul (Card.make 2 3) (Card.make 5 7) in
  Alcotest.(check int) "mul lo" 10 p.Card.lo;
  Alcotest.(check int) "mul hi" 21 p.Card.hi;
  let sat = Card.mul (Card.make 2 max_int) (Card.make 2 2) in
  Alcotest.(check int) "mul saturates" max_int sat.Card.hi;
  Alcotest.(check int) "add saturates" max_int
    (Card.add (Card.exact max_int) (Card.exact 1)).Card.hi;
  let c = Card.cap (Card.make 3 9) 5 in
  Alcotest.(check int) "cap lo" 3 c.Card.lo;
  Alcotest.(check int) "cap hi" 5 c.Card.hi;
  Alcotest.(check int) "drop_lo" 0 (Card.drop_lo (Card.make 3 9)).Card.lo;
  let u = Card.union (Card.make 2 3) (Card.make 8 9) in
  Alcotest.(check int) "union lo" 2 u.Card.lo;
  Alcotest.(check int) "union hi" 9 u.Card.hi

let card_estimates () =
  Alcotest.(check (float 1e-9)) "geometric mean" 8.0
    (Card.point_estimate (Card.make 4 16));
  Alcotest.(check (float 1e-9)) "zero interval" 0.0
    (Card.point_estimate Card.zero);
  Alcotest.(check (float 1e-9)) "unbounded falls back to lo" 5.0
    (Card.point_estimate (Card.make 5 max_int));
  Alcotest.(check (float 1e-9)) "q-error exact" 1.0
    (Card.q_error (Card.exact 42) ~actual:42);
  Alcotest.(check (float 1e-9)) "q-error underestimate" 2.0
    (Card.q_error (Card.exact 5) ~actual:10);
  Alcotest.(check (float 1e-9)) "q-error empty vs empty" 1.0
    (Card.q_error Card.zero ~actual:0)

let card_json_roundtrip () =
  List.iter
    (fun i ->
      match Card.of_json (Card.to_json i) with
      | Ok i' ->
        Alcotest.(check int) "lo" i.Card.lo i'.Card.lo;
        Alcotest.(check int) "hi" i.Card.hi i'.Card.hi
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)
    [ Card.zero; Card.exact 7; Card.make 3 9; Card.unknown;
      Card.make 5 max_int ]

let num_intervals () =
  let module Num = Interval.Num in
  let a = Num.closed 0.0 10.0 and b = Num.closed 20.0 30.0 in
  Alcotest.(check bool) "disjoint" true (Num.disjoint a b);
  Alcotest.(check bool) "overlap not disjoint" false
    (Num.disjoint a (Num.closed 5.0 25.0));
  Alcotest.(check bool) "inter empty" true (Num.is_empty (Num.inter a b));
  Alcotest.(check bool) "mem" true (Num.mem 10.0 a);
  let strict = Num.tighten_hi Num.full 10.0 true in
  Alcotest.(check bool) "strict bound excludes endpoint" false
    (Num.mem 10.0 strict)

(* --- statistics catalog ------------------------------------------------ *)

(* A hand-built graph with known statistics: predicate [p] has 4 triples
   over 2 subjects (fanouts 3 and 1), 3 distinct objects (one shared),
   and a duplicate-free numeric predicate [price] spanning [5, 40]. *)
let tiny_graph () =
  Graph.of_list
    [
      Triple.make (ex "s1") (vocab "p") (ex "o1");
      Triple.make (ex "s1") (vocab "p") (ex "o2");
      Triple.make (ex "s1") (vocab "p") (ex "o3");
      Triple.make (ex "s2") (vocab "p") (ex "o1");
      Triple.make (ex "s1") (vocab "price") (Term.decimal 5.0);
      Triple.make (ex "s2") (vocab "price") (Term.decimal 40.0);
      Triple.make (ex "s1") rdf_type (ex "T");
      Triple.make (ex "s2") rdf_type (ex "T");
    ]

let catalog_exact_counts () =
  let cat = Stats_catalog.build (tiny_graph ()) in
  Alcotest.(check int) "total triples" 8 cat.Stats_catalog.total_triples;
  Alcotest.(check int) "total subjects" 2 cat.Stats_catalog.total_subjects;
  (match Stats_catalog.pred cat (vocab "p") with
  | None -> Alcotest.fail "predicate p missing"
  | Some ps ->
    Alcotest.(check int) "p count" 4 ps.Stats_catalog.count;
    Alcotest.(check int) "p subjects" 2 ps.Stats_catalog.subjects;
    Alcotest.(check int) "p objects" 3 ps.Stats_catalog.objects;
    Alcotest.(check int) "p max subject fanout" 3
      ps.Stats_catalog.max_subj_fanout;
    Alcotest.(check int) "p max object fanout" 2
      ps.Stats_catalog.max_obj_fanout;
    Alcotest.(check int) "p max pair fanout" 1
      ps.Stats_catalog.max_pair_fanout;
    Alcotest.(check int) "p avg fanout rounds up" 2
      (Stats_catalog.avg_subj_fanout ps);
    Alcotest.(check bool) "p has no numeric range" true
      (ps.Stats_catalog.num_range = None));
  (match Stats_catalog.pred cat (vocab "price") with
  | None -> Alcotest.fail "predicate price missing"
  | Some ps -> (
    match ps.Stats_catalog.num_range with
    | None -> Alcotest.fail "price range missing"
    | Some r ->
      Alcotest.(check (float 1e-9)) "price min" 5.0 r.Stats_catalog.nmin;
      Alcotest.(check (float 1e-9)) "price max" 40.0 r.Stats_catalog.nmax;
      Alcotest.(check int) "all price objects numeric" ps.Stats_catalog.count
        r.Stats_catalog.ncount));
  Alcotest.(check int) "class count" 2 (Stats_catalog.class_count cat (ex "T"));
  Alcotest.(check int) "absent class" 0 (Stats_catalog.class_count cat (ex "U"));
  Alcotest.(check bool) "absent predicate" true
    (Stats_catalog.pred cat (vocab "nope") = None)

let catalog_json_roundtrip () =
  let graph = Rapida_datagen.Bsbm.(generate (config ~products:30 ())) in
  let cat = Stats_catalog.build graph in
  let json = Stats_catalog.to_json cat in
  match Stats_catalog.of_json json with
  | Error msg -> Alcotest.failf "of_json failed: %s" msg
  | Ok cat' ->
    Alcotest.(check string) "byte-identical re-serialization"
      (Json.to_string json)
      (Json.to_string (Stats_catalog.to_json cat'))

let catalog_json_rejects_garbage () =
  List.iter
    (fun json ->
      match Stats_catalog.of_json json with
      | Ok _ -> Alcotest.fail "accepted malformed catalog"
      | Error _ -> ())
    [
      Json.Null;
      Json.Obj [ ("version", Json.Int 999) ];
      Json.Obj [ ("preds", Json.List []) ];
    ]

(* --- stats-aware diagnostics ------------------------------------------- *)

let bsbm_graph = lazy (Rapida_datagen.Bsbm.(generate (config ~products:40 ())))

let analyze_src ?map_join_threshold ?memory src =
  let graph = Lazy.force bsbm_graph in
  let cat = Stats_catalog.build graph in
  Card_analysis.analyze ?map_join_threshold ?memory cat (parse_exn src)

let diag_statically_empty () =
  let a =
    analyze_src
      "SELECT (COUNT(?o) AS ?cnt) { ?s noSuchPredicate ?o . ?s label ?l . }"
  in
  if
    not
      (has_rule ~severity:Diagnostic.Warning "statically-empty-join"
         a.Card_analysis.diagnostics)
  then
    Alcotest.failf "expected statically-empty-join, got: %s"
      (rule_names a.Card_analysis.diagnostics);
  Alcotest.(check int) "root upper bound is 0... capped by ALL row" 1
    a.Card_analysis.root.Card_analysis.card.Card.hi

let diag_filter_zero () =
  let a =
    analyze_src
      "SELECT (COUNT(?pr) AS ?cnt) { ?off price ?pr . FILTER(?pr < 0) }"
  in
  if
    not
      (has_rule ~severity:Diagnostic.Warning "filter-selectivity-zero"
         a.Card_analysis.diagnostics)
  then
    Alcotest.failf "expected filter-selectivity-zero, got: %s"
      (rule_names a.Card_analysis.diagnostics)

let diag_broadcast_feasible () =
  let a =
    analyze_src
      "SELECT (COUNT(?pr) AS ?cnt) { ?p a ProductType1 . ?p label ?l . ?off \
       product ?p . ?off price ?pr . }"
  in
  if
    not
      (has_rule ~severity:Diagnostic.Info "broadcast-feasible"
         a.Card_analysis.diagnostics)
  then
    Alcotest.failf "expected broadcast-feasible, got: %s"
      (rule_names a.Card_analysis.diagnostics)

let diag_overcommit_predicted () =
  (* A heap of 64 bytes is below any build side's lower bound while a
     huge threshold keeps the planner on the map-join path. *)
  let a =
    analyze_src ~map_join_threshold:max_int
      ~memory:{ Memory.default with Memory.task_heap_bytes = 64 }
      "SELECT (COUNT(?pr) AS ?cnt) { ?p a ProductType1 . ?p label ?l . ?off \
       product ?p . ?off price ?pr . }"
  in
  if
    not
      (has_rule ~severity:Diagnostic.Warning "mapjoin-overcommit-predicted"
         a.Card_analysis.diagnostics)
  then
    Alcotest.failf "expected mapjoin-overcommit-predicted, got: %s"
      (rule_names a.Card_analysis.diagnostics)

let diag_skewed_star () =
  (* One hub subject carries [fanout] values of [p]; 63 other subjects
     carry one each: max fanout 64 vs average ceil(127/64) = 2. *)
  let fanout = 64 in
  let triples =
    List.concat_map
      (fun i ->
        [
          Triple.make (ex (Printf.sprintf "s%d" i)) (vocab "p")
            (ex (Printf.sprintf "o%d" i));
          Triple.make
            (ex (Printf.sprintf "s%d" i))
            (vocab "q")
            (Term.int i);
        ])
      (List.init (fanout - 1) (fun i -> i + 1))
    @ List.init fanout (fun i ->
          Triple.make (ex "hub") (vocab "p") (ex (Printf.sprintf "ho%d" i)))
    @ [ Triple.make (ex "hub") (vocab "q") (Term.int 0) ]
  in
  let cat = Stats_catalog.build (Graph.of_list triples) in
  let a =
    Card_analysis.analyze cat
      (parse_exn "SELECT (COUNT(?o) AS ?cnt) { ?s p ?o . ?s q ?v . }")
  in
  if
    not
      (has_rule ~severity:Diagnostic.Info "skewed-star"
         a.Card_analysis.diagnostics)
  then
    Alcotest.failf "expected skewed-star, got: %s"
      (rule_names a.Card_analysis.diagnostics)

let clean_catalog_has_no_warnings () =
  (* Catalog queries against their own dataset: the analyzer must not
     cry wolf — no warning-severity findings, only infos. *)
  List.iter
    (fun (gen, dataset) ->
      let graph = gen () in
      let cat = Stats_catalog.build graph in
      List.iter
        (fun e ->
          let a = Card_analysis.analyze cat (Catalog.parse e) in
          List.iter
            (fun d ->
              if Diagnostic.compare_severity d.Diagnostic.severity
                   Diagnostic.Warning
                 <= 0
              then
                Alcotest.failf "%s: unexpected %s[%s] %s" e.Catalog.id
                  (Diagnostic.severity_name d.Diagnostic.severity)
                  d.Diagnostic.rule d.Diagnostic.message)
            a.Card_analysis.diagnostics)
        (Catalog.by_dataset dataset))
    [
      ( (fun () -> Rapida_datagen.Bsbm.(generate (config ~products:40 ()))),
        Catalog.Bsbm );
      ( (fun () -> Rapida_datagen.Chem2bio.(generate (config ~compounds:30 ()))),
        Catalog.Chem2bio );
      ( (fun () ->
          Rapida_datagen.Pubmed.(generate (config ~publications:50 ()))),
        Catalog.Pubmed );
    ]

(* --- rule registry ----------------------------------------------------- *)

let registry_covers_emitted_rules () =
  (* Every diagnostic the analyzers emit must use a registered id at the
     registered severity. Collect diagnostics from the lint fixtures
     above plus a full catalog analysis. *)
  let graph = Lazy.force bsbm_graph in
  let cat = Stats_catalog.build graph in
  let card_ds =
    List.concat_map
      (fun e ->
        (Card_analysis.analyze cat (Catalog.parse e)).Card_analysis.diagnostics)
      (Catalog.by_dataset Catalog.Bsbm)
  in
  let lint_ds =
    List.concat_map Rapida_analysis.Ast_lint.lint_source
      [
        "SELECT ?x WHERE { ?s p ?o . }";
        "SELECT ?o WHERE { ?s p ?o . FILTER(?o > 5 && ?o < 1) }";
        "this is not sparql";
      ]
  in
  List.iter
    (fun d ->
      match Rules.find d.Diagnostic.rule with
      | None -> Alcotest.failf "unregistered rule %s" d.Diagnostic.rule
      | Some r ->
        if r.Rules.severity <> d.Diagnostic.severity then
          Alcotest.failf "rule %s emitted at %s, registered as %s"
            d.Diagnostic.rule
            (Diagnostic.severity_name d.Diagnostic.severity)
            (Diagnostic.severity_name r.Rules.severity))
    (card_ds @ lint_ds)

let registry_is_well_formed () =
  let ids = List.map (fun r -> r.Rules.id) Rules.all in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun rule ->
      match Rules.find rule with
      | Some r ->
        Alcotest.(check string) "layer" "card-analysis"
          (Rules.layer_name r.Rules.layer)
      | None -> Alcotest.failf "missing card rule %s" rule)
    [
      "statically-empty-join"; "filter-selectivity-zero"; "skewed-star";
      "broadcast-feasible"; "mapjoin-overcommit-predicted";
    ]

(* --- the soundness property ------------------------------------------- *)

let input_cache : (string, Engine.input) Hashtbl.t = Hashtbl.create 64

let input_for ~seed dataset =
  let key = Printf.sprintf "%s-%d" (Catalog.dataset_name dataset) seed in
  match Hashtbl.find_opt input_cache key with
  | Some input -> input
  | None ->
    let graph =
      match dataset with
      | Catalog.Bsbm ->
        Rapida_datagen.Bsbm.(generate (config ~seed ~products:30 ()))
      | Catalog.Chem2bio ->
        Rapida_datagen.Chem2bio.(generate (config ~seed ~compounds:25 ()))
      | Catalog.Pubmed ->
        Rapida_datagen.Pubmed.(generate (config ~seed ~publications:40 ()))
    in
    let input = Engine.input_of_graph graph in
    Hashtbl.add input_cache key input;
    input

(* Intervals bracket reality on every plan node, for every catalog
   query, across seeds. *)
let soundness_across_seeds () =
  let violations = ref [] in
  for seed = 1 to 20 do
    List.iter
      (fun (e : Catalog.entry) ->
        let input = input_for ~seed e.Catalog.dataset in
        let graph = Engine.graph_of_input input in
        let cat = Stats_catalog.build graph in
        let a = Card_analysis.analyze cat (Catalog.parse e) in
        let m = Card_analysis.measure graph a in
        List.iter
          (fun ((n : Card_analysis.node), actual) ->
            if not (Card.contains n.Card_analysis.card actual) then
              violations :=
                Printf.sprintf "seed %d %s node %d (%s): %s misses %d" seed
                  e.Catalog.id n.Card_analysis.id n.Card_analysis.label
                  (Fmt.str "%a" Card.pp n.Card_analysis.card)
                  actual
                :: !violations)
          (Card_analysis.measured_list m))
      Catalog.all
  done;
  match !violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%d interval violations:\n%s" (List.length vs)
      (String.concat "\n" vs)

(* Every engine's result cardinality lands inside the root interval —
   the soundness the estimates inherit from reference semantics. *)
let engines_inside_root_interval () =
  let ctx () = Plan_util.context Plan_util.default_options in
  List.iter
    (fun seed ->
      List.iter
        (fun (e : Catalog.entry) ->
          let input = input_for ~seed e.Catalog.dataset in
          let graph = Engine.graph_of_input input in
          let cat = Stats_catalog.build graph in
          let q = Catalog.parse e in
          let a = Card_analysis.analyze cat q in
          let root = a.Card_analysis.root.Card_analysis.card in
          List.iter
            (fun kind ->
              match Engine.execute (Engine.prepare kind input) (ctx ()) q with
              | Error err ->
                Alcotest.failf "seed %d %s %s: %s" seed e.Catalog.id
                  (Engine.kind_name kind) (Engine.error_message err)
              | Ok out ->
                let rows = Table.cardinality out.Engine.table in
                if not (Card.contains root rows) then
                  Alcotest.failf "seed %d %s %s: %d rows outside %s" seed
                    e.Catalog.id (Engine.kind_name kind) rows
                    (Fmt.str "%a" Card.pp root))
            Engine.all_kinds)
        Catalog.all)
    [ 1; 7; 20 ]

(* The estimation sweep end to end, on one small dataset. *)
let estimation_sweep_smoke () =
  let sweep =
    Rapida_harness.Experiment.estimation_sweep Plan_util.default_options
      ~label:"BSBM-test"
      (input_for ~seed:3 Catalog.Bsbm)
      (Catalog.by_dataset Catalog.Bsbm)
  in
  let module E = Rapida_harness.Experiment in
  Alcotest.(check bool) "has estimations" true (sweep.E.e_estimations <> []);
  List.iter
    (fun (est : E.estimation) ->
      let id = est.E.e_run.E.query.Catalog.id in
      Alcotest.(check int) (id ^ " violations") 0 est.E.e_violations;
      Alcotest.(check bool)
        (id ^ " q-error >= 1") true (est.E.e_q_error >= 1.0);
      List.iter
        (fun (r : E.engine_run) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s in bounds" id (Engine.kind_name r.E.engine))
            true
            (match r.E.output with
            | Ok out ->
              Card.contains est.E.e_root (Table.cardinality out.Engine.table)
            | Error _ -> false))
        est.E.e_run.E.results)
    sweep.E.e_estimations;
  Alcotest.(check bool) "median q-error >= 1" true
    (E.median_q_error sweep.E.e_estimations >= 1.0)

let suite =
  [
    Alcotest.test_case "card interval algebra" `Quick card_algebra;
    Alcotest.test_case "card point estimate and q-error" `Quick
      card_estimates;
    Alcotest.test_case "card JSON round trip" `Quick card_json_roundtrip;
    Alcotest.test_case "num interval meet" `Quick num_intervals;
    Alcotest.test_case "catalog: exact counts" `Quick catalog_exact_counts;
    Alcotest.test_case "catalog: JSON round trip" `Quick
      catalog_json_roundtrip;
    Alcotest.test_case "catalog: rejects malformed JSON" `Quick
      catalog_json_rejects_garbage;
    Alcotest.test_case "diagnostic: statically-empty-join" `Quick
      diag_statically_empty;
    Alcotest.test_case "diagnostic: filter-selectivity-zero" `Quick
      diag_filter_zero;
    Alcotest.test_case "diagnostic: broadcast-feasible" `Quick
      diag_broadcast_feasible;
    Alcotest.test_case "diagnostic: mapjoin-overcommit-predicted" `Quick
      diag_overcommit_predicted;
    Alcotest.test_case "diagnostic: skewed-star" `Quick diag_skewed_star;
    Alcotest.test_case "catalog queries analyze without warnings" `Quick
      clean_catalog_has_no_warnings;
    Alcotest.test_case "rule registry covers emitted rules" `Quick
      registry_covers_emitted_rules;
    Alcotest.test_case "rule registry is well-formed" `Quick
      registry_is_well_formed;
    Alcotest.test_case "soundness: 20 seeds x catalog, all nodes" `Slow
      soundness_across_seeds;
    Alcotest.test_case "soundness: engines inside root interval" `Slow
      engines_inside_root_interval;
    Alcotest.test_case "estimation sweep is sound and sane" `Quick
      estimation_sweep_smoke;
  ]
