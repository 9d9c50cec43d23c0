(* Static analysis: AST lint rules, plan-verifier invariants, and the
   catalog x engines x planner-knobs property that the optimizer's
   derivations verify cleanly however the planner is configured. *)

module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Diagnostic = Rapida_analysis.Diagnostic
module Ast_lint = Rapida_analysis.Ast_lint
module Plan_verify = Rapida_analysis.Plan_verify
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Table = Rapida_relational.Table

let rules ds = List.map (fun d -> d.Diagnostic.rule) ds

let has_rule ~severity rule ds =
  List.exists
    (fun d -> d.Diagnostic.rule = rule && d.Diagnostic.severity = severity)
    ds

let check_rule ?(severity = Diagnostic.Error) src rule () =
  let ds = Ast_lint.lint_source src in
  if not (has_rule ~severity rule ds) then
    Alcotest.failf "expected %s[%s], got: %s"
      (Diagnostic.severity_name severity)
      rule
      (String.concat ", " (rules ds))

(* --- layer 1: lint rules fire with their exact ids -------------------- *)

let lint_cases =
  [
    ( "unbound-var in projection",
      check_rule "SELECT ?x WHERE { ?s bench:p ?o . }" "unbound-var" );
    ( "unbound-var in FILTER",
      check_rule "SELECT ?o WHERE { ?s bench:p ?o . FILTER(?z > 5) }"
        "unbound-var" );
    ( "unbound-var in GROUP BY",
      check_rule
        "SELECT ?g (COUNT(?o) AS ?c) WHERE { ?s bench:p ?o . } GROUP BY ?g"
        "unbound-var" );
    ( "unbound-var in aggregate argument",
      check_rule
        "SELECT ?o (SUM(?nope) AS ?c) WHERE { ?s bench:p ?o . } GROUP BY ?o"
        "unbound-var" );
    ( "ungrouped-projection",
      check_rule
        "SELECT ?o (COUNT(?s) AS ?c) WHERE { ?s bench:p ?o ; bench:q ?r . } \
         GROUP BY ?r"
        "ungrouped-projection" );
    ( "filter-unsatisfiable by folding",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?o WHERE { ?s bench:p ?o . FILTER(1 > 2) }"
        "filter-unsatisfiable" );
    ( "filter-unsatisfiable by interval",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?o WHERE { ?s bench:p ?o . FILTER(?o > 10 && ?o < 5) }"
        "filter-unsatisfiable" );
    ( "filter-unsatisfiable by contradictory equalities",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?o WHERE { ?s bench:p ?o . FILTER(?o = 3 && ?o = 4) }"
        "filter-unsatisfiable" );
    ( "filter-constant",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?o WHERE { ?s bench:p ?o . FILTER(2 > 1) }" "filter-constant"
    );
    ( "cartesian-product",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?a ?b WHERE { ?x bench:p ?a . ?y bench:q ?b . }"
        "cartesian-product" );
    ( "duplicate-pattern",
      check_rule ~severity:Diagnostic.Warning
        "SELECT ?a WHERE { ?x bench:p ?a . ?x bench:p ?a . }"
        "duplicate-pattern" );
    ( "duplicate-prefix",
      check_rule ~severity:Diagnostic.Warning
        "PREFIX foo: <http://a/> PREFIX foo: <http://b/>\n\
         SELECT ?a WHERE { ?x foo:p ?a . }"
        "duplicate-prefix" );
    ( "unused-prefix",
      check_rule ~severity:Diagnostic.Warning
        "PREFIX foo: <http://a/>\nSELECT ?a WHERE { ?x bench:p ?a . }"
        "unused-prefix" );
    ( "unused-var",
      check_rule ~severity:Diagnostic.Info
        "SELECT ?a WHERE { ?x bench:p ?a ; bench:q ?ghost . }" "unused-var" );
    ( "parse-error",
      check_rule "SELECT ?x WHERE {" "parse-error" );
    ( "analytical-form",
      check_rule
        "SELECT ?x ?z WHERE { ?x bench:p ?y . OPTIONAL { ?x bench:q ?z } }"
        "analytical-form" );
  ]

let parse_error_location () =
  (* The parse-error diagnostic must carry the offending position. *)
  let ds = Ast_lint.lint_source "SELECT ?x WHERE {\n  ?s bench:p }" in
  match List.find_opt (fun d -> d.Diagnostic.rule = "parse-error") ds with
  | None -> Alcotest.fail "no parse-error diagnostic"
  | Some d -> (
    match d.Diagnostic.span with
    | None -> Alcotest.fail "parse-error without a span"
    | Some span ->
      Alcotest.(check int) "line" 2 span.Rapida_sparql.Srcloc.first.line;
      Alcotest.(check bool)
        "column past the subject" true
        (span.Rapida_sparql.Srcloc.first.col > 1))

let clean_query_is_clean () =
  let ds =
    Ast_lint.lint_source
      "SELECT ?o (COUNT(?s) AS ?c) WHERE { ?s bench:p ?o . FILTER(?o > 3) } \
       GROUP BY ?o"
  in
  Alcotest.(check (list string)) "no diagnostics" [] (rules ds)

let catalog_lints_clean () =
  (* The full workload must lint with no errors or warnings; existence-only
     variables are Info by design (see DESIGN.md). *)
  List.iter
    (fun (e : Catalog.entry) ->
      let ds = Ast_lint.lint_source e.Catalog.sparql in
      List.iter
        (fun d ->
          match d.Diagnostic.severity with
          | Diagnostic.Error | Diagnostic.Warning ->
            Alcotest.failf "%s: %a" e.Catalog.id Diagnostic.pp d
          | Diagnostic.Info ->
            Alcotest.(check string)
              (e.Catalog.id ^ " info rule")
              "unused-var" d.Diagnostic.rule)
        ds)
    Catalog.all

(* --- layer 2: verifier rules on broken plans -------------------------- *)

let subquery_of src =
  match Analytical.parse src with
  | Ok q -> List.hd q.Analytical.subqueries
  | Error msg -> Alcotest.failf "setup: %s" msg

let query_of src =
  match Analytical.parse src with
  | Ok q -> q
  | Error msg -> Alcotest.failf "setup: %s" msg

let base_query =
  "SELECT ?o (COUNT(?s) AS ?c) WHERE { ?s bench:p ?o ; bench:q ?r . } GROUP \
   BY ?o"

let expect_plan_rule ~rule q () =
  let ds = Plan_verify.verify_query q in
  if not (has_rule ~severity:Diagnostic.Error rule ds) then
    Alcotest.failf "expected error[%s], got: %s" rule
      (String.concat ", " (rules ds))

let broken_group_key () =
  let sq = subquery_of base_query in
  let q =
    {
      Analytical.subqueries = [ { sq with Analytical.group_by = [ "ghost" ] } ];
      outer_projection = [];
      order_by = [];
      limit = None;
    }
  in
  expect_plan_rule ~rule:"aggjoin-keys" q ()

let broken_agg_arg () =
  let sq = subquery_of base_query in
  let agg =
    {
      Analytical.func = Ast.Sum;
      arg = Some "ghost";
      distinct = false;
      out = "c";
    }
  in
  let q =
    {
      Analytical.subqueries = [ { sq with Analytical.aggregates = [ agg ] } ];
      outer_projection = [];
      order_by = [];
      limit = None;
    }
  in
  expect_plan_rule ~rule:"aggjoin-keys" q ()

let colliding_agg_out () =
  let sq = subquery_of base_query in
  let agg =
    { Analytical.func = Ast.Count; arg = Some "s"; distinct = false; out = "o" }
  in
  let q =
    {
      Analytical.subqueries = [ { sq with Analytical.aggregates = [ agg ] } ];
      outer_projection = [];
      order_by = [];
      limit = None;
    }
  in
  expect_plan_rule ~rule:"aggjoin-keys" q ()

let disconnected_workflow () =
  (* Two stars with no shared variable: no valid left-deep join order. *)
  let bgp =
    [
      {
        Ast.tp_s = Ast.Nvar "x";
        tp_p = Ast.Nterm (Rapida_rdf.Term.iri "urn:p");
        tp_o = Ast.Nvar "a";
      };
      {
        Ast.tp_s = Ast.Nvar "y";
        tp_p = Ast.Nterm (Rapida_rdf.Term.iri "urn:q");
        tp_o = Ast.Nvar "b";
      };
    ]
  in
  let stars = Star.decompose bgp in
  let sq = subquery_of base_query in
  let broken =
    { sq with Analytical.bgp; stars; edges = Star.edges stars; filters = [] }
  in
  let q =
    {
      Analytical.subqueries = [ { broken with Analytical.group_by = [ "a" ] } ];
      outer_projection = [];
      order_by = [];
      limit = None;
    }
  in
  expect_plan_rule ~rule:"workflow-dag" q ()

let non_overlapping_composite () =
  (* Two subqueries over disjoint properties cannot be merged: the
     role-equivalence / cover checks must object. *)
  let sq1 = subquery_of base_query in
  let sq2 =
    subquery_of
      "SELECT ?z (COUNT(?v) AS ?c2) WHERE { ?v bench:other ?z ; bench:more \
       ?w . } GROUP BY ?z"
  in
  let q =
    {
      Analytical.subqueries = [ sq1; { sq2 with Analytical.sq_id = 1 } ];
      outer_projection = [];
      order_by = [];
      limit = None;
    }
  in
  let ds = Plan_verify.verify_query q in
  Alcotest.(check bool)
    "composite-role fires" true
    (has_rule ~severity:Diagnostic.Error "composite-role" ds);
  Alcotest.(check bool)
    "composite-cover fires" true
    (has_rule ~severity:Diagnostic.Error "composite-cover" ds)

let schema_mismatch () =
  let q = query_of base_query in
  let table = Table.make ~name:"r" ~schema:[ "wrong"; "cols" ] [] in
  let ds = Plan_verify.verify_result ~engine:"test" q table in
  Alcotest.(check (list string)) "rule" [ "schema-mismatch" ] (rules ds)

let cross_engine_disagreement () =
  let q = query_of base_query in
  let good = Table.make ~name:"r" ~schema:(Plan_verify.expected_schema q) [] in
  let bad = Table.make ~name:"r" ~schema:[ "o" ] [] in
  let ds = Plan_verify.verify_cross_engine q [ ("a", good); ("b", bad) ] in
  Alcotest.(check bool)
    "schema-mismatch fires" true
    (has_rule ~severity:Diagnostic.Error "schema-mismatch" ds)

let expected_schema_of_mqo () =
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  let schema = Plan_verify.expected_schema q in
  Alcotest.(check bool) "non-empty" true (schema <> []);
  (* Natural-join fold keeps each shared grouping key once. *)
  let uniq = List.sort_uniq String.compare schema in
  Alcotest.(check int) "no duplicate columns" (List.length uniq)
    (List.length schema)

let catalog_verifies_clean () =
  List.iter
    (fun (e : Catalog.entry) ->
      let q = Catalog.parse e in
      match Plan_verify.verify_query q with
      | [] -> ()
      | ds ->
        Alcotest.failf "%s: %s" e.Catalog.id
          (String.concat "; "
             (List.map (fun d -> Fmt.str "%a" Diagnostic.pp d) ds)))
    Catalog.all

(* --- property: catalog x engines x randomized planner knobs ----------- *)

let bsbm_graph = lazy (Rapida_datagen.Bsbm.(generate (config ~products:60 ())))

let chem_graph =
  lazy (Rapida_datagen.Chem2bio.(generate (config ~compounds:40 ())))

let pubmed_graph =
  lazy (Rapida_datagen.Pubmed.(generate (config ~publications:80 ())))

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

(* Deterministic per-entry knob choices: a tiny splitmix over the entry
   index, so the sweep is reproducible without seeding a global PRNG. *)
let knob_options ~salt i =
  let h = ref (i * 0x9e3779b9 + salt) in
  let next bound =
    h := Hashtbl.hash (!h, bound, salt);
    !h mod bound
  in
  let thresholds = [| 0; 1024; 64 * 1024; 16 * 1024 * 1024 |] in
  Plan_util.make
    ~map_join_threshold:thresholds.(next 4)
    ~hive_compression:[| 0.06; 0.5; 1.0 |].(next 3)
    ~ntga_combiner:(next 2 = 0)
    ~ntga_filter_pushdown:(next 2 = 0)
    ()

(* Run one engine, then check the finished run as [query --verify-plans]
   and the fuzzer do, keeping the string-error shape these tests match
   on. *)
let run_checked kind options input q =
  match
    Engine.execute (Engine.prepare kind input) (Plan_util.context options) q
  with
  | Error e -> Error (Engine.error_message e)
  | Ok { Engine.table; _ } -> (
    match Plan_verify.check_run kind q table with
    | Some msg -> Error msg
    | None -> Ok table)

let catalog_times_engines_times_knobs () =
  List.iteri
    (fun i (e : Catalog.entry) ->
      let q = Catalog.parse e in
      List.iteri
        (fun salt options ->
          let results =
            List.map
              (fun kind ->
                let input = input_for e.Catalog.dataset in
                match run_checked kind options input q with
                | Error msg ->
                  Alcotest.failf "%s on %s (knob set %d): %s"
                    (Engine.kind_name kind) e.Catalog.id salt msg
                | Ok table -> (Engine.kind_name kind, table))
              Engine.all_kinds
          in
          match Plan_verify.verify_cross_engine q results with
          | [] -> ()
          | ds ->
            Alcotest.failf "%s (knob set %d): %s" e.Catalog.id salt
              (String.concat "; "
                 (List.map (fun d -> Fmt.str "%a" Diagnostic.pp d) ds)))
        [ Plan_util.default_options; knob_options ~salt:1 i;
          knob_options ~salt:2 i ])
    Catalog.all

let check_run_rejects_renamed_column () =
  let e = Catalog.find_exn "G1" in
  let q = Catalog.parse e in
  let kind = Engine.Rapid_analytics in
  let input = input_for e.Catalog.dataset in
  match run_checked kind Plan_util.default_options input q with
  | Error msg -> Alcotest.failf "the engine's real table: %s" msg
  | Ok table -> (
    let renamed =
      { table with
        Table.schema = List.map (fun c -> c ^ "_x") table.Table.schema }
    in
    match Plan_verify.check_run kind q renamed with
    | None -> Alcotest.fail "a renamed column passed the check"
    | Some msg ->
      let prefix = "plan verification failed (rapid-analytics): " in
      Alcotest.(check string) "names the engine" prefix
        (String.sub msg 0 (min (String.length msg) (String.length prefix))))

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    lint_cases
  @ [
      Alcotest.test_case "parse-error carries location" `Quick
        parse_error_location;
      Alcotest.test_case "clean query has no diagnostics" `Quick
        clean_query_is_clean;
      Alcotest.test_case "catalog lints clean" `Quick catalog_lints_clean;
      Alcotest.test_case "verifier: broken grouping key" `Quick
        broken_group_key;
      Alcotest.test_case "verifier: broken aggregate argument" `Quick
        broken_agg_arg;
      Alcotest.test_case "verifier: aggregate output collides" `Quick
        colliding_agg_out;
      Alcotest.test_case "verifier: disconnected workflow" `Quick
        disconnected_workflow;
      Alcotest.test_case "verifier: non-overlapping composite" `Quick
        non_overlapping_composite;
      Alcotest.test_case "verifier: schema mismatch" `Quick schema_mismatch;
      Alcotest.test_case "verifier: cross-engine disagreement" `Quick
        cross_engine_disagreement;
      Alcotest.test_case "expected schema of MG1" `Quick
        expected_schema_of_mqo;
      Alcotest.test_case "catalog verifies clean" `Quick
        catalog_verifies_clean;
      Alcotest.test_case "catalog x engines x knobs verify clean" `Slow
        catalog_times_engines_times_knobs;
      Alcotest.test_case "check_run rejects a renamed column" `Quick
        check_run_rejects_renamed_column;
    ]
