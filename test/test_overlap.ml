(* Overlap detection and composite pattern construction, tested against
   the paper's Figure 3 examples (AQ2 overlaps, AQ3 does not because the
   join roles differ) and the composite GP' of the running example. *)

module Overlap = Rapida_core.Overlap
module Composite = Rapida_core.Composite
module Analytical = Rapida_sparql.Analytical
module Star = Rapida_sparql.Star
module Ops = Rapida_ntga.Ops
module Term = Rapida_rdf.Term
module Namespace = Rapida_rdf.Namespace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let subqueries_of src =
  (Analytical.parse_exn src).Analytical.subqueries

let two src =
  match subqueries_of src with
  | [ a; b ] -> (a, b)
  | _ -> Alcotest.fail "expected two subqueries"

(* AQ2 from Figure 3: subject-object joins on both sides with matching
   roles -> the patterns overlap. *)
let aq2 =
  {|SELECT ?n1 ?n2 {
  { SELECT (COUNT(?s1) AS ?n1)
    { ?s1 a PT18 . ?s2 pr ?s1 . ?s2 pc ?o1 . ?s2 ve ?o2 . } }
  { SELECT (COUNT(?s1) AS ?n2)
    { ?s1 a PT18 . ?s1 pf ?o3 . ?s2 pr ?s1 . ?s2 pc ?o4 . } }
}|}

(* AQ3 from Figure 3: GP1 joins its stars object-subject, GP2 joins them
   object-object -> role-equivalence fails. *)
let aq3 =
  {|SELECT ?n1 ?n2 {
  { SELECT (COUNT(?s3) AS ?n1)
    { ?s3 pr ?s1 . ?s3 pc ?o5 . ?s3 ve ?s4 . ?s4 cn ?o6 . } }
  { SELECT (COUNT(?s3) AS ?n2)
    { ?s3 pr ?s1 . ?s3 pc ?o5 . ?s3 ve ?o6 . ?s4 cn ?o6 . } }
}|}

let test_aq2_overlaps () =
  let a, b = two aq2 in
  let report = Overlap.check a b in
  check_bool "AQ2 overlaps" true (Overlap.overlaps report);
  check_int "two star pairs" 2 (List.length report.Overlap.pairs)

let test_aq3_no_overlap () =
  let a, b = two aq3 in
  let report = Overlap.check a b in
  check_bool "AQ3 does not overlap" false (Overlap.overlaps report);
  check_bool "role-equivalence failure reported" true
    (List.exists
       (function Overlap.Edge_not_role_equivalent _ -> true | _ -> false)
       report.Overlap.failures)

let test_type_object_mismatch () =
  let a, b =
    two
      {|SELECT ?n1 ?n2 {
  { SELECT (COUNT(?x) AS ?n1) { ?s1 a PT18 . ?s1 pc ?x . } }
  { SELECT (COUNT(?x) AS ?n2) { ?s1 a PT9 . ?s1 pc ?x . } }
}|}
  in
  let report = Overlap.check a b in
  check_bool "different rdf:type objects do not overlap" false
    (Overlap.overlaps report)

let test_constant_conflict () =
  let a, b =
    two
      {|SELECT ?n1 ?n2 {
  { SELECT (COUNT(?x) AS ?n1) { ?s pub_type "News" . ?s chem ?x . } }
  { SELECT (COUNT(?x) AS ?n2) { ?s pub_type "Review" . ?s chem ?x . } }
}|}
  in
  check_bool "conflicting constants rejected" false
    (Overlap.overlaps (Overlap.check a b))

let test_star_count_mismatch () =
  let a, b =
    two
      {|SELECT ?n1 ?n2 {
  { SELECT (COUNT(?x) AS ?n1) { ?s p ?x . ?x q ?y . } }
  { SELECT (COUNT(?x) AS ?n2) { ?s p ?x . } }
}|}
  in
  let report = Overlap.check a b in
  check_bool "star count mismatch" true
    (List.exists
       (function Overlap.Star_count_mismatch _ -> true | _ -> false)
       report.Overlap.failures)

(* The running example AQ1 / MG3 shape: composite star properties are
   {ty18, pf} / {pr, pc, ve} / {cn} with pf secondary (paper §3). *)
let test_composite_running_example () =
  let sqs =
    subqueries_of
      {|SELECT ?f ?c ?sumF ?sumT {
  { SELECT ?f ?c (SUM(?pr2) AS ?sumF)
    { ?p2 a PT18 . ?p2 pf ?f .
      ?off2 product ?p2 . ?off2 price ?pr2 . ?off2 vendor ?v2 .
      ?v2 country ?c . }
    GROUP BY ?f ?c }
  { SELECT ?c (SUM(?pr) AS ?sumT)
    { ?p1 a PT18 .
      ?off1 product ?p1 . ?off1 price ?pr . ?off1 vendor ?v1 .
      ?v1 country ?c . }
    GROUP BY ?c }
}|}
  in
  match Composite.build sqs with
  | Error e -> Alcotest.fail e
  | Ok composite ->
    check_int "three composite stars" 3 (List.length composite.Composite.stars);
    let star0 = List.nth composite.Composite.stars 0 in
    let prim0 = Composite.prim_reqs composite star0 in
    let sec0 = Composite.sec_reqs composite star0 in
    check_int "star0 primary = {ty18}" 1 (List.length prim0);
    check_int "star0 secondary = {pf}" 1 (List.length sec0);
    check_bool "pf is the secondary" true
      (List.exists
         (fun (r : Ops.prop_req) ->
           Term.equal r.Ops.prop (Term.iri (Namespace.bench ^ "pf")))
         sec0);
    let star1 = List.nth composite.Composite.stars 1 in
    check_int "star1 primary = {product, price, vendor}" 3
      (List.length (Composite.prim_reqs composite star1));
    check_int "star1 no secondary" 0
      (List.length (Composite.sec_reqs composite star1));
    (* α conditions: pattern 0 requires pf; pattern 1 requires nothing. *)
    let alpha_of id =
      (List.find
         (fun (p : Composite.pattern_info) -> p.pat_id = id)
         composite.Composite.patterns)
        .Composite.alpha
    in
    check_int "alpha_0 = pf present" 1 (List.length (alpha_of 0));
    check_int "alpha_1 = true" 0 (List.length (alpha_of 1))

let test_composite_var_map () =
  let sqs =
    subqueries_of
      {|SELECT ?c1 ?c2 {
  { SELECT (COUNT(?o1) AS ?c1) { ?s1 p ?o1 . ?s1 q ?x1 . } }
  { SELECT (COUNT(?o2) AS ?c2) { ?s2 p ?o2 . ?s2 r ?y2 . } }
}|}
  in
  match Composite.build sqs with
  | Error e -> Alcotest.fail e
  | Ok composite ->
    let info =
      List.find
        (fun (p : Composite.pattern_info) -> p.pat_id = 1)
        composite.Composite.patterns
    in
    (* Pattern 1's subject and shared object map onto pattern 0's names;
       its own secondary object keeps a fresh name. *)
    Alcotest.(check string) "subject mapped" "s1" (Composite.map_var info "s2");
    Alcotest.(check string) "shared object mapped" "o1"
      (Composite.map_var info "o2");
    check_bool "own secondary keeps identity-ish name" true
      (Composite.map_var info "y2" <> "o1");
    (* Pattern columns include the mapped subject. *)
    let cols = Composite.pattern_columns composite info in
    check_bool "columns include subject" true (List.mem "s1" cols)

let test_composite_identical_patterns () =
  (* Table 2 row 1: identical patterns — no secondary, both alphas true. *)
  let sqs =
    subqueries_of
      {|SELECT ?g ?c1 ?c2 {
  { SELECT ?g (COUNT(?x) AS ?c1) { ?s k ?g . ?s v ?x . } GROUP BY ?g }
  { SELECT (COUNT(?x1) AS ?c2) { ?s1 k ?g1 . ?s1 v ?x1 . } }
}|}
  in
  match Composite.build sqs with
  | Error e -> Alcotest.fail e
  | Ok composite ->
    List.iter
      (fun star ->
        check_int "no secondary requirements" 0
          (List.length (Composite.sec_reqs composite star)))
      composite.Composite.stars;
    List.iter
      (fun (p : Composite.pattern_info) ->
        check_int "alpha true" 0 (List.length p.Composite.alpha))
      composite.Composite.patterns

let test_order_edges () =
  let sq =
    List.hd
      (subqueries_of
         "SELECT (COUNT(?a) AS ?n) { ?a p ?b . ?b q ?c . ?c r ?d . }")
  in
  match
    Composite.order_edges ~star_order:None
      ~star_ids:(List.map (fun (s : Star.t) -> s.Star.id) sq.Analytical.stars)
      ~edges:sq.Analytical.edges
  with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    check_int "chain of three stars has two edges" 2 (List.length plan)

let test_order_edges_disconnected () =
  let sq =
    List.hd
      (subqueries_of "SELECT (COUNT(?a) AS ?n) { ?a p ?b . ?c q ?d . }")
  in
  match
    Composite.order_edges ~star_order:None
      ~star_ids:(List.map (fun (s : Star.t) -> s.Star.id) sq.Analytical.stars)
      ~edges:sq.Analytical.edges
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "disconnected pattern must be rejected"

(* The left-deep walk over a hand-built plan: the first edge seeds the
   prefix with both stars; each later edge joins its fresh star through
   its bound one, whichever side it sits on; an edge closing a cycle is
   skipped without consuming a join number. *)
let test_left_deep () =
  let ep star = { Star.star; role = Star.Subject; prop = None } in
  let edge var l r = { Star.var; left = ep l; right = ep r } in
  let plan =
    [ edge "x" 2 3; edge "y" 1 2; edge "z" 1 3; edge "w" 3 4 ]
  in
  let steps =
    Composite.left_deep (Ok plan)
      ~first:(fun e -> [ Printf.sprintf "first %s" e.Star.var ])
      ~next:(fun i acc ~bound ~fresh ~joined ->
        check_bool "joined holds fresh" true (joined fresh.Star.star);
        check_bool "joined holds bound" true (joined bound.Star.star);
        check_bool "joined excludes later stars"
          (fresh.Star.star = 4) (joined 4);
        Printf.sprintf "%d: %d -> %d" i bound.Star.star fresh.Star.star :: acc)
  in
  Alcotest.(check (list string))
    "walk" [ "first x"; "1: 2 -> 1"; "2: 3 -> 4" ] (List.rev steps);
  let raises plan =
    match
      Composite.left_deep plan ~first:(fun _ -> ())
        ~next:(fun _ () ~bound:_ ~fresh:_ ~joined:_ -> ())
    with
    | () -> false
    | exception Failure _ -> true
  in
  check_bool "Error plan raises" true (raises (Error "disconnected"));
  check_bool "empty plan raises" true (raises (Ok []))

let test_join_plan_of_catalog () =
  (* Every overlapping catalog query yields a valid join plan covering all
     composite stars. *)
  List.iter
    (fun entry ->
      let q = Rapida_queries.Catalog.parse entry in
      match Composite.build q.Analytical.subqueries with
      | Error _ -> ()
      | Ok composite -> (
        match Composite.join_plan composite with
        | Ok plan ->
          check_int
            (entry.Rapida_queries.Catalog.id ^ " plan edges")
            (List.length composite.Composite.stars - 1)
            (List.length plan)
        | Error e -> Alcotest.failf "%s: %s" entry.Rapida_queries.Catalog.id e))
    Rapida_queries.Catalog.all

let test_all_catalog_multi_overlap () =
  (* Every multi-grouping catalog query is an overlapping pair — the
     workload is designed that way (Figure 7). *)
  List.iter
    (fun entry ->
      let q = Rapida_queries.Catalog.parse entry in
      match q.Analytical.subqueries with
      | [ a; b ] ->
        check_bool
          (entry.Rapida_queries.Catalog.id ^ " overlaps")
          true
          (Overlap.overlaps (Overlap.check a b))
      | _ -> ())
    Rapida_queries.Catalog.multi_grouping

let suite =
  [
    Alcotest.test_case "AQ2 overlaps (Fig 3)" `Quick test_aq2_overlaps;
    Alcotest.test_case "AQ3 does not overlap (Fig 3)" `Quick test_aq3_no_overlap;
    Alcotest.test_case "type object mismatch" `Quick test_type_object_mismatch;
    Alcotest.test_case "constant conflict" `Quick test_constant_conflict;
    Alcotest.test_case "star count mismatch" `Quick test_star_count_mismatch;
    Alcotest.test_case "composite running example" `Quick test_composite_running_example;
    Alcotest.test_case "composite var map" `Quick test_composite_var_map;
    Alcotest.test_case "composite identical patterns" `Quick test_composite_identical_patterns;
    Alcotest.test_case "order edges" `Quick test_order_edges;
    Alcotest.test_case "order edges disconnected" `Quick test_order_edges_disconnected;
    Alcotest.test_case "left-deep walk" `Quick test_left_deep;
    Alcotest.test_case "catalog join plans" `Quick test_join_plan_of_catalog;
    Alcotest.test_case "catalog MG queries overlap" `Quick test_all_catalog_multi_overlap;
  ]
