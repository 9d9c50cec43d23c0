(* SPARQL front end: lexer, parser, star decomposition, analytical normal
   form, filter evaluation, and aggregate accumulators. *)

open Rapida_sparql
module Term = Rapida_rdf.Term
module Namespace = Rapida_rdf.Namespace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- lexer --------------------------------------------------------------- *)

let test_lexer_basics () =
  match Lexer.tokenize {|SELECT ?x { ?x a Thing . FILTER(?y >= 5.5) } # end|} with
  | Error e -> Alcotest.failf "%a" Lexer.pp_error e
  | Ok toks ->
    let kinds = List.map (fun t -> t.Lexer.tok) toks in
    check_bool "has SELECT" true (List.mem (Lexer.KEYWORD "SELECT") kinds);
    check_bool "has var x" true (List.mem (Lexer.VAR "x") kinds);
    check_bool "has a" true (List.mem Lexer.A kinds);
    check_bool "has GE" true (List.mem Lexer.GE kinds);
    check_bool "has float" true (List.mem (Lexer.FLOAT 5.5) kinds);
    check_bool "comment dropped" true
      (not (List.exists (function Lexer.QNAME "end" -> true | _ -> false) kinds))

let test_lexer_number_dot () =
  (* "?o 5 ." must lex the 5 and the terminating dot separately. *)
  match Lexer.tokenize "?s p 5 . ?s q 7." with
  | Error e -> Alcotest.failf "%a" Lexer.pp_error e
  | Ok toks ->
    let dots =
      List.length (List.filter (fun t -> t.Lexer.tok = Lexer.DOT) toks)
    in
    check_int "two dots" 2 dots

let test_lexer_iri_vs_lt () =
  match Lexer.tokenize "FILTER(?x < 5) ?s <http://a/b> ?o" with
  | Error e -> Alcotest.failf "%a" Lexer.pp_error e
  | Ok toks ->
    let kinds = List.map (fun t -> t.Lexer.tok) toks in
    check_bool "LT" true (List.mem Lexer.LT kinds);
    check_bool "IRI" true (List.mem (Lexer.IRIREF "http://a/b") kinds)

let test_lexer_errors () =
  (match Lexer.tokenize "\"unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string should fail");
  match Lexer.tokenize "?" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty variable should fail"

(* --- parser -------------------------------------------------------------- *)

let parse_ok src =
  match Parser.parse src with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_parse_simple () =
  let q = parse_ok "SELECT ?s { ?s a Widget . ?s price ?p . }" in
  let s = q.Ast.base_select in
  check_int "projection" 1 (List.length s.Ast.projection);
  check_int "triples" 2 (List.length s.Ast.where)

let test_parse_semicolon_shorthand () =
  let q = parse_ok "SELECT ?s { ?s a Widget ; price ?p ; label ?l . }" in
  check_int "three triples" 3 (List.length q.Ast.base_select.Ast.where)

let test_parse_comma_shorthand () =
  let q = parse_ok "SELECT ?s { ?s tag ?a, ?b, ?c . }" in
  check_int "three triples" 3 (List.length q.Ast.base_select.Ast.where)

let test_parse_prefix () =
  let q =
    parse_ok
      "PREFIX ex: <http://e.x/> SELECT ?s { ?s ex:knows ?o . }"
  in
  match q.Ast.base_select.Ast.where with
  | [ Ast.Ptriple { tp_p = Ast.Nterm (Term.Iri iri); _ } ] ->
    check_string "expanded" "http://e.x/knows" iri
  | _ -> Alcotest.fail "expected one triple with expanded property"

let test_parse_bare_name_expansion () =
  let q = parse_ok "SELECT ?s { ?s price ?p . }" in
  match q.Ast.base_select.Ast.where with
  | [ Ast.Ptriple { tp_p = Ast.Nterm (Term.Iri iri); _ } ] ->
    check_string "bench namespace" (Namespace.bench ^ "price") iri
  | _ -> Alcotest.fail "expected one triple"

let test_parse_aggregates () =
  let q =
    parse_ok
      "SELECT ?g (COUNT(?x) AS ?c) (SUM(?x) ?s) (AVG(DISTINCT ?x) AS ?a) \
       { ?g v ?x . } GROUP BY ?g"
  in
  let s = q.Ast.base_select in
  check_int "group by" 1 (List.length s.Ast.group_by);
  match s.Ast.projection with
  | [ Ast.Svar "g"; Ast.Sexpr (Ast.Eagg (Ast.Count, _, false), "c");
      Ast.Sexpr (Ast.Eagg (Ast.Sum, _, false), "s");
      Ast.Sexpr (Ast.Eagg (Ast.Avg, _, true), "a") ] -> ()
  | _ -> Alcotest.fail "unexpected projection shape"

let test_parse_count_star () =
  let q = parse_ok "SELECT (COUNT(*) AS ?n) { ?s p ?o . }" in
  match q.Ast.base_select.Ast.projection with
  | [ Ast.Sexpr (Ast.Eagg (Ast.Count, None, false), "n") ] -> ()
  | _ -> Alcotest.fail "expected count-star"

let test_parse_filter_forms () =
  let q =
    parse_ok
      {|SELECT ?s { ?s price ?p . FILTER(?p > 100) FILTER regex(?s, "abc", "i") }|}
  in
  let filters =
    List.filter (function Ast.Pfilter _ -> true | _ -> false)
      q.Ast.base_select.Ast.where
  in
  check_int "two filters" 2 (List.length filters)

let test_parse_subselect () =
  let q =
    parse_ok
      {|SELECT ?g ?c { { SELECT ?g (COUNT(?x) AS ?c) { ?g v ?x . } GROUP BY ?g } }|}
  in
  match q.Ast.base_select.Ast.where with
  | [ Ast.Psub sub ] -> check_int "inner group" 1 (List.length sub.Ast.group_by)
  | _ -> Alcotest.fail "expected one subselect"

let test_parse_optional () =
  let q = parse_ok "SELECT ?s { ?s a T . OPTIONAL { ?s opt ?o . } }" in
  let opts =
    List.filter (function Ast.Poptional _ -> true | _ -> false)
      q.Ast.base_select.Ast.where
  in
  check_int "one optional" 1 (List.length opts)

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" src)
    [
      "SELECT ?s { ?s p ?o . } trailing";
      "SELECT ?s { ?s p }";
      "SELECT (COUNT(?x) AS ) { ?s p ?x . }";
      "SELECT ?s WHERE ?s p ?o";
      "SELECT ?s { ?s p ?o . } GROUP BY";
    ]

let test_parse_error_positions () =
  (* Structured parse errors locate the offending token. *)
  let expect src line col =
    match Parser.parse_located src with
    | Ok _ -> Alcotest.failf "should not parse: %s" src
    | Error { Parser.pos = None; reason } ->
      Alcotest.failf "no position for %S: %s" src reason
    | Error { Parser.pos = Some p; _ } ->
      check_int (Printf.sprintf "%S line" src) line p.Srcloc.line;
      check_int (Printf.sprintf "%S col" src) col p.Srcloc.col
  in
  (* The trailing garbage starts at column 25 of line 1. *)
  expect "SELECT ?s { ?s p ?o . } trailing" 1 25;
  (* The closing brace where an object was expected, line 2 col 12. *)
  expect "SELECT ?s {\n  ?s price }" 2 12;
  (* EOF after GROUP BY on line 3. *)
  expect "SELECT ?s {\n  ?s price ?p . }\nGROUP BY" 3 9

let test_lexer_error_positions () =
  match Lexer.tokenize "?s price \"unterminated" with
  | Ok _ -> Alcotest.fail "should not lex"
  | Error e ->
    check_int "line" 1 e.Lexer.pos.Srcloc.line;
    check_string "reason" "unterminated string" e.Lexer.reason

let test_parse_located_string_agreement () =
  (* [parse] renders exactly what [parse_located] reports. *)
  let src = "SELECT ?s { ?s price }" in
  match (Parser.parse src, Parser.parse_located src) with
  | Error rendered, Error e ->
    check_string "rendering" rendered (Fmt.str "%a" Parser.pp_error e)
  | _ -> Alcotest.fail "both should fail"

(* --- star decomposition --------------------------------------------------- *)

let bgp_of src =
  let q = parse_ok src in
  List.filter_map
    (function Ast.Ptriple tp -> Some tp | _ -> None)
    q.Ast.base_select.Ast.where

let test_star_decompose () =
  let bgp = bgp_of "SELECT * { ?a p ?x . ?b q ?a . ?a r ?y . ?b s ?z . }" in
  let stars = Star.decompose bgp in
  check_int "two stars" 2 (List.length stars);
  let star_a = List.nth stars 0 in
  check_int "star a patterns" 2 (List.length star_a.Star.patterns);
  check_int "star a props" 2 (List.length (Star.props star_a))

let test_star_edges_subject_object () =
  (* AQ2-style: ?s1 rooted star joined from ?s2's object. *)
  let bgp = bgp_of "SELECT * { ?s1 a PT18 . ?s2 pr ?s1 . ?s2 pc ?o1 . }" in
  let stars = Star.decompose bgp in
  let edges = Star.edges stars in
  check_int "one edge" 1 (List.length edges);
  let e = List.hd edges in
  check_string "edge var" "s1" e.Star.var;
  check_bool "left subject role" true (e.Star.left.role = Star.Subject);
  check_bool "right object role" true (e.Star.right.role = Star.Object);
  (match e.Star.right.prop with
  | Some p -> check_string "joining property" (Namespace.bench ^ "pr") (Term.lexical p)
  | None -> Alcotest.fail "expected a joining property")

let test_star_edges_object_object () =
  let bgp = bgp_of "SELECT * { ?s3 ve ?o6 . ?s4 cn ?o6 . }" in
  let edges = Star.edges (Star.decompose bgp) in
  check_int "one edge" 1 (List.length edges);
  let e = List.hd edges in
  check_bool "both object roles" true
    (e.Star.left.role = Star.Object && e.Star.right.role = Star.Object)

let test_star_type_objects () =
  let bgp = bgp_of "SELECT * { ?s a PT18 . ?s pf ?f . }" in
  let star = List.hd (Star.decompose bgp) in
  check_int "one type object" 1 (List.length (Star.type_objects star))

let test_star_connected () =
  let bgp = bgp_of "SELECT * { ?a p ?x . ?b q ?y . }" in
  let stars = Star.decompose bgp in
  check_bool "disconnected" false (Star.connected stars (Star.edges stars))

(* --- analytical normal form ----------------------------------------------- *)

let test_analytical_single () =
  let t =
    Analytical.parse_exn
      "SELECT ?g (COUNT(?x) AS ?c) { ?g v ?x . } GROUP BY ?g"
  in
  check_int "one subquery" 1 (List.length t.Analytical.subqueries);
  check_int "identity outer projection" 0 (List.length t.Analytical.outer_projection);
  let sq = List.hd t.Analytical.subqueries in
  Alcotest.(check (list string)) "columns" [ "g"; "c" ]
    (Analytical.output_columns sq)

let test_analytical_multi () =
  let t =
    Analytical.parse_exn
      {|SELECT ?g ?c ?t {
        { SELECT ?g (COUNT(?x) AS ?c) { ?s k ?g . ?s v ?x . } GROUP BY ?g }
        { SELECT (COUNT(?x1) AS ?t) { ?s1 k ?g1 . ?s1 v ?x1 . } }
      }|}
  in
  check_int "two subqueries" 2 (List.length t.Analytical.subqueries);
  let a = List.nth t.Analytical.subqueries 0 in
  let b = List.nth t.Analytical.subqueries 1 in
  Alcotest.(check (list string)) "join vars" [] (Analytical.join_vars a b)

let test_analytical_errors () =
  List.iter
    (fun src ->
      match Analytical.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should be rejected: %s" src)
    [
      (* projected var not grouped *)
      "SELECT ?g (COUNT(?x) AS ?c) { ?g v ?x . }";
      (* no aggregates *)
      "SELECT ?g { ?g v ?x . } GROUP BY ?g";
      (* group var unbound *)
      "SELECT ?z (COUNT(?x) AS ?c) { ?g v ?x . } GROUP BY ?z";
      (* OPTIONAL unsupported *)
      "SELECT (COUNT(?x) AS ?c) { ?g v ?x . OPTIONAL { ?g w ?y . } }";
      (* triples next to subqueries *)
      {|SELECT ?c { ?a b ?c . { SELECT (COUNT(?x) AS ?n) { ?g v ?x . } } }|};
    ]

(* --- bindings and filter evaluation ---------------------------------------- *)

let test_binding_merge () =
  let b1 = Binding.bind Binding.empty "x" (Term.int 1) in
  let b2 = Binding.bind Binding.empty "y" (Term.int 2) in
  let b3 = Binding.bind Binding.empty "x" (Term.int 9) in
  check_bool "compatible" true (Binding.compatible b1 b2);
  check_bool "incompatible" false (Binding.compatible b1 b3);
  let m = Binding.merge b1 b2 in
  Alcotest.(check (option bool)) "merged x" (Some true)
    (Option.map (Term.equal (Term.int 1)) (Binding.lookup m "x"))

let eval_filter_src binding expr_src =
  (* Parse "FILTER(expr)" through a dummy query to reuse the parser. *)
  let q = parse_ok (Printf.sprintf "SELECT ?x { ?x p ?y . FILTER(%s) }" expr_src) in
  match
    List.find_map
      (function Ast.Pfilter e -> Some e | _ -> None)
      q.Ast.base_select.Ast.where
  with
  | Some e -> Binding.eval_filter binding e
  | None -> Alcotest.fail "no filter parsed"

let test_filter_eval () =
  let b =
    Binding.bind
      (Binding.bind Binding.empty "x" (Term.int 10))
      "name" (Term.str "Hepatomegaly risk")
  in
  check_bool "gt" true (eval_filter_src b "?x > 5");
  check_bool "le" false (eval_filter_src b "?x <= 5");
  check_bool "arith" true (eval_filter_src b "?x * 2 = 20");
  check_bool "and or" true (eval_filter_src b "?x > 100 || ?x = 10 && ?x < 11");
  check_bool "regex ci" true (eval_filter_src b {|regex(?name, "hepatomegaly", "i")|});
  check_bool "regex cs" false (eval_filter_src b {|regex(?name, "hepatomegaly")|});
  check_bool "unbound is error -> false" false (eval_filter_src b "?missing > 1");
  check_bool "not" true (eval_filter_src b "!(?x > 100)");
  check_bool "division" true (eval_filter_src b "?x / 4 = 2.5")

(* The substring search behind regex filters, at its edges. *)
let test_substring_search () =
  let has needle hay = Binding.contains ~needle hay in
  let has_ci needle hay = Binding.contains_ci ~needle hay in
  check_bool "empty needle" true (has "" "abc");
  check_bool "empty needle, empty hay" true (has "" "");
  check_bool "empty needle ci" true (has_ci "" "");
  check_bool "needle longer than hay" false (has "abcd" "abc");
  check_bool "needle longer than hay ci" false (has_ci "ABCD" "abc");
  check_bool "match at the first position" true (has "ab" "abc");
  check_bool "match at the last position" true (has "bc" "abc");
  check_bool "last character" true (has "c" "abc");
  check_bool "last position ci" true (has_ci "BC" "abc");
  check_bool "partial match at the end" false (has "cd" "abc");
  check_bool "no match" false (has "x" "abc");
  check_bool "whole hay" true (has "abc" "abc");
  check_bool "case-sensitive" false (has "Abc" "abc");
  check_bool "folds the needle" true (has_ci "HePaTo" "hepatomegaly");
  check_bool "folds the hay" true (has_ci "megaly" "HEPATOMEGALY");
  check_bool "ci still needs a match" false (has_ci "hepatic" "HEPATOMEGALY");
  check_bool "only ASCII folds" false (has_ci "\xc3\xa9" "\xc3\x89")

(* --- aggregate accumulators ------------------------------------------------ *)

let finish_exn state =
  match Aggregate.finish state with
  | Some t -> t
  | None -> Alcotest.fail "expected a value"

let test_aggregate_basics () =
  let add_all f distinct values =
    List.fold_left
      (fun s v -> Aggregate.add s (Some v))
      (Aggregate.init f ~distinct) values
  in
  let vals = [ Term.int 5; Term.int 3; Term.int 5 ] in
  Alcotest.(check string) "count" "3"
    (Term.lexical (finish_exn (add_all Ast.Count false vals)));
  Alcotest.(check string) "sum" "13"
    (Term.lexical (finish_exn (add_all Ast.Sum false vals)));
  Alcotest.(check string) "min" "3"
    (Term.lexical (finish_exn (add_all Ast.Min false vals)));
  Alcotest.(check string) "max" "5"
    (Term.lexical (finish_exn (add_all Ast.Max false vals)));
  Alcotest.(check string) "distinct count" "2"
    (Term.lexical (finish_exn (add_all Ast.Count true vals)));
  Alcotest.(check string) "distinct sum" "8"
    (Term.lexical (finish_exn (add_all Ast.Sum true vals)));
  check_bool "empty avg" true
    (Aggregate.finish (Aggregate.init Ast.Avg ~distinct:false) = None);
  Alcotest.(check string) "empty count" "0"
    (Term.lexical (finish_exn (Aggregate.init Ast.Count ~distinct:false)))

let test_aggregate_unbound_skipped () =
  let s = Aggregate.init Ast.Count ~distinct:false in
  let s = Aggregate.add s None in
  let s = Aggregate.add s (Some (Term.int 1)) in
  Alcotest.(check string) "count skips unbound" "1"
    (Term.lexical (finish_exn s))

let gen_func = QCheck2.Gen.oneofl Ast.[ Count; Sum; Avg; Min; Max ]

let gen_values =
  QCheck2.Gen.(list_size (0 -- 20) (map Term.int (int_range (-100) 100)))

let states_equal a b =
  match Aggregate.finish a, Aggregate.finish b with
  | None, None -> true
  | Some x, Some y -> (
    match Term.as_number x, Term.as_number y with
    | Some fx, Some fy -> Float.abs (fx -. fy) < 1e-6
    | _ -> Term.equal x y)
  | _ -> false

let prop_merge_is_split_fold =
  QCheck2.Test.make ~count:300
    ~name:"aggregate merge equals unsplit fold (combiner soundness)"
    QCheck2.Gen.(triple gen_func bool (pair gen_values gen_values))
    (fun (f, distinct, (xs, ys)) ->
      let fold vs =
        List.fold_left
          (fun s v -> Aggregate.add s (Some v))
          (Aggregate.init f ~distinct) vs
      in
      states_equal
        (Aggregate.merge (fold xs) (fold ys))
        (fold (xs @ ys)))

let prop_merge_commutative =
  QCheck2.Test.make ~count:300 ~name:"aggregate merge commutes"
    QCheck2.Gen.(triple gen_func bool (pair gen_values gen_values))
    (fun (f, distinct, (xs, ys)) ->
      let fold vs =
        List.fold_left
          (fun s v -> Aggregate.add s (Some v))
          (Aggregate.init f ~distinct) vs
      in
      states_equal
        (Aggregate.merge (fold xs) (fold ys))
        (Aggregate.merge (fold ys) (fold xs)))

(* --- total robustness ---------------------------------------------------- *)

(* Crashers found by byte-fuzzing before the front end was hardened:
   each input used to raise (Failure from int_of_string / float_of_string,
   or stack growth on deep nesting) instead of returning a located
   error. They must stay mere [Error]s forever. *)
let test_parse_crashers () =
  let crashers =
    [
      "1..2";
      "1.2.3";
      "SELECT ?x { ?x ?p 1.2.3 }";
      String.make 25 '9';
      "-" ^ String.make 25 '9';
      "SELECT ?x { ?x ?p " ^ String.make 30 '9' ^ " }";
      "SELECT ?x { FILTER(" ^ String.make 5000 '(' ^ "1";
      "SELECT ?x { FILTER(" ^ String.make 5000 '!' ^ "?x) }";
      String.concat "" (List.init 5000 (fun _ -> "SELECT ?x {"));
    ]
  in
  List.iter
    (fun input ->
      match Parser.parse input with
      | Ok _ | Error _ -> ()
      | exception e ->
        Alcotest.failf "parser raised %s on %S" (Printexc.to_string e)
          (if String.length input > 40 then String.sub input 0 40 ^ "..."
           else input))
    crashers

(* 10k random byte strings through the whole front end: tokenize, parse,
   and normalize must always return, never raise. The seeded stream makes
   a failure reproducible from the index alone. *)
let test_parse_random_bytes () =
  let rng = Rapida_datagen.Prng.create ~seed:2024 in
  for i = 0 to 9_999 do
    let len = Rapida_datagen.Prng.int rng 60 in
    let input =
      String.init len (fun _ -> Char.chr (Rapida_datagen.Prng.int rng 256))
    in
    match Parser.parse input with
    | Ok q -> ignore (Analytical.of_query q)
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "input %d raised %s: %S" i (Printexc.to_string e) input
  done

(* Deep nesting is refused with a located parse error, not a crash. *)
let test_parse_nesting_limit () =
  let probe input =
    match Parser.parse_located input with
    | Ok _ -> Alcotest.failf "accepted unbounded nesting"
    | Error { Parser.reason; pos = _ } ->
      check_bool "mentions nesting" true
        (String.length reason > 0)
  in
  probe ("SELECT ?x { FILTER(" ^ String.make 400 '(' ^ "?x" ^ String.make 400 ')' ^ ") }");
  probe (String.concat "" (List.init 400 (fun _ -> "SELECT ?x {")))

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
    Alcotest.test_case "lexer number-dot" `Quick test_lexer_number_dot;
    Alcotest.test_case "lexer iri vs lt" `Quick test_lexer_iri_vs_lt;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parse simple" `Quick test_parse_simple;
    Alcotest.test_case "parse ; shorthand" `Quick test_parse_semicolon_shorthand;
    Alcotest.test_case "parse , shorthand" `Quick test_parse_comma_shorthand;
    Alcotest.test_case "parse prefix" `Quick test_parse_prefix;
    Alcotest.test_case "parse bare names" `Quick test_parse_bare_name_expansion;
    Alcotest.test_case "parse aggregates" `Quick test_parse_aggregates;
    Alcotest.test_case "parse count-star" `Quick test_parse_count_star;
    Alcotest.test_case "parse filters" `Quick test_parse_filter_forms;
    Alcotest.test_case "parse subselect" `Quick test_parse_subselect;
    Alcotest.test_case "parse optional" `Quick test_parse_optional;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse error positions" `Quick
      test_parse_error_positions;
    Alcotest.test_case "lexer error positions" `Quick
      test_lexer_error_positions;
    Alcotest.test_case "parse/parse_located agreement" `Quick
      test_parse_located_string_agreement;
    Alcotest.test_case "star decompose" `Quick test_star_decompose;
    Alcotest.test_case "star edges subject-object" `Quick test_star_edges_subject_object;
    Alcotest.test_case "star edges object-object" `Quick test_star_edges_object_object;
    Alcotest.test_case "star type objects" `Quick test_star_type_objects;
    Alcotest.test_case "star connectivity" `Quick test_star_connected;
    Alcotest.test_case "analytical single" `Quick test_analytical_single;
    Alcotest.test_case "analytical multi" `Quick test_analytical_multi;
    Alcotest.test_case "analytical errors" `Quick test_analytical_errors;
    Alcotest.test_case "binding merge" `Quick test_binding_merge;
    Alcotest.test_case "filter evaluation" `Quick test_filter_eval;
    Alcotest.test_case "substring search" `Quick test_substring_search;
    Alcotest.test_case "aggregate basics" `Quick test_aggregate_basics;
    Alcotest.test_case "aggregate unbound" `Quick test_aggregate_unbound_skipped;
    Alcotest.test_case "parse crashers" `Quick test_parse_crashers;
    Alcotest.test_case "parse random bytes" `Quick test_parse_random_bytes;
    Alcotest.test_case "parse nesting limit" `Quick test_parse_nesting_limit;
    QCheck_alcotest.to_alcotest prop_merge_is_split_fold;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
  ]
