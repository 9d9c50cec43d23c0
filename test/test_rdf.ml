(* RDF substrate: terms and their hash-consing, triples, graph indexes,
   and the N-Triples round trip. *)

open Rapida_rdf

let term = Alcotest.testable Term.pp Term.equal

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- generators for property tests -------------------------------------- *)

let gen_simple_string =
  QCheck2.Gen.(
    string_size ~gen:(oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9' ]) (1 -- 12))

let gen_escapable_string =
  QCheck2.Gen.(
    string_size
      ~gen:
        (oneof
           [ char_range 'a' 'z'; return '"'; return '\\'; return '\n';
             return '\t'; return ' ' ])
      (0 -- 12))

let gen_term =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Term.iri ("http://x.test/" ^ s)) gen_simple_string;
        map Term.str gen_escapable_string;
        map Term.int (int_range (-1000000) 1000000);
        map Term.decimal (float_bound_inclusive 100000.0);
        map Term.boolean bool;
        map (fun s -> Term.date ("2015-01-" ^ Printf.sprintf "%02d" (1 + (abs s mod 28)))) int;
        map Term.bnode gen_simple_string;
      ])

let gen_triple =
  QCheck2.Gen.(
    map3 Triple.make
      (map (fun s -> Term.iri ("http://x.test/s" ^ s)) gen_simple_string)
      (map (fun s -> Term.iri ("http://x.test/p" ^ s)) gen_simple_string)
      gen_term)

(* --- unit tests ---------------------------------------------------------- *)

let test_term_compare () =
  check_bool "iri < literal" true (Term.compare (Term.iri "z") (Term.str "a") < 0);
  check_bool "literal < bnode" true (Term.compare (Term.str "z") (Term.bnode "a") < 0);
  check_bool "equal terms" true (Term.equal (Term.int 3) (Term.int 3));
  check_bool "int lex differs from string" false
    (Term.equal (Term.int 3) (Term.str "3"))

let test_term_numbers () =
  Alcotest.(check (option (float 1e-9))) "int" (Some 42.0) (Term.as_number (Term.int 42));
  Alcotest.(check (option (float 1e-9))) "decimal" (Some 1.5) (Term.as_number (Term.decimal 1.5));
  Alcotest.(check (option (float 1e-9))) "numeric string" (Some 7.0) (Term.as_number (Term.str "7"));
  Alcotest.(check (option (float 1e-9))) "iri none" None (Term.as_number (Term.iri "x"));
  Alcotest.(check (option int)) "as_int" (Some (-3)) (Term.as_int (Term.int (-3)))

let test_decimal_canonical () =
  Alcotest.(check string) "integral decimal" "3.0"
    (Term.lexical (Term.decimal 3.0));
  check_bool "12 significant digits survive" true
    (String.length (Term.lexical (Term.decimal 12345.678901234)) >= 12)

let test_graph_indexes () =
  let p1 = Term.iri "http://x.test/p1" and p2 = Term.iri "http://x.test/p2" in
  let s1 = Term.iri "http://x.test/s1" and s2 = Term.iri "http://x.test/s2" in
  let g =
    Graph.of_list
      [
        Triple.make s1 p1 (Term.int 1);
        Triple.make s1 p2 (Term.int 2);
        Triple.make s2 p1 (Term.int 3);
      ]
  in
  check_int "size" 3 (Graph.size g);
  check_int "by_subject s1" 2 (List.length (Graph.by_subject g s1));
  check_int "by_property p1" 2 (List.length (Graph.by_property g p1));
  check_int "subjects" 2 (List.length (Graph.subjects g));
  check_int "properties" 2 (List.length (Graph.properties g));
  check_int "missing subject" 0
    (List.length (Graph.by_subject g (Term.iri "http://x.test/nope")));
  let groups = Graph.fold_subject_groups g (fun _ _ acc -> acc + 1) 0 in
  check_int "subject groups" 2 groups

let test_ntriples_examples () =
  let line = {|<http://x/s> <http://x/p> "hi \"there\""^^<http://www.w3.org/2001/XMLSchema#integer> .|} in
  (match Ntriples.parse_line line with
  | Ok (Some t) ->
    Alcotest.check term "subject" (Term.iri "http://x/s") t.Triple.s
  | Ok None -> Alcotest.fail "expected a triple"
  | Error e -> Alcotest.fail e);
  (match Ntriples.parse_line "# comment" with
  | Ok None -> ()
  | _ -> Alcotest.fail "comment should be skipped");
  (match Ntriples.parse_line "   " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank should be skipped");
  (match Ntriples.parse_line "<a> <b> ." with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated triple should fail")

let test_ntriples_file () =
  let triples =
    [
      Triple.make (Term.iri "http://x/s") (Term.iri "http://x/p") (Term.str "v");
      Triple.make (Term.bnode "b1") (Term.iri "http://x/p") (Term.int 5);
    ]
  in
  let path = Filename.temp_file "rapida" ".nt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ntriples.write_file path triples;
      match Ntriples.read_file path with
      | Ok read ->
        check_int "round trip count" 2 (List.length read);
        List.iter2
          (fun a b -> check_bool "triple equal" true (Triple.equal a b))
          triples read
      | Error e -> Alcotest.fail e)

(* Three good lines with malformed lines interleaved; line numbers are
   1-based over the whole document, comments and blanks included. *)
let dirty_doc =
  String.concat "\n"
    [
      "<http://x/s1> <http://x/p> \"a\" .";
      "# comment";
      "xyz";
      "<http://x/s2> <http://x/p> \"b\" .";
      "<a> <b> .";
      "";
      "<http://x/s3> <http://x/p> \"c\" .";
    ]

let test_ntriples_located_errors () =
  (match Ntriples.parse_line_located ~line:7 "xyz <b> <c> ." with
  | Error e ->
    check_int "line" 7 e.Ntriples.l_line;
    check_int "col" 1 e.Ntriples.l_col;
    Alcotest.(check string)
      "rendered" "line 7: col 1: unexpected character 'x'"
      (Ntriples.string_of_error e)
  | Ok _ -> Alcotest.fail "expected an error");
  (match Ntriples.parse_line_located ~line:2 "<a> <b> \"unterminated" with
  | Error e ->
    check_int "line" 2 e.Ntriples.l_line;
    check_int "col past the opening quote" 10 e.Ntriples.l_col
  | Ok _ -> Alcotest.fail "expected an error");
  (* The string shims render the located error exactly as before. *)
  match Ntriples.parse_line "xyz" with
  | Error msg ->
    Alcotest.(check string) "shim format" "col 1: unexpected character 'x'" msg
  | Ok _ -> Alcotest.fail "expected an error"

let test_ntriples_modes () =
  (match Ntriples.parse_string_mode Ntriples.Strict dirty_doc with
  | Error e -> check_int "strict fails on the first bad line" 3 e.Ntriples.l_line
  | Ok _ -> Alcotest.fail "strict should fail");
  (match Ntriples.parse_string_mode (Ntriples.Skip 1) dirty_doc with
  | Error e -> check_int "skip=1 fails on the second bad line" 5 e.Ntriples.l_line
  | Ok _ -> Alcotest.fail "skip=1 should fail");
  (match Ntriples.parse_string_mode (Ntriples.Skip 2) dirty_doc with
  | Ok { Ntriples.triples; quarantined } ->
    check_int "skip=2 loads all good lines" 3 (List.length triples);
    check_int "skip=2 quarantines both" 2 (List.length quarantined)
  | Error e -> Alcotest.fail (Ntriples.string_of_error e));
  match Ntriples.parse_string_mode Ntriples.Quarantine dirty_doc with
  | Ok { Ntriples.triples; quarantined } ->
    check_int "quarantine loads all good lines" 3 (List.length triples);
    (match quarantined with
    | [ q1; q2 ] ->
      Alcotest.(check string)
        "report entry" "line 3, col 1: unexpected character 'x': \"xyz\""
        (Fmt.str "%a" Ntriples.pp_quarantined q1);
      check_int "second quarantined line" 5 q2.Ntriples.q_error.Ntriples.l_line
    | _ -> Alcotest.fail "expected two quarantined lines")
  | Error e -> Alcotest.fail (Ntriples.string_of_error e)

let test_ntriples_parse_mode () =
  check_bool "strict" true (Ntriples.parse_mode "strict" = Ok Ntriples.Strict);
  check_bool "skip default budget" true
    (Ntriples.parse_mode "skip" = Ok (Ntriples.Skip 100));
  check_bool "skip=7" true (Ntriples.parse_mode "skip=7" = Ok (Ntriples.Skip 7));
  check_bool "quarantine" true
    (Ntriples.parse_mode "quarantine" = Ok Ntriples.Quarantine);
  List.iter
    (fun s ->
      match Ntriples.parse_mode s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error msg -> check_bool "diagnostic" true (msg <> ""))
    [ "lenient"; "skip=-1"; "skip=x"; "" ]

(* --- property tests ------------------------------------------------------ *)

let prop_ntriples_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"ntriples line round-trips"
    gen_triple (fun t ->
      match Ntriples.parse_line (Ntriples.triple_to_line t) with
      | Ok (Some t') -> Triple.equal t t'
      | Ok None | Error _ -> false)

let prop_term_compare_total =
  QCheck2.Test.make ~count:500 ~name:"term compare is antisymmetric"
    QCheck2.Gen.(pair gen_term gen_term)
    (fun (a, b) ->
      let c1 = Term.compare a b and c2 = Term.compare b a in
      (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0))

let prop_hash_consistent =
  QCheck2.Test.make ~count:500 ~name:"equal terms hash equally"
    gen_term (fun t -> Term.hash t = Term.hash t)

(* Terms that share their text but differ in kind or datatype, so that
   equality must look past the lexical form. *)
let gen_same_text_term =
  QCheck2.Gen.(
    let* lex = oneofl [ "1"; "a"; "http://x.test/a" ] in
    oneofl
      (Term.iri lex :: Term.bnode lex
      :: List.map (Term.literal lex)
           [ Term.Dstring; Dint; Ddecimal; Dboolean; Ddate ]))

(* [t] rebuilt through the constructors from copies of its strings. *)
let copy_term = function
  | Term.Iri s -> Term.iri (s ^ "")
  | Term.Bnode s -> Term.bnode (s ^ "")
  | Term.Literal { lex; datatype } -> Term.literal (lex ^ "") datatype

let prop_term_equal_is_compare =
  QCheck2.Test.make ~count:1000 ~name:"term equal = (compare = 0)"
    ~print:(fun (a, b) -> Term.to_ntriples a ^ " vs " ^ Term.to_ntriples b)
    QCheck2.Gen.(
      oneof
        [ pair gen_term gen_term;
          pair gen_same_text_term gen_same_text_term;
          map (fun t -> (t, t)) gen_term;
          map (fun t -> (t, copy_term t)) gen_term ])
    (fun (a, b) -> Term.equal a b = (Term.compare a b = 0))

let prop_term_hash_consed =
  QCheck2.Test.make ~count:500 ~name:"terms are hash-consed"
    ~print:Term.to_ntriples gen_term (fun t ->
      let before = copy_term t in
      Gc.full_major ();
      before == t && copy_term t == t)

(* The IRI the query parser expands [price] to and the one the
   N-Triples parser reads are one block, so a pattern's property test
   against a graph triple is a pointer comparison. *)
let test_query_and_graph_share_terms () =
  let iri = Namespace.bench ^ "price" in
  let q = Rapida_sparql.Parser.parse_exn "SELECT ?s { ?s price ?p . }" in
  match
    ( q.Rapida_sparql.Ast.base_select.Rapida_sparql.Ast.where,
      Ntriples.parse_string (Printf.sprintf "<http://x/s> <%s> \"1\" ." iri) )
  with
  | [ Rapida_sparql.Ast.Ptriple { tp_p = Rapida_sparql.Ast.Nterm p; _ } ],
    Ok [ t ] ->
    check_bool "same block" true (p == t.Triple.p)
  | _ -> Alcotest.fail "expected one pattern and one triple"

(* The table holds its terms weakly: a term nothing else references is
   collected. Built out of line so that no register or stack slot of the
   caller keeps it. *)
let[@inline never] watch_fresh_term collected =
  Gc.finalise
    (fun _ -> collected := true)
    (Term.iri "http://x.test/unreferenced")

let test_term_table_weak () =
  let collected = ref false in
  watch_fresh_term collected;
  Gc.full_major ();
  Gc.full_major ();
  check_bool "finaliser ran" true !collected

(* A collected term's slot keeps its key, so probes step over it until a
   term with that key takes it over or a rebuild drops it; 5,000 terms
   force several rebuilds. None of this may give a live term a second
   block. *)
let test_term_table_churn () =
  let text i = Printf.sprintf "http://x.test/churn/%d" i in
  let make () = Array.init 5000 (fun i -> Term.iri (text i)) in
  let kept =
    Array.mapi (fun i t -> if i mod 3 = 0 then Some t else None) (make ())
  in
  Gc.full_major ();
  let again = make () in
  Array.iteri
    (fun i t ->
      match kept.(i) with
      | Some k -> check_bool "kept term is the same block" true (k == t)
      | None -> ())
    again;
  Gc.full_major ();
  check_bool "no second block" true (Array.for_all2 ( == ) again (make ()))

let suite =
  [
    Alcotest.test_case "term compare" `Quick test_term_compare;
    Alcotest.test_case "term numbers" `Quick test_term_numbers;
    Alcotest.test_case "decimal canonical form" `Quick test_decimal_canonical;
    Alcotest.test_case "graph indexes" `Quick test_graph_indexes;
    Alcotest.test_case "ntriples examples" `Quick test_ntriples_examples;
    Alcotest.test_case "ntriples file round trip" `Quick test_ntriples_file;
    Alcotest.test_case "ntriples located errors" `Quick
      test_ntriples_located_errors;
    Alcotest.test_case "ntriples read modes" `Quick test_ntriples_modes;
    Alcotest.test_case "ntriples parse mode" `Quick test_ntriples_parse_mode;
    QCheck_alcotest.to_alcotest prop_ntriples_roundtrip;
    QCheck_alcotest.to_alcotest prop_term_compare_total;
    QCheck_alcotest.to_alcotest prop_hash_consistent;
    QCheck_alcotest.to_alcotest prop_term_equal_is_compare;
    QCheck_alcotest.to_alcotest prop_term_hash_consed;
    Alcotest.test_case "query and graph share terms" `Quick
      test_query_and_graph_share_terms;
    Alcotest.test_case "term table is weak" `Quick test_term_table_weak;
    Alcotest.test_case "term table churn" `Quick test_term_table_churn;
  ]
