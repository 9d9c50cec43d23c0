(* NTGA operators, tested against the paper's own worked examples:
   Figure 4 (optional group filter and n-split), Table 2 (α conditions),
   and Figure 5 (the triplegroup Agg-Join). *)

open Rapida_ntga
module Term = Rapida_rdf.Term
module Triple = Rapida_rdf.Triple
module Graph = Rapida_rdf.Graph
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Binding = Rapida_sparql.Binding

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ns = "http://rapida.bench/vocab/"
let iri n = Term.iri (ns ^ n)
let p name = iri name

(* Properties of the Figure 4 example. *)
let product = p "product"
let price = p "price"
let valid_from = p "validFrom"
let valid_to = p "validTo"

let tg subject triples = Triplegroup.make (iri subject) triples
let t s pr o = Triple.make (iri s) pr o

(* Figure 4's input triplegroups (shapes, not exact values):
   tg1: product, price, validTo
   tg2: product, price, validFrom, validTo
   tg3: product, validFrom            (no price -> filtered out)
   tg4: product, price, validFrom, validTo *)
let tg1 =
  tg "o1" [ t "o1" product (iri "p1"); t "o1" price (Term.int 100);
            t "o1" valid_to (Term.date "2009-01-01") ]

let tg2 =
  tg "o2" [ t "o2" product (iri "p2"); t "o2" price (Term.int 200);
            t "o2" valid_from (Term.date "2008-01-01");
            t "o2" valid_to (Term.date "2009-06-01") ]

let tg3 = tg "o3" [ t "o3" product (iri "p3"); t "o3" valid_from (Term.date "2008-02-01") ]

let tg4 =
  tg "o4" [ t "o4" product (iri "p4"); t "o4" price (Term.int 400);
            t "o4" valid_from (Term.date "2008-03-01");
            t "o4" valid_to (Term.date "2009-09-01") ]

let inputs = [ tg1; tg2; tg3; tg4 ]

let prim = [ Ops.req product; Ops.req price ]
let opt = [ Ops.req valid_from; Ops.req valid_to ]

let test_triplegroup_basics () =
  check_int "props" 4 (List.length (Triplegroup.props tg2));
  check_bool "has price" true (Triplegroup.has_prop tg2 price);
  check_int "objects_of" 1 (List.length (Triplegroup.objects_of tg2 price));
  let projected = Triplegroup.project tg2 [ product; price ] in
  check_int "projection" 2 (List.length projected.Triplegroup.triples);
  let u = Triplegroup.union tg1 tg1 in
  check_int "union dedups" 3 (List.length u.Triplegroup.triples);
  Alcotest.check_raises "union different subjects"
    (Invalid_argument "Triplegroup.union: different subjects") (fun () ->
      ignore (Triplegroup.union tg1 tg2))

let test_of_graph () =
  let g = Graph.of_list (tg1.Triplegroup.triples @ tg2.Triplegroup.triples) in
  check_int "two groups" 2 (List.length (Triplegroup.of_graph g))

(* Figure 4(a): sigma-gamma-opt keeps tg1, tg2, tg4 and drops tg3. *)
let test_opt_group_filter_figure4a () =
  let result = Ops.opt_group_filter ~prim ~opt inputs in
  check_int "three survive" 3 (List.length result);
  check_bool "tg3 filtered out" true
    (not
       (List.exists
          (fun g -> Term.equal g.Triplegroup.subject (iri "o3"))
          result))

let test_opt_group_filter_projects () =
  let extra = tg "o9" [ t "o9" product (iri "p9"); t "o9" price (Term.int 1);
                        t "o9" (p "unrelated") (Term.int 7) ] in
  match Ops.opt_group_filter ~prim ~opt [ extra ] with
  | [ g ] ->
    check_bool "unrelated property projected away" false
      (Triplegroup.has_prop g (p "unrelated"))
  | _ -> Alcotest.fail "expected one triplegroup"

let test_group_filter_object_constraint () =
  let ty = Rapida_rdf.Namespace.rdf_type in
  let a = tg "x1" [ Triple.make (iri "x1") ty (iri "PT18"); t "x1" price (Term.int 5) ] in
  let b = tg "x2" [ Triple.make (iri "x2") ty (iri "PT9"); t "x2" price (Term.int 6) ] in
  let required = [ Ops.req ~obj:(iri "PT18") ty; Ops.req price ] in
  match Ops.group_filter ~required [ a; b ] with
  | [ g ] -> check_bool "kept PT18" true (Term.equal g.Triplegroup.subject (iri "x1"))
  | other -> Alcotest.failf "expected exactly one, got %d" (List.length other)

(* Figure 4(b): n-split with P_sec1={validFrom}, P_sec2={validTo}. *)
let test_n_split_figure4b () =
  let filtered = Ops.opt_group_filter ~prim ~opt inputs in
  let split =
    Ops.n_split
      ~prim:[ product; price ]
      ~secs:[ [ valid_from ]; [ valid_to ] ]
      filtered
  in
  (* tg1 -> only combination 2; tg2 and tg4 -> both. *)
  let count i =
    List.length (List.filter (fun (j, _) -> j = i) split)
  in
  check_int "combination 1 (validFrom)" 2 (count 0);
  check_int "combination 2 (validTo)" 3 (count 1);
  (* Extracted triplegroups carry only prim + their sec properties. *)
  List.iter
    (fun (i, g) ->
      let sec = if i = 0 then valid_from else valid_to in
      let other = if i = 0 then valid_to else valid_from in
      check_bool "has own secondary" true (Triplegroup.has_prop g sec);
      check_bool "other's secondary projected" false (Triplegroup.has_prop g other))
    split

(* Figure 4(c): first combination has no secondary properties. *)
let test_n_split_empty_sec () =
  let filtered = Ops.opt_group_filter ~prim ~opt inputs in
  let split =
    Ops.n_split ~prim:[ product; price ] ~secs:[ []; [ valid_to ] ] filtered
  in
  let comb1 = List.filter (fun (i, _) -> i = 0) split in
  (* Every surviving triplegroup matches the all-primary combination. *)
  check_int "combination 1 matches all" 3 (List.length comb1)

(* Table 2 α-condition semantics over single triplegroups. *)
let test_alpha_table2 () =
  let a = p "a" and b = p "b" and c = p "c" in
  let tg_ab = tg "s1" [ t "s1" a (Term.int 1); t "s1" b (Term.int 2) ] in
  let tg_abc =
    tg "s2" [ t "s2" a (Term.int 1); t "s2" b (Term.int 2); t "s2" c (Term.int 3) ]
  in
  (* Row 4 of Table 2, left star: alpha1 = c present, alpha2 = c absent. *)
  let alpha1 = { Ops.required = [ c ]; forbidden = [] } in
  let alpha2 = { Ops.required = []; forbidden = [ c ] } in
  check_bool "abc satisfies alpha1" true (Ops.alpha_holds_tg alpha1 tg_abc);
  check_bool "ab fails alpha1" false (Ops.alpha_holds_tg alpha1 tg_ab);
  check_bool "ab satisfies alpha2" true (Ops.alpha_holds_tg alpha2 tg_ab);
  check_bool "abc fails alpha2" false (Ops.alpha_holds_tg alpha2 tg_abc)

(* α-join: offers join products on the product property; combinations
   matching no α condition are dropped during the join. *)
let test_alpha_join () =
  let label = p "label" in
  let prod1 = tg "p1" [ t "p1" label (Term.str "one") ] in
  let prod2 = tg "p2" [ t "p2" label (Term.str "two") ] in
  let offers =
    List.map (Joined.of_tg 1) [ tg1; tg2 ] (* products p1, p2 *)
  in
  let prods = List.map (Joined.of_tg 0) [ prod1; prod2 ] in
  let joined =
    Ops.alpha_join ~left:offers ~right:prods
      ~left_key:{ Ops.star = 1; access = `ObjectOf product }
      ~right_key:{ Ops.star = 0; access = `Subject }
      ~alphas:[]
  in
  check_int "two joins" 2 (List.length joined);
  (* Restrict with an α requiring validFrom: only tg2's pair survives. *)
  let restricted =
    Ops.alpha_join ~left:offers ~right:prods
      ~left_key:{ Ops.star = 1; access = `ObjectOf product }
      ~right_key:{ Ops.star = 0; access = `Subject }
      ~alphas:[ { Ops.required = [ valid_from ]; forbidden = [] } ]
  in
  check_int "alpha restricts" 1 (List.length restricted)

let test_alpha_join_multivalued_key () =
  (* A triplegroup with two object values joins with both right sides. *)
  let member = p "member" in
  let group_tg =
    tg "g" [ t "g" member (iri "m1"); t "g" member (iri "m2") ]
  in
  let m1 = tg "m1" [ t "m1" (p "name") (Term.str "a") ] in
  let m2 = tg "m2" [ t "m2" (p "name") (Term.str "b") ] in
  let joined =
    Ops.alpha_join
      ~left:[ Joined.of_tg 0 group_tg ]
      ~right:[ Joined.of_tg 1 m1; Joined.of_tg 1 m2 ]
      ~left_key:{ Ops.star = 0; access = `ObjectOf member }
      ~right_key:{ Ops.star = 1; access = `Subject }
      ~alphas:[]
  in
  check_int "joins both members" 2 (List.length joined)

(* Figure 5: Agg-Join with base triplegroups (grouping keys), a theta
   condition on (feature, country) values, and an alpha requiring pf. *)
let test_agg_join_figure5 () =
  let pf = p "pf" and cn = p "cn" and pc = p "pc" in
  (* Detail triplegroups: (feature, country, price); dtg2 lacks pf. *)
  let dtg1 = tg "d1" [ t "d1" pf (iri "Feat1"); t "d1" cn (Term.str "UK"); t "d1" pc (Term.int 100) ] in
  let dtg2 = tg "d2" [ t "d2" cn (Term.str "UK"); t "d2" pc (Term.int 200) ] in
  let dtg3 = tg "d3" [ t "d3" pf (iri "Feat2"); t "d3" cn (Term.str "DE"); t "d3" pc (Term.int 300) ] in
  let dtg4 = tg "d4" [ t "d4" pf (iri "Feat1"); t "d4" cn (Term.str "UK"); t "d4" pc (Term.int 50) ] in
  (* Base: distinct (feature, country) keys, one with an empty range. *)
  let base = [ (iri "Feat1", "UK"); (iri "Feat2", "DE"); (iri "Feat9", "FR") ] in
  let theta (f, c) (d : Triplegroup.t) =
    List.exists (Term.equal f) (Triplegroup.objects_of d pf)
    && List.exists (Term.equal (Term.str c)) (Triplegroup.objects_of d cn)
  in
  let alpha d = Triplegroup.has_prop d pf in
  let inputs _ d =
    (* one row per price value; each aggregation takes the price *)
    List.map (fun v -> [ Some v; Some v ]) (Triplegroup.objects_of d pc)
  in
  let results =
    Ops.agg_join ~base ~detail:[ dtg1; dtg2; dtg3; dtg4 ] ~theta ~alpha
      ~inputs ~aggs:[ (Ast.Sum, false); (Ast.Count, false) ]
  in
  check_int "one result per base" 3 (List.length results);
  let find key =
    List.assoc key results
  in
  (match find (iri "Feat1", "UK") with
  | [ Some sum; Some count ] ->
    Alcotest.(check string) "sumF Feat1-UK" "150" (Term.lexical sum);
    Alcotest.(check string) "countF Feat1-UK" "2" (Term.lexical count)
  | _ -> Alcotest.fail "expected sum and count");
  (match find (iri "Feat2", "DE") with
  | [ Some sum; _ ] -> Alcotest.(check string) "sumF Feat2-DE" "300" (Term.lexical sum)
  | _ -> Alcotest.fail "expected sum");
  (* Empty range keeps default values (MD-join semantics). *)
  match find (iri "Feat9", "FR") with
  | [ sum; Some count ] ->
    check_bool "empty sum default" true (sum = Some (Term.int 0));
    Alcotest.(check string) "empty count" "0" (Term.lexical count)
  | _ -> Alcotest.fail "expected defaults"

(* tg_match: the compiled matcher's bindings, copied out as a list. *)
let compiled_bindings stars joined =
  let acc = ref [] in
  Tg_match.iter (Tg_match.compile stars) joined (fun b ->
      acc := Array.copy b :: !acc);
  List.rev !acc

(* Multi-valued properties unfold into several bindings. *)
let test_tg_match_multivalued () =
  let pf = p "pf" in
  let g = tg "s" [ t "s" pf (iri "f1"); t "s" pf (iri "f2"); t "s" price (Term.int 9) ] in
  let star =
    List.hd
      (Star.decompose
         [ { Ast.tp_s = Ast.Nvar "s"; tp_p = Ast.Nterm pf; tp_o = Ast.Nvar "f" };
           { Ast.tp_s = Ast.Nvar "s"; tp_p = Ast.Nterm price; tp_o = Ast.Nvar "pr" } ])
  in
  let m = Tg_match.compile [ (0, star) ] in
  let f = Option.get (Tg_match.slot m "f") in
  let bindings = compiled_bindings [ (0, star) ] (Joined.of_tg 0 g) in
  check_int "two bindings" 2 (List.length bindings);
  check_bool "in triple order" true
    (List.map (fun b -> b.(f)) bindings = [ Some (iri "f1"); Some (iri "f2") ])

let test_tg_match_constant_object () =
  let star =
    List.hd
      (Star.decompose
         [ { Ast.tp_s = Ast.Nvar "s"; tp_p = Ast.Nterm product; tp_o = Ast.Nterm (iri "p1") } ])
  in
  let matches g = compiled_bindings [ (0, star) ] (Joined.of_tg 0 g) <> [] in
  check_bool "tg1 matches product=p1" true (matches tg1);
  check_bool "tg2 does not" false (matches tg2)

(* The list matcher the compiled one replaced, kept as the reference:
   per star, extend association-list bindings one triple pattern at a
   time; then cross the stars' bindings pairwise, keeping compatible
   merges. *)
let ref_star_bindings (star : Star.t) (g : Triplegroup.t) =
  let rec go bindings = function
    | [] -> bindings
    | tp :: rest ->
      let extended =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun triple -> Binding.match_triple tp triple b)
              g.Triplegroup.triples)
          bindings
      in
      if extended = [] then [] else go extended rest
  in
  go [ Binding.empty ] star.Star.patterns

let ref_joined_bindings stars joined =
  let per_part =
    List.filter_map
      (fun (i, star) ->
        Option.map (ref_star_bindings star) (Joined.part joined i))
      stars
  in
  List.fold_left
    (fun acc bindings ->
      List.concat_map
        (fun a ->
          List.filter_map
            (fun b ->
              if Binding.compatible a b then Some (Binding.merge a b) else None)
            bindings)
        acc)
    [ Binding.empty ] per_part

(* Random cases over a tiny vocabulary, so that joins, repeats and
   multi-valued properties are frequent. Subjects also occur as objects,
   and variables come from one pool shared by every star. *)
module Gen = QCheck2.Gen

type case = { stars : (int * Star.t) list; joined : Joined.t }

let subjects = [ iri "a"; iri "b" ]
let preds = [ p "pa"; p "pb"; p "pc" ]
let objects = subjects @ [ iri "o"; Term.int 1 ]
let var_pool = [ "x"; "y"; "z"; "w" ]

let gen_case =
  let open Gen in
  let* n_parts = 1 -- 3 in
  let gen_node ~var_weight terms =
    frequency
      [ (var_weight, map (fun v -> Ast.Nvar v) (oneofl var_pool));
        (10 - var_weight, map (fun t -> Ast.Nterm t) (oneofl terms)) ]
  in
  let gen_star id =
    let* subject = gen_node ~var_weight:7 subjects in
    let* patterns =
      list_size (1 -- 3)
        (let* tp_p = gen_node ~var_weight:2 preds in
         let* tp_o = gen_node ~var_weight:6 objects in
         return { Ast.tp_s = subject; tp_p; tp_o })
    in
    return { Star.id; subject; patterns }
  in
  let gen_part =
    let* subject = oneofl subjects in
    let* triples =
      list_size (1 -- 5)
        (map2 (fun pr o -> Triple.make subject pr o) (oneofl preds) (oneofl objects))
    in
    return (Triplegroup.make subject triples)
  in
  let* star_list = flatten_l (List.init n_parts gen_star) in
  let* stars = shuffle_l (List.map (fun (s : Star.t) -> (s.id, s)) star_list) in
  (* Part [n_parts] is never listed; any part may be missing. *)
  let* parts =
    flatten_l
      (List.init (n_parts + 1) (fun i ->
           let* present = frequencyl [ (4, true); (1, false) ] in
           if present then map (fun g -> Some (i, g)) gen_part else return None))
  in
  let joined =
    List.fold_left
      (fun acc (i, g) -> Joined.join acc (Joined.of_tg i g))
      Joined.empty (List.filter_map Fun.id parts)
  in
  return { stars; joined }

let print_case c =
  Fmt.str "@[<v>%a@ %a@]"
    (Fmt.list (fun ppf (i, s) -> Fmt.pf ppf "part %d <- %a" i Star.pp s))
    c.stars Joined.pp c.joined

(* A binding as its bound (variable, term) pairs, sorted by variable. *)
let canonical pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

let compiled_canonical c =
  let m = Tg_match.compile c.stars in
  List.map
    (fun b ->
      canonical
        (List.filter_map
           (fun v ->
             match Tg_match.slot m v with
             | Some i -> Option.map (fun t -> (v, t)) b.(i)
             | None -> None)
           var_pool))
    (compiled_bindings c.stars c.joined)

let ref_canonical c = List.map canonical (ref_joined_bindings c.stars c.joined)

let prop_compiled_matches_reference =
  QCheck2.Test.make ~count:1000 ~name:"compiled matcher = list matcher"
    ~print:print_case gen_case (fun c ->
      compiled_canonical c = ref_canonical c)

(* --- Memoized byte sizes = the term-walking sums ------------------------ *)

(* References: the sums [size_bytes] walked on every call before sizes
   were memoized. *)
let ref_tg_size (g : Triplegroup.t) =
  List.fold_left (fun acc t -> acc + Triple.size_bytes t) 4 g.triples

let ref_joined_size (j : Joined.t) =
  List.fold_left (fun acc (_, g) -> acc + ref_tg_size g) 4 j.parts

type size_case = {
  subject : Term.t;
  triples_a : Triple.t list;
  triples_b : Triple.t list;
  keep : Term.t list;
  reqs : Ops.prop_req list;
  read_first : bool;  (** read [a]'s size before deriving from it *)
}

let gen_size_case =
  let open Gen in
  let gen_triples subject =
    list_size (0 -- 5)
      (map2 (fun pr o -> Triple.make subject pr o) (oneofl preds) (oneofl objects))
  in
  let* subject = oneofl subjects in
  let* triples_a = gen_triples subject in
  let* triples_b = gen_triples subject in
  let* keep = list_size (0 -- 2) (oneofl preds) in
  let* reqs =
    list_size (1 -- 2)
      (map2 (fun prop obj -> Ops.req ?obj prop) (oneofl preds) (opt (oneofl objects)))
  in
  let* read_first = bool in
  return { subject; triples_a; triples_b; keep; reqs; read_first }

let print_size_case c =
  Fmt.str "@[<v>%a@ %a@ read_first=%b@]" Triplegroup.pp
    (Triplegroup.make c.subject c.triples_a)
    Triplegroup.pp
    (Triplegroup.make c.subject c.triples_b)
    c.read_first

let prop_sizes_match_reference =
  QCheck2.Test.make ~count:500 ~name:"memoized sizes = term-walking sums"
    ~print:print_size_case gen_size_case (fun c ->
      let a = Triplegroup.make c.subject c.triples_a in
      let b = Triplegroup.make c.subject c.triples_b in
      if c.read_first then ignore (Triplegroup.size_bytes a);
      let tgs =
        [ a; b; Triplegroup.project a c.keep; Triplegroup.union a b;
          Triplegroup.union b a ]
        @ Ops.group_filter ~required:c.reqs [ a; b ]
        @ Ops.opt_group_filter ~prim:[ List.hd c.reqs ] ~opt:c.reqs [ a; b ]
      in
      (* Twice each: the first read fills the memo, the second reads it. *)
      let tg_ok g =
        let first = Triplegroup.size_bytes g in
        first = ref_tg_size g && Triplegroup.size_bytes g = first
      in
      (* Before [Joined.of_tg] reads any size. *)
      let tgs_ok = List.for_all tg_ok tgs in
      let singles = List.mapi Joined.of_tg tgs in
      let prefixes =
        List.rev
          (List.fold_left
             (fun acc j -> Joined.join (List.hd acc) j :: acc)
             [ Joined.empty ] singles)
      in
      let k = List.length singles / 2 in
      let halves =
        let fold = List.fold_left Joined.join Joined.empty in
        Joined.join
          (fold (List.filteri (fun i _ -> i < k) singles))
          (fold (List.filteri (fun i _ -> i >= k) singles))
      in
      tgs_ok
      && List.for_all
           (fun j -> Joined.size_bytes j = ref_joined_size j)
           (halves :: singles @ prefixes))

(* The generator reaches every shape the property is meant to cover, each
   in a case with at least one binding. *)
let test_tg_match_generator_coverage () =
  let var_nodes (tp : Ast.triple_pattern) =
    List.filter_map
      (function Ast.Nvar v -> Some v | Ast.Nterm _ -> None)
      [ tp.tp_s; tp.tp_p; tp.tp_o ]
  in
  let star_vars (s : Star.t) =
    List.sort_uniq String.compare (List.concat_map var_nodes s.patterns)
  in
  let is_term = function Ast.Nterm _ -> true | Ast.Nvar _ -> false in
  let features c =
    let pats = List.concat_map (fun (_, (s : Star.t)) -> s.patterns) c.stars in
    let present = List.filter (fun (i, _) -> Joined.part c.joined i <> None) c.stars in
    let shared =
      List.exists
        (fun (i, a) ->
          List.exists
            (fun (j, b) -> i < j && List.exists (fun v -> List.mem v (star_vars b)) (star_vars a))
            present)
        present
    in
    let multivalued =
      List.exists
        (fun (_, g) ->
          List.exists
            (fun pr -> List.length (Triplegroup.objects_of g pr) > 1)
            (Triplegroup.props g))
        c.joined.Joined.parts
    in
    [ ("repeated variable in a pattern",
       List.exists
         (fun tp ->
           let vs = var_nodes tp in
           List.length (List.sort_uniq String.compare vs) < List.length vs)
         pats);
      ("variable predicate", List.exists (fun tp -> not (is_term tp.Ast.tp_p)) pats);
      ("constant subject", List.exists (fun tp -> is_term tp.Ast.tp_s) pats);
      ("constant object", List.exists (fun tp -> is_term tp.Ast.tp_o) pats);
      ("variable shared across stars", shared);
      ("missing listed part", List.length present < List.length c.stars);
      ("multi-valued property", multivalued) ]
  in
  let cases = Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:1000 gen_case in
  let hit = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if ref_joined_bindings c.stars c.joined <> [] then
        List.iter (fun (name, b) -> if b then Hashtbl.replace hit name ()) (features c))
    cases;
  List.iter
    (fun (name, _) -> check_bool name true (Hashtbl.mem hit name))
    (features (List.hd cases))

(* Tg_store: equivalence-class partitioning and scan pruning. *)
let test_tg_store () =
  let g = Graph.of_list (List.concat_map (fun x -> x.Triplegroup.triples) inputs) in
  let store = Tg_store.of_graph g in
  let n, bytes = Tg_store.stats store in
  check_bool "several partitions" true (n >= 3);
  check_bool "bytes positive" true (bytes > 0);
  let with_price = Tg_store.scan store ~required:[ product; price ] in
  check_int "price scan skips tg3" 3 (List.length with_price);
  let pruned = Tg_store.scan_bytes store ~required:[ product; price ] in
  let all = Tg_store.scan_bytes store ~required:[] in
  check_bool "scan pruning reads less" true (pruned < all);
  check_int "scan all" 4 (List.length (Tg_store.all store))

let test_joined () =
  let j = Joined.join (Joined.of_tg 0 tg1) (Joined.of_tg 1 tg2) in
  check_int "two parts" 2 (List.length j.Joined.parts);
  check_bool "part lookup" true (Joined.part j 1 <> None);
  check_bool "has_prop across parts" true (Joined.has_prop j valid_from);
  Alcotest.check_raises "duplicate star index"
    (Invalid_argument "Joined.join: duplicate star index") (fun () ->
      ignore (Joined.join (Joined.of_tg 0 tg1) (Joined.of_tg 0 tg2)))

let suite =
  [
    Alcotest.test_case "triplegroup basics" `Quick test_triplegroup_basics;
    Alcotest.test_case "of_graph" `Quick test_of_graph;
    Alcotest.test_case "optional group filter (Fig 4a)" `Quick test_opt_group_filter_figure4a;
    Alcotest.test_case "optional group filter projects" `Quick test_opt_group_filter_projects;
    Alcotest.test_case "group filter object constraint" `Quick test_group_filter_object_constraint;
    Alcotest.test_case "n-split (Fig 4b)" `Quick test_n_split_figure4b;
    Alcotest.test_case "n-split empty secondary (Fig 4c)" `Quick test_n_split_empty_sec;
    Alcotest.test_case "alpha conditions (Table 2)" `Quick test_alpha_table2;
    Alcotest.test_case "alpha-join" `Quick test_alpha_join;
    Alcotest.test_case "alpha-join multi-valued key" `Quick test_alpha_join_multivalued_key;
    Alcotest.test_case "Agg-Join (Fig 5)" `Quick test_agg_join_figure5;
    Alcotest.test_case "tg match multi-valued" `Quick test_tg_match_multivalued;
    Alcotest.test_case "tg match constant object" `Quick test_tg_match_constant_object;
    Alcotest.test_case "tg match generator coverage" `Quick test_tg_match_generator_coverage;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
    QCheck_alcotest.to_alcotest prop_sizes_match_reference;
    Alcotest.test_case "tg store" `Quick test_tg_store;
    Alcotest.test_case "joined triplegroups" `Quick test_joined;
  ]
