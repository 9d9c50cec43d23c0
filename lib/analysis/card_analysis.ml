open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Binding = Rapida_sparql.Binding
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Plan_util = Rapida_core.Plan_util
module Memory = Rapida_mapred.Memory
module Json = Rapida_mapred.Json
module Card = Interval.Card

type op =
  | Scan of Ast.triple_pattern
  | Star_join of Star.t
  | Filter of Ast.expr list
  | Join of Ast.var list
  | Cross
  | Agg of Analytical.subquery
  | Final_join
  | Result

type node = {
  id : int;
  op : op;
  label : string;
  ncols : int;
  card : Card.t;
  bytes : Card.t;
  children : node list;
}

type t = {
  query : Analytical.t;
  root : node;
  diagnostics : Diagnostic.t list;
}

(* Local saturating arithmetic on raw int bounds ([max_int] =
   unbounded), shared with {!Interval.Card}'s semantics. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let dedup vars =
  List.rev
    (List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) [] vars)

(* ---------------------------------------------------------------- *)
(* Per-pattern catalog bounds *)

(* A numeric constant object can only match a predicate whose numeric
   object range covers it: term equality preserves the parsed value. *)
let const_obj_possible (ps : Stats_catalog.pred_stats) (o : Term.t) =
  match Term.as_number o with
  | None -> true
  | Some x -> (
    match ps.num_range with
    | None -> false
    | Some r -> x >= r.nmin && x <= r.nmax)

let scan_card cat (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nvar pv -> (
    match (tp.tp_s, tp.tp_o) with
    | Ast.Nvar sv, Ast.Nvar ov when sv <> ov && sv <> pv && ov <> pv ->
      Card.exact cat.Stats_catalog.total_triples
    | _ -> Card.make 0 cat.Stats_catalog.total_triples)
  | Ast.Nterm p -> (
    match Stats_catalog.pred cat p with
    | None -> Card.zero
    | Some ps -> (
      let is_type = Term.equal p Namespace.rdf_type in
      match (tp.tp_s, tp.tp_o) with
      | Ast.Nvar sv, Ast.Nvar ov when sv <> ov -> Card.exact ps.count
      | Ast.Nvar _, Ast.Nvar _ -> Card.make 0 ps.count
      | Ast.Nvar _, Ast.Nterm o ->
        if is_type then Card.exact (Stats_catalog.class_count cat o)
        else if not (const_obj_possible ps o) then Card.zero
        else Card.make 0 (min ps.count ps.max_obj_fanout)
      | Ast.Nterm _, Ast.Nvar _ -> Card.make 0 ps.max_subj_fanout
      | Ast.Nterm _, Ast.Nterm o ->
        if (not is_type) && not (const_obj_possible ps o) then Card.zero
        else Card.make 0 ps.max_pair_fanout))

(* Most rows one fixed subject can contribute through one pattern. *)
let per_subj_max cat (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nvar _ -> max_int
  | Ast.Nterm p -> (
    match Stats_catalog.pred cat p with
    | None -> 0
    | Some ps -> (
      match tp.tp_o with
      | Ast.Nvar _ -> ps.max_subj_fanout
      | Ast.Nterm o ->
        if const_obj_possible ps o then ps.max_pair_fanout else 0))

(* Upper bound on the distinct subjects a pattern admits. *)
let subj_hi cat (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nvar _ -> cat.Stats_catalog.total_subjects
  | Ast.Nterm p -> (
    match Stats_catalog.pred cat p with
    | None -> 0
    | Some ps -> (
      match tp.tp_o with
      | Ast.Nvar _ -> ps.subjects
      | Ast.Nterm o ->
        if Term.equal p Namespace.rdf_type then Stats_catalog.class_count cat o
        else if const_obj_possible ps o then min ps.subjects ps.max_obj_fanout
        else 0))

(* Lower bound on the distinct subjects a pattern admits; only the
   shapes with exact subject accounting contribute, the rest return 0
   (weakening the Bonferroni sum, never breaking it). *)
let subj_lo cat (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nvar _ -> 0
  | Ast.Nterm p -> (
    match Stats_catalog.pred cat p with
    | None -> 0
    | Some ps -> (
      match tp.tp_o with
      | Ast.Nvar _ -> ps.subjects
      | Ast.Nterm o ->
        if Term.equal p Namespace.rdf_type then
          (* class_count counts triples; duplicate triples inflate it
             by at most the pair fanout. *)
          let c = Stats_catalog.class_count cat o in
          let dup = max 1 ps.max_pair_fanout in
          (c + dup - 1) / dup
        else 0))

(* The Bonferroni lower bound is only valid when every pattern binds
   the same subject variable and no other variable is shared — then a
   subject matching all patterns yields at least one combined row. *)
let star_lo_applicable (star : Star.t) =
  match star.subject with
  | Ast.Nterm _ -> false
  | Ast.Nvar sv ->
    let nonsubj = ref [] in
    let clean = ref true in
    List.iter
      (fun (tp : Ast.triple_pattern) ->
        (match tp.tp_p with
        | Ast.Nvar v ->
          if v = sv || List.mem v !nonsubj then clean := false
          else nonsubj := v :: !nonsubj
        | Ast.Nterm _ -> ());
        match tp.tp_o with
        | Ast.Nvar v ->
          if v = sv || List.mem v !nonsubj then clean := false
          else nonsubj := v :: !nonsubj
        | Ast.Nterm _ -> ())
      star.patterns;
    !clean

let star_card cat (star : Star.t) scan_cards =
  let product_hi =
    List.fold_left (fun acc (c : Card.t) -> sat_mul acc c.hi) 1 scan_cards
  in
  let per_subj =
    List.fold_left (fun acc tp -> sat_mul acc (per_subj_max cat tp)) 1
      star.patterns
  in
  let subj_bound =
    List.fold_left (fun acc tp -> min acc (subj_hi cat tp)) max_int star.patterns
  in
  let hi =
    match star.subject with
    | Ast.Nterm _ -> min product_hi per_subj
    | Ast.Nvar _ -> min product_hi (sat_mul subj_bound per_subj)
  in
  let lo =
    if hi = 0 || not (star_lo_applicable star) then 0
    else
      let k = List.length star.patterns in
      let sum = List.fold_left (fun acc tp -> sat_add acc (subj_lo cat tp)) 0 star.patterns in
      max 0 (sum - ((k - 1) * cat.Stats_catalog.total_subjects))
  in
  Card.make lo hi

(* Most rows of [star] that can join one fixed value arriving through
   [endpoint] (the right side of a join edge). *)
let per_match_bound cat (star : Star.t) (endpoint : Star.endpoint) =
  match endpoint.role with
  | Star.Subject ->
    List.fold_left (fun acc tp -> sat_mul acc (per_subj_max cat tp)) 1
      star.patterns
  | Star.Property -> max_int
  | Star.Object -> (
    match endpoint.prop with
    | None -> max_int
    | Some p -> (
      match Stats_catalog.pred cat p with
      | None -> 0
      | Some ps ->
        (* Triples carrying the fixed object under [p] bound the
           matching (subject, multiplicity) mass; the star's other
           patterns then fan out per subject. *)
        let skipped = ref false in
        let others =
          List.fold_left
            (fun acc (tp : Ast.triple_pattern) ->
              match tp.tp_p with
              | Ast.Nterm p' when (not !skipped) && Term.equal p' p ->
                skipped := true;
                acc
              | _ -> sat_mul acc (per_subj_max cat tp))
            1 star.patterns
        in
        sat_mul ps.max_obj_fanout others))

(* ---------------------------------------------------------------- *)
(* Filter analysis against the catalog's literal ranges *)

(* Variables bound only as the object of constant-predicate patterns,
   with those predicates. *)
let object_only_preds (bgp : Ast.triple_pattern list) v =
  let impure = ref false in
  let preds = ref [] in
  List.iter
    (fun (tp : Ast.triple_pattern) ->
      (match tp.tp_s with Ast.Nvar s when s = v -> impure := true | _ -> ());
      (match tp.tp_p with Ast.Nvar p when p = v -> impure := true | _ -> ());
      match (tp.tp_o, tp.tp_p) with
      | Ast.Nvar o, Ast.Nterm p when o = v -> preds := p :: !preds
      | Ast.Nvar o, Ast.Nvar _ when o = v -> impure := true
      | _ -> ())
    bgp;
  if !impure || !preds = [] then None else Some !preds

(* [Some pred_iri] when the numeric constraints of [f] on some variable
   are incompatible with the catalog range of every value that variable
   can take — the filter can never hold. Only predicates whose objects
   are all numeric support the conclusion (mixed-type objects can
   satisfy comparisons lexically). *)
let filter_zero_witness cat (bgp : Ast.triple_pattern list) f =
  List.fold_left
    (fun acc (v, iv, eqs, _nes) ->
      match acc with
      | Some _ -> acc
      | None -> (
        let constrained =
          eqs <> [] || iv.Interval.Num.lo <> None || iv.Interval.Num.hi <> None
        in
        if not constrained then None
        else
          match object_only_preds bgp v with
          | None -> None
          | Some preds ->
            List.fold_left
              (fun acc p ->
                match acc with
                | Some _ -> acc
                | None -> (
                  match Stats_catalog.pred cat p with
                  | None -> None (* the scan bound already reports 0 *)
                  | Some ps -> (
                    match ps.num_range with
                    | Some r when r.ncount = ps.count ->
                      let range = Interval.Num.closed r.nmin r.nmax in
                      let meet = Interval.Num.inter iv range in
                      if
                        Interval.Num.is_empty meet
                        || List.exists
                             (fun x -> not (Interval.Num.mem x range))
                             eqs
                      then Some (v, Term.lexical p, r)
                      else None
                    | _ -> None)))
              None preds))
    None
    (Ast_lint.conj_constraints f)

(* ---------------------------------------------------------------- *)
(* Byte bounds and labels *)

(* Mirrors {!Rapida_relational.Table.row_size_bytes}: 4 + per-cell
   lexical length + 2. *)
let bytes_of cat ncols (card : Card.t) =
  let row_lo = 4 + (ncols * (cat.Stats_catalog.min_term_bytes + 2)) in
  let row_hi = 4 + (ncols * (cat.Stats_catalog.max_term_bytes + 2)) in
  Card.make (sat_mul card.lo row_lo) (sat_mul card.hi row_hi)

let pattern_vars_dedup tps = dedup (List.concat_map Ast.pattern_vars tps)

let subject_label = function
  | Ast.Nvar v -> "?" ^ v
  | Ast.Nterm t -> Term.to_string t

let mk cat op label ncols card children =
  { id = -1; op; label; ncols; card; bytes = bytes_of cat ncols card; children }

(* ---------------------------------------------------------------- *)
(* Diagnostics *)

let skew_ratio = 8
let skew_min_fanout = 16

let star_diagnostics cat ~map_join_threshold ~heap ~sq_id (star : Star.t)
    (scans : node list) (star_card : Card.t) add =
  let where = Fmt.str "subquery %d, star %s" sq_id (subject_label star.subject) in
  if star_card.Card.hi = 0 then begin
    let empty_preds =
      List.filter_map
        (fun (tp : Ast.triple_pattern) ->
          match tp.tp_p with
          | Ast.Nterm p when Stats_catalog.pred cat p = None ->
            Some (Term.lexical p)
          | _ -> None)
        star.patterns
    in
    add
      (Diagnostic.warningf ~rule:"statically-empty-join"
         "%s is statically empty%s: the catalog bounds it to 0 rows" where
         (match empty_preds with
         | [] -> ""
         | ps -> Fmt.str " (no triples for %s)" (String.concat ", " ps)))
  end;
  List.iter
    (fun (tp : Ast.triple_pattern) ->
      match tp.tp_p with
      | Ast.Nterm p -> (
        match Stats_catalog.pred cat p with
        | Some ps
          when ps.max_subj_fanout >= skew_min_fanout
               && ps.max_subj_fanout
                  >= skew_ratio * Stats_catalog.avg_subj_fanout ps ->
          add
            (Diagnostic.infof ~rule:"skewed-star"
               "%s: predicate %s is skewed (max %d triples per subject, \
                average %d) — its star join key will hotspot one reducer"
               where (Term.lexical p) ps.max_subj_fanout
               (Stats_catalog.avg_subj_fanout ps))
        | _ -> ())
      | Ast.Nvar _ -> ())
    star.patterns;
  (* Broadcast feasibility mirrors Plan_util.star_join: every table but
     the largest must fit the map-join threshold, and their combined
     size the task heap. *)
  if List.length scans >= 2 && star_card.Card.hi > 0 then begin
    let sizes = List.map (fun n -> n.bytes) scans in
    let max_hi = List.fold_left (fun acc (b : Card.t) -> max acc b.hi) 0 sizes in
    let build_his, build_los =
      (* Drop one table attaining the maximal upper bound: the streamed
         side. *)
      let dropped = ref false in
      List.fold_left
        (fun (his, los) (b : Card.t) ->
          if (not !dropped) && b.hi = max_hi then begin
            dropped := true;
            (his, los)
          end
          else (b.hi :: his, b.lo :: los))
        ([], []) sizes
    in
    let all_small = List.for_all (fun h -> h < map_join_threshold) build_his in
    let sum_hi = List.fold_left sat_add 0 build_his in
    let sum_lo = List.fold_left sat_add 0 build_los in
    if all_small && sum_hi < heap then
      add
        (Diagnostic.infof ~rule:"broadcast-feasible"
           "%s: build side is at most %d bytes (< %d-byte map-join threshold, \
            < %d-byte task heap) — the star join is guaranteed map-only"
           where sum_hi map_join_threshold heap)
    else if all_small && sum_lo >= heap then
      add
        (Diagnostic.warningf ~rule:"mapjoin-overcommit-predicted"
           "%s: the planner will broadcast this star join (every build table \
            under the %d-byte threshold) but the build side is at least %d \
            bytes, over the %d-byte task heap — the map-join is guaranteed \
            to fall back"
           where map_join_threshold sum_lo heap)
  end

(* ---------------------------------------------------------------- *)
(* Plan construction *)

let filter_node cat ~sq_id bgp filters child add =
  let zero =
    List.exists
      (fun f ->
        Ast_lint.filter_always_false f
        || Ast_lint.unsat_conjunction f <> None)
      filters
    ||
    List.exists
      (fun f ->
        match filter_zero_witness cat bgp f with
        | None -> false
        | Some (v, pred, r) ->
          add
            (Diagnostic.warningf ~rule:"filter-selectivity-zero"
               "subquery %d: FILTER %a can never hold — ?%s only takes %s \
                values in [%g, %g]"
               sq_id Ast.pp_expr f v pred r.Stats_catalog.nmin
               r.Stats_catalog.nmax);
          true)
      filters
  in
  let card = if zero then Card.zero else Card.drop_lo child.card in
  mk cat (Filter filters)
    (Fmt.str "filter (%d predicate%s)" (List.length filters)
       (if List.length filters = 1 then "" else "s"))
    child.ncols card [ child ]

let star_subtree cat ~map_join_threshold ~heap ~sq_id bgp star local_filters add
    =
  let scans =
    List.map
      (fun tp ->
        let card = scan_card cat tp in
        mk cat (Scan tp)
          (Fmt.str "scan %a" Ast.pp_triple_pattern tp)
          (List.length (dedup (Ast.pattern_vars tp)))
          card [])
      star.Star.patterns
  in
  let base =
    match scans with
    | [ only ] ->
      if Card.is_empty only.card then
        add
          (Diagnostic.warningf ~rule:"statically-empty-join"
             "subquery %d, star %s is statically empty: the catalog bounds \
              its only scan to 0 rows"
             sq_id
             (subject_label star.Star.subject));
      only
    | _ ->
      let card = star_card cat star (List.map (fun n -> n.card) scans) in
      star_diagnostics cat ~map_join_threshold ~heap ~sq_id star scans card add;
      mk cat (Star_join star)
        (Fmt.str "star-join %s (%d patterns)"
           (subject_label star.Star.subject)
           (List.length scans))
        (List.length (pattern_vars_dedup star.Star.patterns))
        card scans
  in
  match local_filters with
  | [] -> base
  | fs -> filter_node cat ~sq_id bgp fs base add

let group_var_bound cat (sq : Analytical.subquery) v =
  List.fold_left
    (fun acc (star : Star.t) ->
      let is_subject =
        match star.subject with Ast.Nvar sv -> sv = v | Ast.Nterm _ -> false
      in
      if is_subject then
        List.fold_left (fun acc tp -> min acc (subj_hi cat tp)) acc star.patterns
      else
        List.fold_left
          (fun acc (tp : Ast.triple_pattern) ->
            match (tp.tp_o, tp.tp_p) with
            | Ast.Nvar ov, Ast.Nterm p when ov = v -> (
              match Stats_catalog.pred cat p with
              | None -> 0
              | Some ps -> min acc ps.objects)
            | _ -> acc)
          acc star.patterns)
    max_int sq.stars

let subquery_plan cat ~map_join_threshold ~heap (sq : Analytical.subquery) add =
  (* Attach each filter to the first star covering its variables. *)
  let assignments =
    List.map
      (fun f ->
        let fv = Ast.expr_vars f in
        let star =
          List.find_opt
            (fun (star : Star.t) ->
              let sv = pattern_vars_dedup star.Star.patterns in
              List.for_all (fun v -> List.mem v sv) fv)
            sq.stars
        in
        (f, Option.map (fun (s : Star.t) -> s.Star.id) star))
      sq.filters
  in
  let local_for (star : Star.t) =
    List.filter_map
      (fun (f, s) -> if s = Some star.Star.id then Some f else None)
      assignments
  in
  let pending = List.filter_map (fun (f, s) -> if s = None then Some f else None) assignments in
  let subtrees =
    List.map
      (fun star ->
        ( star,
          star_subtree cat ~map_join_threshold ~heap ~sq_id:sq.sq_id sq.bgp star
            (local_for star) add ))
      sq.stars
  in
  let joined =
    match subtrees with
    | [] -> invalid_arg "Card_analysis: subquery with no stars"
    | (_, first) :: rest ->
      List.fold_left
        (fun (acc : node) ((star : Star.t), subtree) ->
          let connecting =
            List.filter
              (fun (e : Star.edge) -> e.right.Star.star = star.Star.id)
              sq.edges
          in
          let ncols = acc.ncols + subtree.ncols
                      - List.length
                          (List.filter
                             (fun v ->
                               List.mem v (pattern_vars_dedup star.Star.patterns))
                             (dedup
                                (List.concat_map
                                   (fun (e : Star.edge) -> [ e.Star.var ])
                                   connecting)))
          in
          match connecting with
          | [] ->
            let card = Card.mul acc.card subtree.card in
            mk cat Cross "cross-join (disconnected stars)" ncols card
              [ acc; subtree ]
          | edges ->
            let vars = dedup (List.map (fun (e : Star.edge) -> e.Star.var) edges) in
            let hi =
              List.fold_left
                (fun hi (e : Star.edge) ->
                  min hi
                    (sat_mul acc.card.Card.hi
                       (per_match_bound cat star e.Star.right)))
                (sat_mul acc.card.Card.hi subtree.card.Card.hi)
                edges
            in
            let card = Card.make 0 hi in
            if Card.is_empty card && acc.card.Card.hi > 0
               && subtree.card.Card.hi > 0
            then
              add
                (Diagnostic.warningf ~rule:"statically-empty-join"
                   "subquery %d: the join on %s is statically empty" sq.sq_id
                   (String.concat ", " (List.map (fun v -> "?" ^ v) vars)));
            mk cat (Join vars)
              (Fmt.str "join on %s"
                 (String.concat ", " (List.map (fun v -> "?" ^ v) vars)))
              ncols card [ acc; subtree ])
        first rest
  in
  let filtered =
    match pending with
    | [] -> joined
    | fs -> filter_node cat ~sq_id:sq.sq_id sq.bgp fs joined add
  in
  let agg_card =
    if sq.group_by = [] then Card.exact 1
    else begin
      let groups_hi =
        List.fold_left
          (fun acc v -> sat_mul acc (group_var_bound cat sq v))
          1 sq.group_by
      in
      Card.make
        (min filtered.card.Card.lo 1)
        (min filtered.card.Card.hi groups_hi)
    end
  in
  let agg_card = if sq.having = [] then agg_card else Card.drop_lo agg_card in
  mk cat (Agg sq)
    (Fmt.str "agg sq%d%s%s" sq.sq_id
       (match sq.group_by with
       | [] -> " (group by ALL)"
       | vs ->
         Fmt.str " (group by %s)" (String.concat ", " (List.map (fun v -> "?" ^ v) vs)))
       (if sq.having = [] then "" else ", having"))
    (List.length (Analytical.output_columns sq))
    agg_card [ filtered ]

let renumber root =
  let c = ref (-1) in
  let rec go n =
    incr c;
    let id = !c in
    { n with id; children = List.map go n.children }
  in
  go root

let analyze ?map_join_threshold ?(memory = Memory.default) cat
    (q : Analytical.t) =
  let map_join_threshold =
    match map_join_threshold with
    | Some t -> t
    | None -> Plan_util.default_options.Plan_util.map_join_threshold
  in
  let heap = memory.Memory.task_heap_bytes in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let sub_plans =
    List.map
      (fun sq -> subquery_plan cat ~map_join_threshold ~heap sq add)
      q.subqueries
  in
  let joined =
    match sub_plans with
    | [] -> invalid_arg "Card_analysis.analyze: no subqueries"
    | [ only ] -> only
    | first :: _ ->
      (* Pairwise natural-join bounds over the subquery outputs: group
         keys are distinct per table, so a join on the full key set of
         one side cannot exceed the other side's cardinality. *)
      let card, ncols =
        List.fold_left
          (fun ((acc : Card.t), cols) (sq, (n : node)) ->
            let hi = sat_mul acc.Card.hi n.card.Card.hi in
            let jv =
              List.concat_map
                (fun sq' -> Analytical.join_vars sq' sq)
                (List.filter
                   (fun (sq' : Analytical.subquery) ->
                     sq'.sq_id < sq.Analytical.sq_id)
                   q.subqueries)
              |> dedup
            in
            let full_key (s : Analytical.subquery) =
              s.group_by <> [] && List.for_all (fun v -> List.mem v jv) s.group_by
            in
            let hi = if full_key sq then min hi acc.Card.hi else hi in
            let lo = if jv = [] then sat_mul acc.Card.lo n.card.Card.lo else 0 in
            let shared = List.length (List.filter (fun v -> List.mem v jv) (Analytical.output_columns sq)) in
            (Card.make lo hi, cols + n.ncols - shared))
          (first.card, first.ncols)
          (List.tl (List.combine q.subqueries sub_plans))
      in
      mk cat Final_join
        (Fmt.str "final-join (%d subqueries)" (List.length sub_plans))
        ncols card sub_plans
  in
  let result_card =
    match q.limit with None -> joined.card | Some l -> Card.cap joined.card l
  in
  let result_ncols =
    match q.outer_projection with [] -> joined.ncols | items -> List.length items
  in
  let root =
    mk cat Result
      (Fmt.str "result%s%s"
         (if q.order_by = [] then "" else " (ordered)")
         (match q.limit with None -> "" | Some l -> Fmt.str " (limit %d)" l))
      result_ncols result_card [ joined ]
  in
  { query = q; root = renumber root; diagnostics = Diagnostic.sort !diags }

let nodes t =
  let rec go n acc = List.fold_left (fun acc c -> go c acc) (n :: acc) n.children in
  List.rev (go t.root [])

(* ---------------------------------------------------------------- *)
(* Exact measurement with reference semantics: scans and stars take
   their bindings from the reference evaluator's BGP matcher. *)

type measured = { m_node : node; actual : int; m_children : measured list }

type payload = Bindings of Binding.t list | Rel of Table.t

(* Hash join of two binding sets on their shared variables. *)
let join_bindings left right =
  match (left, right) with
  | [], _ | _, [] -> []
  | l0 :: _, r0 :: _ ->
    let shared =
      List.filter_map
        (fun (v, _) -> if List.mem_assoc v r0 then Some v else None)
        l0
    in
    let key b = List.map (fun v -> Binding.lookup b v) shared in
    let index = Hashtbl.create (List.length right) in
    List.iter
      (fun r ->
        let k = key r in
        Hashtbl.replace index k (r :: Option.value ~default:[] (Hashtbl.find_opt index k)))
      right;
    List.concat_map
      (fun l ->
        match Hashtbl.find_opt index (key l) with
        | None -> []
        | Some rs -> List.rev_map (fun r -> Binding.merge l r) rs)
      left

let aggregate_table (sq : Analytical.subquery) bindings =
  let vars = pattern_vars_dedup sq.bgp in
  let rows =
    List.map
      (fun b -> Array.of_list (List.map (fun v -> Binding.lookup b v) vars))
      bindings
  in
  let table =
    Table.make ~name:(Fmt.str "sq%d_input" sq.sq_id) ~schema:vars rows
  in
  Relops.group_by
    ~name:(Fmt.str "sq%d" sq.sq_id)
    ~keys:sq.group_by ~aggs:(Plan_util.agg_specs sq) table
  |> Plan_util.finish_subquery sq

let measure g t =
  let rec go (n : node) : measured * payload =
    match n.op with
    | Scan tp ->
      let bs = Rapida_ref.Ref_engine.eval_bgp g [ tp ] in
      ({ m_node = n; actual = List.length bs; m_children = [] }, Bindings bs)
    | Star_join star ->
      let children = List.map (fun c -> fst (go c)) n.children in
      let bs = Rapida_ref.Ref_engine.eval_bgp g star.Star.patterns in
      ({ m_node = n; actual = List.length bs; m_children = children }, Bindings bs)
    | Filter fs -> (
      match n.children with
      | [ child ] -> (
        let mc, payload = go child in
        match payload with
        | Bindings bs ->
          let bs =
            List.filter (fun b -> List.for_all (Binding.eval_filter b) fs) bs
          in
          ( { m_node = n; actual = List.length bs; m_children = [ mc ] },
            Bindings bs )
        | Rel _ -> invalid_arg "Card_analysis.measure: filter over a relation")
      | _ -> invalid_arg "Card_analysis.measure: malformed filter node")
    | Join _ | Cross -> (
      match n.children with
      | [ l; r ] ->
        let ml, pl = go l and mr, pr = go r in
        let bs =
          match (pl, pr) with
          | Bindings a, Bindings b -> join_bindings a b
          | _ -> invalid_arg "Card_analysis.measure: join over relations"
        in
        ({ m_node = n; actual = List.length bs; m_children = [ ml; mr ] }, Bindings bs)
      | _ -> invalid_arg "Card_analysis.measure: malformed join node")
    | Agg sq -> (
      match n.children with
      | [ child ] -> (
        let mc, payload = go child in
        match payload with
        | Bindings bs ->
          let table = aggregate_table sq bs in
          ( { m_node = n; actual = Table.cardinality table; m_children = [ mc ] },
            Rel table )
        | Rel _ -> invalid_arg "Card_analysis.measure: aggregate over a relation")
      | _ -> invalid_arg "Card_analysis.measure: malformed agg node")
    | Final_join ->
      let results = List.map go n.children in
      let tables =
        List.map
          (function
            | _, Rel t -> t
            | _, Bindings _ ->
              invalid_arg "Card_analysis.measure: final join over bindings")
          results
      in
      let joined =
        match tables with
        | [] -> invalid_arg "Card_analysis.measure: empty final join"
        | first :: rest ->
          List.fold_left
            (fun acc tbl -> Relops.hash_join ~name:"joined" acc tbl)
            first rest
      in
      ( { m_node = n;
          actual = Table.cardinality joined;
          m_children = List.map fst results
        },
        Rel joined )
    | Result -> (
      match n.children with
      | [ child ] -> (
        let mc, payload = go child in
        match payload with
        | Rel table ->
          let result =
            Relops.project_exprs ~name:"result" t.query.outer_projection table
            |> Relops.order_limit ~order_by:t.query.Analytical.order_by
                 ~limit:t.query.Analytical.limit
          in
          ( { m_node = n; actual = Table.cardinality result; m_children = [ mc ] },
            Rel result )
        | Bindings _ ->
          invalid_arg "Card_analysis.measure: result over bindings")
      | _ -> invalid_arg "Card_analysis.measure: malformed result node")
  in
  fst (go t.root)

let measured_list m =
  let rec go m acc =
    List.fold_left (fun acc c -> go c acc) ((m.m_node, m.actual) :: acc) m.m_children
  in
  List.rev (go m [])

let root_q_error m = Card.q_error m.m_node.card ~actual:m.actual

(* ---------------------------------------------------------------- *)
(* Rendering *)

let label_width = 52

let pp_line ppf ~depth label pp_tail =
  let indent = String.make (2 * depth) ' ' in
  let text = indent ^ label in
  let text =
    if String.length text > label_width then
      String.sub text 0 (label_width - 1) ^ "…"
    else text
  in
  Fmt.pf ppf "%-*s %t" label_width text pp_tail

let pp_plan ppf t =
  let rec go depth first n =
    if not first then Fmt.cut ppf ();
    pp_line ppf ~depth n.label (fun ppf ->
        Fmt.pf ppf "card %a  ~%.0f rows" Card.pp n.card
          (Card.point_estimate n.card));
    List.iter (go (depth + 1) false) n.children
  in
  Fmt.pf ppf "@[<v>";
  go 0 true t.root;
  Fmt.pf ppf "@]"

let pp_measured ppf m =
  let rec go depth first m =
    if not first then Fmt.cut ppf ();
    let n = m.m_node in
    pp_line ppf ~depth n.label (fun ppf ->
        Fmt.pf ppf "card %a  actual %d%s" Card.pp n.card m.actual
          (if Card.contains n.card m.actual then "" else "  OUT OF BOUNDS"));
    List.iter (go (depth + 1) false) m.m_children
  in
  Fmt.pf ppf "@[<v>";
  go 0 true m;
  Fmt.pf ppf "@]"

let op_name = function
  | Scan _ -> "scan"
  | Star_join _ -> "star-join"
  | Filter _ -> "filter"
  | Join _ -> "join"
  | Cross -> "cross"
  | Agg _ -> "agg"
  | Final_join -> "final-join"
  | Result -> "result"

let rec node_to_json n =
  Json.Obj
    [
      ("id", Json.Int n.id);
      ("op", Json.String (op_name n.op));
      ("label", Json.String n.label);
      ("ncols", Json.Int n.ncols);
      ("card", Card.to_json n.card);
      ("bytes", Card.to_json n.bytes);
      ("children", Json.List (List.map node_to_json n.children));
    ]

let to_json t =
  Json.Obj
    [
      ("plan", node_to_json t.root);
      ("diagnostics", Json.List (List.map Diagnostic.to_json t.diagnostics));
    ]

(* ---------------------------------------------------------------- *)
(* Planner-facing primitives: the same interval machinery the plan
   annotation uses, exposed so [Rapida_planner]'s join enumeration can
   cost candidate orders without re-deriving the bounds. *)

let star_interval cat (star : Star.t) =
  star_card cat star (List.map (scan_card cat) star.Star.patterns)

let join_match_bound = per_match_bound
let bytes_interval cat ~ncols card = bytes_of cat ncols card
