open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Analytical = Rapida_sparql.Analytical
module Star = Rapida_sparql.Star
module Stats_catalog = Rapida_analysis.Stats_catalog
module Prng = Rapida_datagen.Prng

type mode = Hitting | Adversarial

type env = {
  e_preds : (Term.t * Stats_catalog.pred_stats) list;
      (* non-rdf:type predicates with data behind them *)
  e_classes : Term.t list;
  e_links : (string * (Term.t * Stats_catalog.pred_stats) list) list;
      (* predicate IRI -> predicates its object values carry as subjects *)
}

let rdf_type_iri = Term.lexical Namespace.rdf_type

let env_of_graph g catalog =
  let preds =
    List.filter_map
      (fun (iri, st) ->
        if iri = rdf_type_iri then None else Some (Term.iri iri, st))
      catalog.Stats_catalog.preds
  in
  let classes = List.map (fun (iri, _) -> Term.iri iri) catalog.classes in
  (* Sample each predicate's objects: predicates whose objects are
     themselves subjects give the link edges that keep multi-star chains
     connected to real data. *)
  let link_of p =
    let triples = Graph.by_property g p in
    let seen = Hashtbl.create 8 in
    let rec sample n = function
      | [] -> ()
      | _ when n = 0 -> ()
      | tr :: rest ->
        let o = tr.Triple.o in
        (if Term.is_iri o then
           List.iter
             (fun tr' ->
               let key = Term.lexical tr'.Triple.p in
               if key <> rdf_type_iri && not (Hashtbl.mem seen key) then
                 Hashtbl.add seen key tr'.Triple.p)
             (Graph.by_subject g o));
        sample (n - 1) rest
    in
    sample 20 triples;
    Hashtbl.fold
      (fun _ term acc ->
        match Stats_catalog.pred catalog term with
        | Some st -> (term, st) :: acc
        | None -> acc)
      seen []
  in
  let links =
    List.filter_map
      (fun (p, _) ->
        match link_of p with
        | [] -> None
        | targets ->
          let targets =
            List.sort (fun (a, _) (b, _) -> Term.compare a b) targets
          in
          Some (Term.lexical p, targets))
      preds
  in
  { e_preds = preds; e_classes = classes; e_links = links }

(* --- sampling helpers -------------------------------------------------- *)

let take_random rng n xs =
  let rec go n xs acc =
    if n <= 0 || xs = [] then List.rev acc
    else
      let i = Prng.int rng (List.length xs) in
      let x = List.nth xs i in
      go (n - 1) (List.filteri (fun j _ -> j <> i) xs) (x :: acc)
  in
  go (min n (List.length xs)) xs []

let maybe rng p f = if Prng.bool rng p then f () else []

(* --- BGP skeleton ------------------------------------------------------ *)

(* One generated BGP: the triple patterns plus the variables available for
   grouping, and the numeric object variables (with their literal range)
   available for filters and SUM/AVG/MIN/MAX arguments. *)
type skeleton = {
  sk_patterns : Ast.triple_pattern list;
  sk_group_candidates : Ast.var list;
  sk_numeric : (Ast.var * Stats_catalog.num_range) list;
  sk_plain : Ast.var list;  (* non-numeric object variables *)
}

let invented_pred rng =
  Term.iri (Namespace.bench ^ "nothingUsesThisPredicate" ^ string_of_int (Prng.int rng 5))

let invented_class rng =
  Term.iri (Namespace.bench ^ "NoSuchClass" ^ string_of_int (Prng.int rng 3))

let gen_skeleton rng env ~mode =
  let counter = ref 0 in
  let fresh prefix =
    incr counter;
    Printf.sprintf "%s%d" prefix !counter
  in
  let patterns = ref [] in
  let numeric = ref [] in
  let plain = ref [] in
  let subjects = ref [] in
  let add_pattern tp = patterns := tp :: !patterns in
  (* Build one star rooted at [subject], drawing properties from [preds];
     returns (object var, link targets) continuations for chaining. *)
  let build_star subject preds =
    subjects := subject :: !subjects;
    let n_props = 1 + Prng.int rng 3 in
    let chosen = take_random rng n_props preds in
    let chosen =
      if chosen = [] then
        (* empty predicate pool (adversarial corner): invent one *)
        [ (invented_pred rng, None) ]
      else List.map (fun (p, st) -> (p, Some st)) chosen
    in
    let chosen =
      (* adversarial mode swaps some predicates for ones the data lacks *)
      if mode = Adversarial then
        List.map
          (fun (p, st) ->
            if Prng.bool rng 0.3 then (invented_pred rng, None) else (p, st))
          chosen
      else chosen
    in
    let continuations =
      List.filter_map
        (fun (p, st) ->
          let o = fresh "o" in
          add_pattern
            { Ast.tp_s = Ast.Nvar subject; tp_p = Ast.Nterm p; tp_o = Ast.Nvar o };
          (match st with
          | Some st -> (
            match st.Stats_catalog.num_range with
            | Some nr -> numeric := (o, nr) :: !numeric
            | None -> plain := o :: !plain)
          | None -> plain := o :: !plain);
          match List.assoc_opt (Term.lexical p) env.e_links with
          | Some targets when targets <> [] -> Some (o, targets)
          | _ -> None)
        chosen
    in
    (if env.e_classes <> [] && Prng.bool rng 0.35 then
       let cls =
         if mode = Adversarial && Prng.bool rng 0.5 then invented_class rng
         else Prng.pick rng env.e_classes
       in
       add_pattern
         {
           Ast.tp_s = Ast.Nvar subject;
           tp_p = Ast.Nterm Namespace.rdf_type;
           tp_o = Ast.Nterm cls;
         });
    continuations
  in
  let n_stars = 1 + Prng.weighted rng [| 0.6; 0.3; 0.1 |] in
  let rec chain subject preds remaining =
    let conts = build_star subject preds in
    if remaining > 1 && conts <> [] then
      let link_var, targets = Prng.pick rng conts in
      chain link_var targets (remaining - 1)
  in
  chain (fresh "s") env.e_preds n_stars;
  let patterns = List.rev !patterns in
  let group_candidates = List.rev_append !subjects (List.rev !plain) in
  {
    sk_patterns = patterns;
    sk_group_candidates = group_candidates;
    sk_numeric = List.rev !numeric;
    sk_plain = List.rev !plain;
  }

(* --- filters, aggregates, having --------------------------------------- *)

let num_literal rng x =
  if Float.is_integer x && Float.abs x < 1e9 && Prng.bool rng 0.5 then
    Term.int (int_of_float x)
  else Term.decimal x

let comparison rng ~mode (v, (nr : Stats_catalog.num_range)) =
  let op = Prng.pick rng [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  let threshold =
    match mode with
    | Hitting ->
      let frac = Prng.float rng 1.0 in
      nr.nmin +. (frac *. (nr.nmax -. nr.nmin))
    | Adversarial ->
      if Prng.bool rng 0.5 then nr.nmax +. 1000.0 else nr.nmin -. 1000.0
  in
  let threshold = Float.round (threshold *. 100.0) /. 100.0 in
  Ast.Ebin (op, Ast.Evar v, Ast.Eterm (num_literal rng threshold))

let gen_filters rng ~mode sk =
  if sk.sk_numeric = [] then []
  else
    let n = Prng.weighted rng [| 0.45; 0.4; 0.15 |] in
    List.init n (fun _ ->
        let base = comparison rng ~mode (Prng.pick rng sk.sk_numeric) in
        if Prng.bool rng 0.2 then
          let other = comparison rng ~mode (Prng.pick rng sk.sk_numeric) in
          Ast.Ebin ((if Prng.bool rng 0.5 then Ast.And else Ast.Or), base, other)
        else if Prng.bool rng 0.1 then Ast.Enot base
        else base)

let gen_aggregates rng sk ~suffix =
  let n = 1 + Prng.weighted rng [| 0.6; 0.4 |] in
  List.init n (fun i ->
      let out = Printf.sprintf "agg%d%s" i suffix in
      let expr =
        if sk.sk_numeric = [] || Prng.bool rng 0.45 then
          if Prng.bool rng 0.3 && sk.sk_group_candidates <> [] then
            Ast.Eagg
              ( Ast.Count,
                Some (Ast.Evar (Prng.pick rng sk.sk_group_candidates)),
                Prng.bool rng 0.3 )
          else Ast.Eagg (Ast.Count, None, false)
        else
          let func = Prng.pick rng [ Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ] in
          let v, _ = Prng.pick rng sk.sk_numeric in
          Ast.Eagg (func, Some (Ast.Evar v), false)
      in
      (expr, out))

let gen_having rng aggs =
  maybe rng 0.35 (fun () ->
      let _, out = Prng.pick rng aggs in
      let op = Prng.pick rng [ Ast.Gt; Ast.Ge; Ast.Lt ] in
      [ Ast.Ebin (op, Ast.Evar out, Ast.Eterm (Term.int (Prng.int rng 6))) ])

let gen_order_limit rng cols =
  let order_by =
    if cols = [] then []
    else
      maybe rng 0.4 (fun () ->
          List.map
            (fun v -> if Prng.bool rng 0.5 then Ast.Asc v else Ast.Desc v)
            (take_random rng (1 + Prng.int rng 2) cols))
  in
  (* LIMIT only under ORDER BY: the ordered path carries a full-row
     deterministic tiebreaker, so every engine keeps the same rows.
     An unordered LIMIT keeps whichever rows the physical plan produced
     first — legitimately different across engines. *)
  let limit =
    if order_by <> [] && Prng.bool rng 0.5 then Some (Prng.int rng 20) else None
  in
  (order_by, limit)

(* --- variable renaming (grouping-sets-style subquery copies) ------------ *)

let rename_var keep suffix v = if List.mem v keep then v else v ^ suffix

let rename_node keep suffix = function
  | Ast.Nvar v -> Ast.Nvar (rename_var keep suffix v)
  | n -> n

let rename_pattern keep suffix tp =
  {
    Ast.tp_s = rename_node keep suffix tp.Ast.tp_s;
    tp_p = rename_node keep suffix tp.Ast.tp_p;
    tp_o = rename_node keep suffix tp.Ast.tp_o;
  }

(* --- assembling selects ------------------------------------------------- *)

let subquery_select rng ~mode sk ~group_by ~suffix =
  let sk =
    if suffix = "" then sk
    else
      {
        sk_patterns = List.map (rename_pattern group_by suffix) sk.sk_patterns;
        sk_group_candidates =
          List.map (rename_var group_by suffix) sk.sk_group_candidates;
        sk_numeric =
          List.map (fun (v, nr) -> (rename_var group_by suffix v, nr)) sk.sk_numeric;
        sk_plain = List.map (rename_var group_by suffix) sk.sk_plain;
      }
  in
  let filters = gen_filters rng ~mode sk in
  let aggs = gen_aggregates rng sk ~suffix in
  let having = gen_having rng aggs in
  let projection =
    List.map (fun v -> Ast.Svar v) group_by
    @ List.map (fun (e, out) -> Ast.Sexpr (e, out)) aggs
  in
  let select =
    {
      Ast.distinct = false;
      projection;
      where =
        List.map (fun tp -> Ast.Ptriple tp) sk.sk_patterns
        @ List.map (fun f -> Ast.Pfilter f) filters;
      group_by;
      having;
      order_by = [];
      limit = None;
    }
  in
  let outputs = group_by @ List.map snd aggs in
  (select, outputs)

let pick_group_by rng sk =
  let n = Prng.weighted rng [| 0.2; 0.5; 0.3 |] in
  take_random rng n sk.sk_group_candidates

let generate rng env ~mode =
  let n_sub = 1 + Prng.weighted rng [| 0.7; 0.2; 0.1 |] in
  if n_sub = 1 then begin
    let sk = gen_skeleton rng env ~mode in
    let group_by = pick_group_by rng sk in
    let select, outputs = subquery_select rng ~mode sk ~group_by ~suffix:"" in
    let order_by, limit = gen_order_limit rng outputs in
    { Ast.base_select = { select with order_by; limit } }
  end
  else begin
    let sk = gen_skeleton rng env ~mode in
    (* Shared grouping variables join the subquery results; everything
       else is renamed apart per subquery, grouping-sets style. *)
    let shared =
      match pick_group_by rng sk with
      | [] -> take_random rng 1 sk.sk_group_candidates
      | g -> g
    in
    let subs =
      List.init n_sub (fun i ->
          let group_by =
            if Prng.bool rng 0.75 then shared
            else take_random rng (List.length shared) shared
          in
          let suffix = Printf.sprintf "_g%d" i in
          subquery_select rng ~mode sk ~group_by ~suffix)
    in
    let schema =
      List.fold_left
        (fun acc (_, outs) ->
          acc @ List.filter (fun v -> not (List.mem v acc)) outs)
        [] subs
    in
    let projection =
      if Prng.bool rng 0.7 || schema = [] then []
      else
        List.map
          (fun v -> Ast.Svar v)
          (take_random rng (1 + Prng.int rng (List.length schema)) schema)
    in
    let visible =
      match projection with
      | [] -> schema
      | items -> List.filter_map (function Ast.Svar v -> Some v | _ -> None) items
    in
    let order_by, limit = gen_order_limit rng visible in
    {
      Ast.base_select =
        {
          distinct = false;
          projection;
          where = List.map (fun (sel, _) -> Ast.Psub sel) subs;
          group_by = [];
          having = [];
          order_by;
          limit;
        };
    }
  end

(* --- shape classification ----------------------------------------------- *)

let shape q =
  match Analytical.of_query q with
  | Error _ -> "invalid"
  | Ok aq -> (
    if List.length aq.Analytical.subqueries > 1 then "gsets"
    else
      match aq.subqueries with
      | [] -> "invalid"
      | sq :: _ ->
        if List.length sq.stars > 1 then "join"
        else if sq.having <> [] then "having"
        else if sq.filters <> [] then "filter"
        else if aq.order_by <> [] || aq.limit <> None then "order"
        else "star")

(* --- byte-level inputs for the robustness oracle ------------------------ *)

let random_bytes rng ~max_len =
  let len = Prng.int rng (max 1 max_len) in
  String.init len (fun _ -> Char.chr (Prng.int rng 256))

let mutate_text rng s =
  let n = String.length s in
  if n = 0 then random_bytes rng ~max_len:8
  else
    match Prng.int rng 5 with
    | 0 ->
      (* flip one byte *)
      let i = Prng.int rng n in
      String.mapi (fun j c -> if j = i then Char.chr (Prng.int rng 256) else c) s
    | 1 ->
      (* insert a random byte *)
      let i = Prng.int rng (n + 1) in
      String.sub s 0 i
      ^ String.make 1 (Char.chr (Prng.int rng 256))
      ^ String.sub s i (n - i)
    | 2 ->
      (* delete one byte *)
      let i = Prng.int rng n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 3 -> String.sub s 0 (Prng.int rng n)  (* truncate *)
    | _ ->
      (* duplicate a slice *)
      let i = Prng.int rng n in
      let len = Prng.int rng (n - i) in
      String.sub s 0 (i + len) ^ String.sub s i (n - i)
