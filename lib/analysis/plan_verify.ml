open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Composite = Rapida_core.Composite
module Overlap = Rapida_core.Overlap
module Engine = Rapida_core.Engine

let dedup xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let join_cols acc cols =
  acc @ List.filter (fun c -> not (List.mem c acc)) cols

let expected_schema (q : Analytical.t) =
  let base =
    List.fold_left
      (fun acc sq -> join_cols acc (Analytical.output_columns sq))
      [] q.Analytical.subqueries
  in
  match q.Analytical.outer_projection with
  | [] -> base
  | items ->
    List.map (function Ast.Svar v -> v | Ast.Sexpr (_, v) -> v) items

let errorf ~rule fmt = Diagnostic.errorf ~rule fmt

(* --- per-subquery grouping/aggregation consistency (Def. 3.6) --------- *)

let verify_subquery (sq : Analytical.subquery) acc =
  let bound = dedup (List.concat_map Ast.pattern_vars sq.Analytical.bgp) in
  let acc =
    List.fold_left
      (fun acc g ->
        if List.mem g bound then acc
        else
          errorf ~rule:"aggjoin-keys"
            "subquery %d groups by ?%s, which its pattern never binds"
            sq.Analytical.sq_id g
          :: acc)
      acc sq.Analytical.group_by
  in
  let acc =
    List.fold_left
      (fun acc (a : Analytical.aggregate) ->
        match a.Analytical.arg with
        | Some v when not (List.mem v bound) ->
          errorf ~rule:"aggjoin-keys"
            "subquery %d aggregates over ?%s, which its pattern never binds"
            sq.Analytical.sq_id v
          :: acc
        | _ -> acc)
      acc sq.Analytical.aggregates
  in
  let outs = List.map (fun (a : Analytical.aggregate) -> a.Analytical.out)
      sq.Analytical.aggregates
  in
  let acc =
    if List.length outs <> List.length (dedup outs) then
      errorf ~rule:"aggjoin-keys"
        "subquery %d has duplicate aggregate output names" sq.Analytical.sq_id
      :: acc
    else acc
  in
  let acc =
    List.fold_left
      (fun acc o ->
        if List.mem o sq.Analytical.group_by then
          errorf ~rule:"aggjoin-keys"
            "subquery %d: aggregate output ?%s collides with a grouping key"
            sq.Analytical.sq_id o
          :: acc
        else acc)
      acc outs
  in
  let available = Analytical.output_columns sq in
  List.fold_left
    (fun acc h ->
      List.fold_left
        (fun acc v ->
          if List.mem v available then acc
          else
            errorf ~rule:"aggjoin-keys"
              "subquery %d: HAVING references ?%s, which is neither a \
               grouping key nor an aggregate output"
              sq.Analytical.sq_id v
          :: acc)
        acc
        (dedup (Ast.expr_vars h)))
    acc sq.Analytical.having

(* --- join-order replay: every shuffle key bound upstream -------------- *)

let star_vars_tbl stars =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (st : Star.t) ->
      Hashtbl.replace tbl st.Star.id
        (dedup (List.concat_map Ast.pattern_vars st.Star.patterns)))
    stars;
  tbl

let replay_join_order ~what ~star_vars ordered acc =
  match ordered with
  | [] -> acc
  | (e0 : Star.edge) :: _ ->
    let joined = ref [ e0.Star.left.Star.star ] in
    List.fold_left
      (fun acc (e : Star.edge) ->
        let l = e.Star.left.Star.star and r = e.Star.right.Star.star in
        let var_ok side =
          match Hashtbl.find_opt star_vars side with
          | Some vs -> List.mem e.Star.var vs
          | None -> false
        in
        let acc =
          if var_ok l && var_ok r then acc
          else
            errorf ~rule:"workflow-dag"
              "%s: join variable ?%s is not bound by both endpoint stars \
               (%d, %d)"
              what e.Star.var l r
            :: acc
        in
        let acc =
          if List.mem l !joined || List.mem r !joined then acc
          else
            errorf ~rule:"workflow-dag"
              "%s: the join on ?%s shuffles stars %d and %d before either \
               is bound upstream"
              what e.Star.var l r
            :: acc
        in
        joined := dedup (l :: r :: !joined);
        acc)
      acc ordered

let verify_join_orders (sq : Analytical.subquery) acc =
  if List.length sq.Analytical.stars <= 1 then acc
  else
    let star_ids = List.map (fun (s : Star.t) -> s.Star.id) sq.Analytical.stars in
    match
      Composite.order_edges ~star_order:None ~star_ids
        ~edges:sq.Analytical.edges
    with
    | Error msg ->
      errorf ~rule:"workflow-dag" "subquery %d: %s" sq.Analytical.sq_id msg
      :: acc
    | Ok ordered ->
      replay_join_order
        ~what:(Fmt.str "subquery %d" sq.Analytical.sq_id)
        ~star_vars:(star_vars_tbl sq.Analytical.stars)
        ordered acc

(* --- optimizer-enumerated join orders --------------------------------- *)

let verify_join_order ~star_ids ~edges ~order =
  let acc = [] in
  let acc =
    if List.sort compare order <> List.sort compare star_ids then
      [
        errorf ~rule:"opt-join-order"
          "enumerated order [%s] is not a permutation of the pattern's star \
           ids [%s]"
          (String.concat ";" (List.map string_of_int order))
          (String.concat ";" (List.map string_of_int star_ids));
      ]
    else acc
  in
  if acc <> [] then acc
  else
    match order with
    | [] | [ _ ] -> acc
    | first :: rest ->
      let joined = ref [ first ] in
      let connects s =
        List.exists
          (fun (e : Star.edge) ->
            (e.Star.left.Star.star = s && List.mem e.Star.right.Star.star !joined)
            || (e.Star.right.Star.star = s
               && List.mem e.Star.left.Star.star !joined))
          edges
      in
      List.fold_left
        (fun acc s ->
          let acc =
            if connects s then acc
            else
              errorf ~rule:"opt-join-order"
                "enumerated order joins star %d before any edge connects it \
                 to the prefix [%s]"
                s
                (String.concat ";" (List.map string_of_int !joined))
              :: acc
          in
          joined := s :: !joined;
          acc)
        acc rest

(* --- composite-pattern invariants (Defs. 3.1, 3.2, 3.4, 3.5) --------- *)

let composite_star comp cs_id =
  List.find_opt (fun (s : Composite.star) -> s.Composite.cs_id = cs_id)
    comp.Composite.stars

let composite_vars comp =
  dedup
    (List.concat_map
       (fun (s : Composite.star) ->
         s.Composite.subject_var
         :: List.map (fun (c : Composite.ctp) -> c.Composite.obj_var)
              s.Composite.ctps)
       comp.Composite.stars)

let verify_composite (q : Analytical.t) acc =
  match q.Analytical.subqueries with
  | [] | [ _ ] -> acc
  | first :: rest ->
    let sq_ids =
      List.map (fun sq -> sq.Analytical.sq_id) q.Analytical.subqueries
    in
    (* Def. 3.2: role-equivalence evidence, via the overlap report. *)
    let acc =
      List.fold_left
        (fun acc sq ->
          let report = Overlap.check first sq in
          if Overlap.overlaps report then acc
          else
            List.fold_left
              (fun acc f ->
                errorf ~rule:"composite-role"
                  "subqueries %d and %d do not overlap: %a"
                  first.Analytical.sq_id sq.Analytical.sq_id Overlap.pp_failure
                  f
                :: acc)
              acc report.Overlap.failures)
        acc rest
    in
    (match Composite.build q.Analytical.subqueries with
    | Error msg -> errorf ~rule:"composite-cover" "%s" msg :: acc
    | Ok comp ->
      let n = List.length q.Analytical.subqueries in
      (* Def. 3.1: ownership and the primary/secondary partition. *)
      let acc =
        List.fold_left
          (fun acc (cs : Composite.star) ->
            let acc =
              List.fold_left
                (fun acc (c : Composite.ctp) ->
                  if c.Composite.owners = [] then
                    errorf ~rule:"composite-cover"
                      "composite star %d: property %a has no owning pattern"
                      cs.Composite.cs_id Term.pp c.Composite.prop
                    :: acc
                  else if
                    List.exists
                      (fun o -> not (List.mem o sq_ids))
                      c.Composite.owners
                  then
                    errorf ~rule:"composite-cover"
                      "composite star %d: property %a is owned by an unknown \
                       pattern"
                      cs.Composite.cs_id Term.pp c.Composite.prop
                    :: acc
                  else acc)
                acc cs.Composite.ctps
            in
            let prim = Composite.prim_reqs comp cs
            and sec = Composite.sec_reqs comp cs in
            if
              List.length prim + List.length sec
              <> List.length cs.Composite.ctps
            then
              errorf ~rule:"composite-cover"
                "composite star %d: primary + secondary requirements do not \
                 partition its %d properties (Def. 3.1)"
                cs.Composite.cs_id
                (List.length cs.Composite.ctps)
              :: acc
            else acc)
          acc comp.Composite.stars
      in
      (* Every original property must be covered by the mapped composite
         star, with the originating pattern among its owners. *)
      let acc =
        List.fold_left
          (fun acc (info : Composite.pattern_info) ->
            match
              List.find_opt
                (fun sq -> sq.Analytical.sq_id = info.Composite.pat_id)
                q.Analytical.subqueries
            with
            | None ->
              errorf ~rule:"nsplit-arity"
                "split pattern %d does not correspond to any subquery"
                info.Composite.pat_id
              :: acc
            | Some sq ->
              List.fold_left
                (fun acc (st : Star.t) ->
                  match List.assoc_opt st.Star.id info.Composite.star_of with
                  | None ->
                    errorf ~rule:"composite-cover"
                      "pattern %d star %d is not mapped to a composite star"
                      info.Composite.pat_id st.Star.id
                    :: acc
                  | Some cs_id -> (
                    match composite_star comp cs_id with
                    | None ->
                      errorf ~rule:"composite-cover"
                        "pattern %d star %d maps to unknown composite star %d"
                        info.Composite.pat_id st.Star.id cs_id
                      :: acc
                    | Some cs ->
                      List.fold_left
                        (fun acc p ->
                          if
                            List.exists
                              (fun (c : Composite.ctp) ->
                                Term.equal c.Composite.prop p
                                && List.mem info.Composite.pat_id
                                     c.Composite.owners)
                              cs.Composite.ctps
                          then acc
                          else
                            errorf ~rule:"composite-cover"
                              "property %a of pattern %d is not covered by \
                               composite star %d with ownership (Def. 3.1)"
                              Term.pp p info.Composite.pat_id cs_id
                            :: acc)
                        acc (Star.props st)))
                acc sq.Analytical.stars)
          acc comp.Composite.patterns
      in
      (* Defs. 3.4–3.5: the n-split produces one pattern per subquery and
         α conditions / variable maps stay inside the composite pattern. *)
      let acc =
        if List.length comp.Composite.patterns <> n then
          errorf ~rule:"nsplit-arity"
            "n-split arity %d differs from the %d input patterns (Def. 3.4)"
            (List.length comp.Composite.patterns)
            n
          :: acc
        else acc
      in
      let cvars = composite_vars comp in
      let acc =
        List.fold_left
          (fun acc (info : Composite.pattern_info) ->
            let acc =
              List.fold_left
                (fun acc (cs_id, req) ->
                  match composite_star comp cs_id with
                  | None ->
                    errorf ~rule:"nsplit-arity"
                      "pattern %d: α condition refers to unknown composite \
                       star %d"
                      info.Composite.pat_id cs_id
                    :: acc
                  | Some cs ->
                    if List.mem req (Composite.sec_reqs comp cs) then acc
                    else
                      errorf ~rule:"nsplit-arity"
                        "pattern %d: α condition on composite star %d is not \
                         one of its secondary requirements (Def. 3.5)"
                        info.Composite.pat_id cs_id
                      :: acc)
                acc info.Composite.alpha
            in
            List.fold_left
              (fun acc (v, cv) ->
                if List.mem cv cvars then acc
                else
                  errorf ~rule:"nsplit-arity"
                    "pattern %d maps ?%s to ?%s, which the composite pattern \
                     never binds"
                    info.Composite.pat_id v cv
                  :: acc)
              acc info.Composite.var_map)
          acc comp.Composite.patterns
      in
      (* Def. 3.6: grouping keys and aggregate arguments must survive the
         split — their composite names must be among the pattern's
         columns. *)
      let acc =
        List.fold_left
          (fun acc (info : Composite.pattern_info) ->
            match
              List.find_opt
                (fun sq -> sq.Analytical.sq_id = info.Composite.pat_id)
                q.Analytical.subqueries
            with
            | None -> acc (* already reported as nsplit-arity *)
            | Some sq ->
              let cols = Composite.pattern_columns comp info in
              let need ~what acc v =
                let cv = Composite.map_var info v in
                if List.mem cv cols then acc
                else
                  errorf ~rule:"aggjoin-keys"
                    "pattern %d: %s ?%s (composite ?%s) is not among the \
                     split pattern's bindings (Def. 3.6)"
                    info.Composite.pat_id what v cv
                  :: acc
              in
              let acc =
                List.fold_left (need ~what:"grouping key") acc
                  sq.Analytical.group_by
              in
              List.fold_left
                (fun acc (a : Analytical.aggregate) ->
                  match a.Analytical.arg with
                  | Some v -> need ~what:"aggregate argument" acc v
                  | None -> acc)
                acc sq.Analytical.aggregates)
          acc comp.Composite.patterns
      in
      (* The composite join order is itself a valid workflow. *)
      (match Composite.join_plan comp with
      | Error msg -> errorf ~rule:"workflow-dag" "composite pattern: %s" msg :: acc
      | Ok ordered ->
        let star_vars = Hashtbl.create 8 in
        List.iter
          (fun (cs : Composite.star) ->
            Hashtbl.replace star_vars cs.Composite.cs_id
              (cs.Composite.subject_var
              :: List.map (fun (c : Composite.ctp) -> c.Composite.obj_var)
                   cs.Composite.ctps))
          comp.Composite.stars;
        replay_join_order ~what:"composite pattern" ~star_vars ordered acc))

let verify_query (q : Analytical.t) =
  let acc = List.fold_left (fun acc sq -> verify_subquery sq acc) [] q.Analytical.subqueries in
  let acc =
    List.fold_left (fun acc sq -> verify_join_orders sq acc) acc
      q.Analytical.subqueries
  in
  let acc = verify_composite q acc in
  Diagnostic.sort acc

let pp_schema = Fmt.(list ~sep:(any ", ") string)

let verify_result ~engine (q : Analytical.t) (table : Table.t) =
  let expected = expected_schema q in
  if table.Table.schema = expected then []
  else
    [
      errorf ~rule:"schema-mismatch"
        "%s produced schema [%a] but the query implies [%a]" engine pp_schema
        table.Table.schema pp_schema expected;
    ]

let verify_cross_engine (q : Analytical.t) results =
  let per_engine =
    List.concat_map
      (fun (engine, table) -> verify_result ~engine q table)
      results
  in
  match results with
  | [] | [ _ ] -> per_engine
  | (e0, t0) :: rest ->
    List.fold_left
      (fun acc (e, t) ->
        if t.Table.schema = t0.Table.schema then acc
        else
          errorf ~rule:"schema-mismatch"
            "engines %s and %s disagree on the result schema: [%a] vs [%a]"
            e0 e pp_schema t0.Table.schema pp_schema t.Table.schema
          :: acc)
      per_engine rest

let check_run kind q table =
  let engine = Engine.kind_name kind in
  match
    List.filter_map
      (fun d ->
        if Diagnostic.is_error d then Some (Fmt.str "%a" Diagnostic.pp d)
        else None)
      (verify_query q @ verify_result ~engine q table)
  with
  | [] -> None
  | problems ->
    Some
      (Fmt.str "plan verification failed (%s): %s" engine
         (String.concat "; " problems))

(* --- memory overcommit (warning) -------------------------------------- *)

let verify_memory ~heap_bytes ~agj_ht_bytes =
  if agj_ht_bytes > heap_bytes then
    [
      Diagnostic.warningf ~rule:"mem-overcommit"
        "Agg-Join estimates a per-task hash table of %d bytes against a \
         %d-byte task heap; expect OOM retries and a combiner-disabled \
         (degraded) rerun"
        agj_ht_bytes heap_bytes;
    ]
  else []
