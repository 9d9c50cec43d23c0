module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Joined = Rapida_ntga.Joined
module Tg_store = Rapida_ntga.Tg_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Table = Rapida_relational.Table

(* Star-local filters are pushed into the scan only for single-pattern
   queries; with several patterns the paper's scope assumes identical
   filters across patterns, and the catalog's multi-pattern queries carry
   none, so the general case keeps filters in the aggregation phase. *)
let star_filter_refine planner (q : Analytical.t) (star : Composite.star) =
  match q.subqueries with
  | _ when not planner.Exec_ctx.ntga_filter_pushdown -> Option.some
  | [ sq ] -> (
    match
      List.find_opt
        (fun (s : Rapida_sparql.Star.t) -> s.id = star.cs_id)
        sq.stars
    with
    | Some orig ->
      let refine, _, _ = Plan_util.push_star_filters orig sq.filters in
      refine
    | None -> Option.some)
  | _ -> Option.some

(* Map-side source of a composite star: scan the partitions covering the
   primary properties, push star-local filters, then apply the Optional
   Group Filter. *)
let star_source planner q composite store (star : Composite.star) =
  let prim = Composite.prim_reqs composite star in
  let sec = Composite.sec_reqs composite star in
  let props = List.map (fun (r : Ops.prop_req) -> r.prop) prim in
  let tgs = Tg_store.scan store ~required:props in
  let filter_refine = star_filter_refine planner q star in
  let refine tg =
    match filter_refine tg with
    | None -> None
    | Some tg -> (
      match Ops.opt_group_filter ~prim ~opt:sec [ tg ] with
      | [ tg' ] -> Some tg'
      | _ -> None)
  in
  Phys_ntga.Tgs { tgs; refine; star = star.cs_id }

(* α conditions restricted to already-joined stars: a partial join is kept
   when at least one pattern could still match it. *)
let partial_keep (composite : Composite.t) seen joined =
  List.exists
    (fun (p : Composite.pattern_info) ->
      let restricted =
        List.filter (fun (cs_id, _) -> Hashtbl.mem seen cs_id) p.alpha
      in
      Composite.alpha_holds restricted joined)
    composite.patterns

let eval_composite wf q store (composite : Composite.t) =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let star_of id =
    List.find (fun (s : Composite.star) -> s.cs_id = id) composite.stars
  in
  match composite.stars with
  | [ only ] ->
    let prim = Composite.prim_reqs composite only in
    let sec = Composite.sec_reqs composite only in
    let props = List.map (fun (r : Ops.prop_req) -> r.prop) prim in
    let filter_refine = star_filter_refine planner q only in
    Tg_store.scan store ~required:props
    |> List.concat_map (fun tg ->
           match filter_refine tg with
           | None -> []
           | Some tg -> (
             match Ops.opt_group_filter ~prim ~opt:sec [ tg ] with
             | [ tg' ] -> [ Joined.of_tg only.cs_id tg' ]
             | _ -> []))
  | _ -> (
    match
      Composite.join_plan
        ?star_order:(Exec_ctx.join_order (Workflow.ctx wf) (-1))
        composite
    with
    | Error msg -> failwith msg
    | Ok [] -> failwith "composite pattern without join edges"
    | Ok (first :: rest) ->
      let seen = Hashtbl.create 8 in
      Hashtbl.add seen first.Star.left.star ();
      Hashtbl.add seen first.Star.right.star ();
      let init =
        Phys_ntga.join_cycle wf ~name:"composite_join0"
          ~left:
            (star_source planner q composite store
               (star_of first.Star.left.star))
          ~right:
            (star_source planner q composite store
               (star_of first.Star.right.star))
          ~left_key:(Rapid_plus.key_of_endpoint first.Star.left)
          ~right_key:(Rapid_plus.key_of_endpoint first.Star.right)
          ~keep:(partial_keep composite seen)
      in
      let acc, _ =
        List.fold_left
          (fun (acc, i) (e : Star.edge) ->
            let new_endpoint, old_endpoint =
              if Hashtbl.mem seen e.Star.left.star then (e.right, e.left)
              else (e.left, e.right)
            in
            Hashtbl.replace seen new_endpoint.Star.star ();
            let joined =
              Phys_ntga.join_cycle wf
                ~name:(Printf.sprintf "composite_join%d" i)
                ~left:(Phys_ntga.Pre acc)
                ~right:
                  (star_source planner q composite store
                     (star_of new_endpoint.Star.star))
                ~left_key:(Rapid_plus.key_of_endpoint old_endpoint)
                ~right_key:(Rapid_plus.key_of_endpoint new_endpoint)
                ~keep:(partial_keep composite seen)
            in
            (joined, i + 1))
          (init, 1) rest
      in
      acc)

(* The parallel Agg-Join: one agj per subquery, all evaluated in a single
   MR cycle over the composite matches. Bindings are extracted with each
   subquery's original star patterns against the joined parts they map
   to (the implicit n-split). *)
let agjs_of planner composite (q : Analytical.t) =
  List.map
    (fun (sq : Analytical.subquery) ->
      let info =
        List.find
          (fun (p : Composite.pattern_info) -> p.pat_id = sq.sq_id)
          composite.Composite.patterns
      in
      let stars =
        List.map
          (fun (orig_id, cs_id) ->
            (cs_id, List.find (fun (s : Star.t) -> s.id = orig_id) sq.stars))
          info.star_of
      in
      let filters =
        match q.subqueries with
        | [ _ ] when planner.Exec_ctx.ntga_filter_pushdown ->
          List.filter
            (fun f ->
              not
                (List.exists
                   (fun star ->
                     let _, pushed, _ =
                       Plan_util.push_star_filters star [ f ]
                     in
                     pushed <> [])
                   sq.stars))
            sq.filters
        | _ -> sq.filters
      in
      Phys_ntga.agj ~id:sq.sq_id ~stars ~filters ~group_by:sq.group_by
        ~aggregates:sq.aggregates ~alpha:(Composite.alpha_holds info.alpha))
    q.subqueries

let run_composite ctx store (q : Analytical.t) composite =
  let wf = Workflow.create ctx in
  let planner = Exec_ctx.planner ctx in
  match
    let joined = eval_composite wf q store composite in
    let tables =
      Phys_ntga.agg_cycle wf ~name:"parallel_aggjoin"
        ~combiner:planner.Exec_ctx.ntga_combiner ~input:joined
        (agjs_of planner composite q)
    in
    let tables =
      List.map2 Plan_util.finish_subquery q.subqueries tables
    in
    Plan_util.final_join wf q tables
  with
  | table -> Ok (table, Workflow.stats wf)
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let run ctx store (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Ok composite -> run_composite ctx store q composite
  | Error _ ->
    (* Non-overlapping patterns: the optimization does not apply; evaluate
       with the naive NTGA plan. *)
    Rapid_plus.run ctx store q

let plan_description (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Ok composite ->
    Fmt.str
      "@[<v>composite rewriting applies:@ %a@ %d parallel Agg-Join(s) in \
       one MR cycle@]"
      Composite.pp composite
      (List.length q.subqueries)
  | Error msg -> Fmt.str "composite rewriting does not apply: %s" msg
