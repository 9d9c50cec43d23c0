module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Tg_store = Rapida_ntga.Tg_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Table = Rapida_relational.Table

(* Star-local filters are pushed into the scan only for single-pattern
   plans; with several patterns the paper's scope assumes identical
   filters across patterns, and the catalog's multi-pattern queries carry
   none, so the general case keeps filters in the aggregation phase. *)
let star_filter_refine planner sqs (star : Composite.star) =
  match sqs with
  | _ when not planner.Exec_ctx.ntga_filter_pushdown -> Option.some
  | [ (sq : Analytical.subquery) ] -> (
    match List.find_opt (fun (s : Star.t) -> s.id = star.cs_id) sq.stars with
    | Some orig ->
      let refine, _, _ = Plan_util.push_star_filters orig sq.filters in
      refine
    | None -> Option.some)
  | _ -> Option.some

(* Map-side source of a composite star: scan the partitions covering the
   primary properties, push star-local filters, then apply the Optional
   Group Filter. *)
let star_source planner sqs composite store (star : Composite.star) =
  let prim = Composite.prim_reqs composite star in
  let sec = Composite.sec_reqs composite star in
  let props = List.map (fun (r : Ops.prop_req) -> r.prop) prim in
  let tgs = Tg_store.scan store ~required:props in
  let filter_refine = star_filter_refine planner sqs star in
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
let partial_keep (composite : Composite.t) joined_star joined =
  List.exists
    (fun (p : Composite.pattern_info) ->
      let restricted =
        List.filter (fun (cs_id, _) -> joined_star cs_id) p.alpha
      in
      Composite.alpha_holds restricted joined)
    composite.patterns

(* The composite pattern evaluated with NTGA operators: one map-side scan
   + group filter per composite star and one join cycle per edge. *)
let eval_composite wf sqs store (composite : Composite.t) =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let source id =
    star_source planner sqs composite store
      (List.find (fun (s : Composite.star) -> s.cs_id = id) composite.stars)
  in
  match composite.stars with
  | [ only ] -> Phys_ntga.refined (source only.cs_id)
  | _ ->
    Composite.left_deep
      (Composite.join_plan
         ?star_order:(Exec_ctx.join_order (Workflow.ctx wf) (-1))
         composite)
      ~first:(fun e ->
        let pair s = s = e.Star.left.star || s = e.Star.right.star in
        Phys_ntga.join_cycle wf ~name:"composite_join0"
          ~left:(source e.Star.left.star) ~right:(source e.Star.right.star)
          ~left_key:(Rapid_plus.key_of_endpoint e.Star.left)
          ~right_key:(Rapid_plus.key_of_endpoint e.Star.right)
          ~keep:(partial_keep composite pair))
      ~next:(fun i acc ~bound ~fresh ~joined ->
        Phys_ntga.join_cycle wf
          ~name:(Printf.sprintf "composite_join%d" i)
          ~left:(Phys_ntga.Pre acc) ~right:(source fresh.Star.star)
          ~left_key:(Rapid_plus.key_of_endpoint bound)
          ~right_key:(Rapid_plus.key_of_endpoint fresh)
          ~keep:(partial_keep composite joined))

(* The parallel Agg-Join: one agj per subquery, all evaluated in a single
   MR cycle over the composite matches. Bindings are extracted with each
   subquery's original star patterns against the joined parts they map
   to (the implicit n-split). *)
let agjs_of planner composite sqs =
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
        match sqs with
        | [ _ ] -> Rapid_plus.pending_filters planner sq.stars sq.filters
        | _ -> sq.filters
      in
      Phys_ntga.agj ~id:sq.sq_id ~stars ~filters ~group_by:sq.group_by
        ~aggregates:sq.aggregates ~alpha:(Composite.alpha_holds info.alpha))
    sqs

(* Split the cycle's tables, one per pooled subquery, back into members
   and finish each member with its own final join. *)
let rec finish_members wf members tables =
  match members with
  | [] -> []
  | ((q : Analytical.t), sqs) :: rest ->
    let n = List.length sqs in
    let mine = List.filteri (fun i _ -> i < n) tables in
    let others = List.filteri (fun i _ -> i >= n) tables in
    let table =
      Plan_util.final_join wf q (List.map2 Plan_util.finish_subquery sqs mine)
    in
    table :: finish_members wf rest others

let shared wf store composite members =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let sqs = List.concat_map snd members in
  let joined = eval_composite wf sqs store composite in
  let tables =
    Phys_ntga.agg_cycle wf ~name:"parallel_aggjoin"
      ~combiner:planner.Exec_ctx.ntga_combiner ~input:joined
      (agjs_of planner composite sqs)
  in
  finish_members wf members tables

let run ctx store (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Error _ ->
    (* Non-overlapping patterns: the optimization does not apply; evaluate
       with the naive NTGA plan. *)
    Rapid_plus.run ctx store q
  | Ok composite ->
    let wf = Workflow.create ctx in
    let table =
      match shared wf store composite [ (q, q.subqueries) ] with
      | [ table ] -> table
      | _ -> assert false
    in
    (table, Workflow.stats wf)

let plan_description (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Ok composite ->
    Fmt.str
      "@[<v>composite rewriting applies:@ %a@ %d parallel Agg-Join(s) in \
       one MR cycle@]"
      Composite.pp composite
      (List.length q.subqueries)
  | Error msg -> Fmt.str "composite rewriting does not apply: %s" msg
