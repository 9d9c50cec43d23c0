module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Tg_store = Rapida_ntga.Tg_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Table = Rapida_relational.Table

(* Property requirements of a star's bound-property triple patterns;
   unbound-property patterns impose no property requirement (any triple
   can match them) and are checked during binding enumeration. *)
let star_reqs (star : Star.t) =
  List.filter_map
    (fun (tp : Ast.triple_pattern) ->
      match tp.tp_p with
      | Ast.Nvar _ -> None
      | Ast.Nterm prop -> (
        match tp.tp_o with
        | Ast.Nterm o -> Some (Ops.req ~obj:o prop)
        | Ast.Nvar _ -> Some (Ops.req prop)))
    star.patterns

let has_unbound_property (star : Star.t) =
  List.exists
    (fun (tp : Ast.triple_pattern) ->
      match tp.tp_p with Ast.Nvar _ -> true | Ast.Nterm _ -> false)
    star.patterns

let key_of_endpoint (e : Star.endpoint) : Ops.join_key =
  match e.role with
  | Star.Subject -> { star = e.star; access = `Subject }
  | Star.Object -> (
    match e.prop with
    | Some p -> { star = e.star; access = `ObjectOf p }
    | None ->
      (* Join through an unbound-property triple pattern: any object of
         the triplegroup can carry the join (validated at binding time). *)
      { star = e.star; access = `AnyObject })
  | Star.Property -> failwith "joins on property position are unsupported"

(* Map-side star source: scan only the equivalence-class partitions that
   cover the star's properties, push star-local filters into the scan,
   then group-filter each triplegroup. *)
let star_source planner store filters (star : Star.t) =
  let reqs = star_reqs star in
  let props = List.map (fun (r : Ops.prop_req) -> r.prop) reqs in
  let tgs = Tg_store.scan store ~required:props in
  let filter_refine, _, _ =
    if planner.Exec_ctx.ntga_filter_pushdown then
      Plan_util.push_star_filters star filters
    else (Option.some, [], filters)
  in
  let unbound = has_unbound_property star in
  let refine tg =
    match filter_refine tg with
    | None -> None
    | Some tg ->
      if unbound then
        (* Unbound-property patterns can match any triple: check the
           bound requirements but keep the whole triplegroup. *)
        if List.for_all (Ops.satisfies tg) reqs then Some tg else None
      else (
        match Ops.group_filter ~required:reqs [ tg ] with
        | [ tg' ] -> Some tg'
        | _ -> None)
  in
  Phys_ntga.Tgs { tgs; refine; star = star.id }

(* Filters no star can consume map-side; these run during aggregation. *)
let pending_filters planner stars filters =
  if not planner.Exec_ctx.ntga_filter_pushdown then filters
  else
    List.filter
      (fun f ->
        not
          (List.exists
             (fun star ->
               let _, pushed, _ = Plan_util.push_star_filters star [ f ] in
               pushed <> [])
             stars))
      filters

let eval_pattern wf store (sq : Analytical.subquery) =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let source id =
    star_source planner store sq.filters
      (List.find (fun (s : Star.t) -> s.id = id) sq.stars)
  in
  match sq.stars with
  | [ only ] ->
    (* A single-star pattern needs no join cycle: the grouping job's map
       phase applies the group filter directly. *)
    Phys_ntga.refined (source only.id)
  | _ ->
    Composite.left_deep
      (Composite.order_edges
         ~star_order:(Exec_ctx.join_order (Workflow.ctx wf) sq.sq_id)
         ~star_ids:(List.map (fun (s : Star.t) -> s.id) sq.stars)
         ~edges:sq.edges)
      ~first:(fun e ->
        Phys_ntga.join_cycle wf
          ~name:(Printf.sprintf "sq%d_tgjoin0" sq.sq_id)
          ~left:(source e.Star.left.star) ~right:(source e.Star.right.star)
          ~left_key:(key_of_endpoint e.Star.left)
          ~right_key:(key_of_endpoint e.Star.right)
          ~keep:(fun _ -> true))
      ~next:(fun i acc ~bound ~fresh ~joined:_ ->
        Phys_ntga.join_cycle wf
          ~name:(Printf.sprintf "sq%d_tgjoin%d" sq.sq_id i)
          ~left:(Phys_ntga.Pre acc) ~right:(source fresh.Star.star)
          ~left_key:(key_of_endpoint bound)
          ~right_key:(key_of_endpoint fresh)
          ~keep:(fun _ -> true))

let eval_subquery wf store (sq : Analytical.subquery) =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let joined = eval_pattern wf store sq in
  let agj =
    Phys_ntga.agj ~id:sq.sq_id
      ~stars:(List.map (fun (s : Star.t) -> (s.id, s)) sq.stars)
      ~filters:(pending_filters planner sq.stars sq.filters)
      ~group_by:sq.group_by ~aggregates:sq.aggregates ~alpha:(fun _ -> true)
  in
  match
    Phys_ntga.agg_cycle wf
      ~name:(Printf.sprintf "sq%d_aggjoin" sq.sq_id)
      ~combiner:planner.Exec_ctx.ntga_combiner ~input:joined [ agj ]
  with
  | [ table ] -> Plan_util.finish_subquery sq table
  | _ -> assert false

let run ctx store (q : Analytical.t) =
  let wf = Workflow.create ctx in
  let table =
    Plan_util.final_join wf q (List.map (eval_subquery wf store) q.subqueries)
  in
  (table, Workflow.stats wf)
