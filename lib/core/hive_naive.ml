module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats

(* Variables a subquery's later stages need: grouping keys, aggregate
   arguments, and filter variables. *)
let needed_vars (sq : Analytical.subquery) =
  sq.group_by
  @ List.filter_map (fun (a : Analytical.aggregate) -> a.arg) sq.aggregates
  @ List.concat_map Ast.expr_vars sq.filters
  |> List.sort_uniq String.compare

let edge_vars (sq : Analytical.subquery) =
  List.map (fun (e : Star.edge) -> e.var) sq.edges |> List.sort_uniq String.compare

let eval_subquery wf vp (sq : Analytical.subquery) =
  let keep = needed_vars sq @ edge_vars sq in
  let star_table (star : Star.t) =
    let tables = List.map (Plan_util.tp_table vp) star.patterns in
    let t =
      Plan_util.star_join wf
        ~name:(Printf.sprintf "sq%d_star%d" sq.sq_id star.id)
        ~required:tables ~optional:[]
    in
    let t, _pending = Plan_util.apply_ready_filters t sq.filters in
    Plan_util.project_needed t keep
  in
  let star_of id = List.find (fun (s : Star.t) -> s.id = id) sq.stars in
  let joined =
    match sq.stars with
    | [ only ] -> star_table only
    | _ ->
      Composite.left_deep
        (Composite.order_edges
           ~star_order:
             (Rapida_mapred.Exec_ctx.join_order (Workflow.ctx wf) sq.sq_id)
           ~star_ids:(List.map (fun (s : Star.t) -> s.id) sq.stars)
           ~edges:sq.edges)
        ~first:(fun e ->
          Plan_util.project_needed
            (Plan_util.pair_join wf
               ~name:(Printf.sprintf "sq%d_join0" sq.sq_id)
               (star_table (star_of e.Star.left.star))
               (star_table (star_of e.Star.right.star)))
            keep)
        ~next:(fun i acc ~bound:_ ~fresh ~joined:_ ->
          let joined =
            Plan_util.pair_join wf
              ~name:(Printf.sprintf "sq%d_join%d" sq.sq_id i)
              acc
              (star_table (star_of fresh.Star.star))
          in
          let joined, _ = Plan_util.apply_ready_filters joined sq.filters in
          Plan_util.project_needed joined keep)
  in
  let joined, pending = Plan_util.apply_ready_filters joined sq.filters in
  if pending <> [] then
    failwith "filter variables not bound by the graph pattern";
  Mr_relops.group_aggregate wf
    ~name:(Printf.sprintf "sq%d_groupby" sq.sq_id)
    ~keys:sq.group_by ~aggs:(Plan_util.agg_specs sq) joined
  |> Plan_util.finish_subquery sq

let run ctx vp (q : Analytical.t) =
  let wf = Workflow.create (Plan_util.hive_ctx ctx) in
  let table =
    Plan_util.final_join wf q (List.map (eval_subquery wf vp) q.subqueries)
  in
  (table, Workflow.stats wf)
