module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats

let all_ids (composite : Composite.t) =
  List.map (fun (p : Composite.pattern_info) -> p.pat_id) composite.patterns

let is_prim composite (c : Composite.ctp) =
  List.for_all (fun id -> List.mem id c.owners) (all_ids composite)

(* One composite star, assembled in one multiway MR cycle: inner joins on
   the shared triples, left outer joins on the pattern-specific ones. *)
let star_table wf vp composite (star : Composite.star) =
  let required, optional =
    List.partition (is_prim composite) star.ctps
  in
  let scan = Plan_util.ctp_table vp ~subject_var:star.subject_var in
  Plan_util.star_join wf
    ~name:(Printf.sprintf "mqo_star%d" star.cs_id)
    ~required:(List.map scan required)
    ~optional:(List.map scan optional)

let eval_composite wf vp (composite : Composite.t) =
  let table_of id =
    star_table wf vp composite
      (List.find (fun (s : Composite.star) -> s.cs_id = id) composite.stars)
  in
  match composite.stars with
  | [ only ] -> star_table wf vp composite only
  | _ ->
    Composite.left_deep
      (Composite.join_plan
         ?star_order:(Rapida_mapred.Exec_ctx.join_order (Workflow.ctx wf) (-1))
         composite)
      ~first:(fun e ->
        Plan_util.pair_join wf ~name:"mqo_join0"
          (table_of e.Star.left.star)
          (table_of e.Star.right.star))
      ~next:(fun i acc ~bound:_ ~fresh ~joined:_ ->
        Plan_util.pair_join wf
          ~name:(Printf.sprintf "mqo_join%d" i)
          acc (table_of fresh.Star.star))

(* Columns whose non-NULL value witnesses that a pattern's own secondary
   triples matched. *)
let witness_cols composite (info : Composite.pattern_info) =
  List.concat_map
    (fun (star : Composite.star) ->
      List.filter_map
        (fun (c : Composite.ctp) ->
          if List.mem info.pat_id c.owners && not (is_prim composite c) then
            Some c.obj_var
          else None)
        star.ctps)
    composite.Composite.stars

let extract_and_aggregate wf composite q_opt (sq : Analytical.subquery)
    (info : Composite.pattern_info) =
  (* Map-side: keep rows where the pattern's secondary witnesses bound. *)
  let witnesses =
    List.map (Table.col_index q_opt) (witness_cols composite info)
  in
  let filtered =
    Relops.filter
      (fun row -> List.for_all (fun i -> row.(i) <> None) witnesses)
      q_opt
  in
  (* One MR cycle: distinct bindings of the original pattern (the left
     outer joins duplicated them across other patterns' optional
     expansions). *)
  let distinct =
    Mr_relops.distinct_project wf
      ~name:(Printf.sprintf "mqo_extract%d" info.pat_id)
      ~cols:(Composite.pattern_columns composite info)
      filtered
  in
  (* Back to the pattern's own variable names, then filters (map-side) and
     one aggregation cycle. *)
  let renames =
    List.map (fun (v, cv) -> (cv, v)) info.var_map
  in
  let renamed = Relops.rename_cols distinct renames in
  let renamed, pending = Plan_util.apply_ready_filters renamed sq.filters in
  if pending <> [] then
    failwith "filter variables not bound by the graph pattern";
  Mr_relops.group_aggregate wf
    ~name:(Printf.sprintf "mqo_groupby%d" info.pat_id)
    ~keys:sq.group_by ~aggs:(Plan_util.agg_specs sq) renamed
  |> Plan_util.finish_subquery sq

let shared wf vp composite members =
  let q_opt = eval_composite wf vp composite in
  List.map
    (fun ((q : Analytical.t), sqs) ->
      let tables =
        List.map
          (fun (sq : Analytical.subquery) ->
            let info =
              List.find
                (fun (p : Composite.pattern_info) -> p.pat_id = sq.sq_id)
                composite.Composite.patterns
            in
            extract_and_aggregate wf composite q_opt sq info)
          sqs
      in
      Plan_util.final_join wf q tables)
    members

let run ctx vp (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Error _ -> Hive_naive.run ctx vp q
  | Ok composite ->
    let wf = Workflow.create (Plan_util.hive_ctx ctx) in
    let table =
      match shared wf vp composite [ (q, q.subqueries) ] with
      | [ table ] -> table
      | _ -> assert false
    in
    (table, Workflow.stats wf)
