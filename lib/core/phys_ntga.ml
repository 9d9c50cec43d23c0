open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Binding = Rapida_sparql.Binding
module Aggregate = Rapida_sparql.Aggregate
module Analytical = Rapida_sparql.Analytical
module Triplegroup = Rapida_ntga.Triplegroup
module Joined = Rapida_ntga.Joined
module Ops = Rapida_ntga.Ops
module Tg_match = Rapida_ntga.Tg_match
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job
module Table = Rapida_relational.Table

type source =
  | Tgs of {
      tgs : Triplegroup.t list;
      refine : Triplegroup.t -> Triplegroup.t option;
      star : int;
    }
  | Pre of Joined.t list

let refined = function
  | Tgs { tgs; refine; star } ->
    List.filter_map (fun tg -> Option.map (Joined.of_tg star) (refine tg)) tgs
  | Pre js -> js

type side = L | R

type item =
  | Raw of side * Triplegroup.t
  | Joined_item of side * Joined.t

let item_size = function
  | Raw (_, tg) -> Triplegroup.size_bytes tg
  | Joined_item (_, j) -> Joined.size_bytes j

let source_items side = function
  | Tgs { tgs; _ } -> List.map (fun tg -> Raw (side, tg)) tgs
  | Pre js -> List.map (fun j -> Joined_item (side, j)) js

(* Refine (map-side group filter) and lift an item to a joined
   triplegroup. *)
let lift left right = function
  | Raw (side, tg) -> (
    let refine, star =
      match side, left, right with
      | L, Tgs { refine; star; _ }, _ -> (refine, star)
      | R, _, Tgs { refine; star; _ } -> (refine, star)
      | L, Pre _, _ | R, _, Pre _ -> assert false
    in
    match refine tg with
    | Some tg' -> Some (side, Joined.of_tg star tg')
    | None -> None)
  | Joined_item (side, j) -> Some (side, j)

let join_cycle wf ~name ~left ~right ~left_key ~right_key ~keep =
  let input = source_items L left @ source_items R right in
  let spec : (item, Term.t, (side * Joined.t), Joined.t) Job.spec =
    {
      name;
      map =
        (fun item ->
          match lift left right item with
          | None -> []
          | Some (side, j) ->
            let key = match side with L -> left_key | R -> right_key in
            List.map (fun k -> (k, (side, j))) (Ops.key_values key j));
      combine = None;
      reduce =
        (fun _key tagged ->
          let lefts =
            List.filter_map (function L, j -> Some j | R, _ -> None) tagged
          in
          let rights =
            List.filter_map (function R, j -> Some j | L, _ -> None) tagged
          in
          List.concat_map
            (fun l ->
              List.filter_map
                (fun r ->
                  let combined = Joined.join l r in
                  if keep combined then Some combined else None)
                rights)
            lefts);
      input_size = item_size;
      key_size = (fun k -> String.length (Term.lexical k) + 2);
      value_size = (fun (_, j) -> Joined.size_bytes j + 1);
      output_size = Joined.size_bytes;
    }
  in
  Workflow.run_job wf spec input

type agj = {
  agj_id : int;
  matcher : Tg_match.t;
  filters : Ast.expr list;
  group_by : Ast.var list;
  aggregates : Analytical.aggregate list;
  key : (Term.t option array -> Term.t option) list;
  args : (Term.t option array -> Term.t option) list;
  alpha : Joined.t -> bool;
}

let agj ~id ~stars ~filters ~group_by ~aggregates ~alpha =
  let matcher = Tg_match.compile stars in
  let read v =
    match Tg_match.slot matcher v with
    | Some i -> fun b -> b.(i)
    | None -> fun _ -> None
  in
  let one = Some (Term.int 1) in
  {
    agj_id = id;
    matcher;
    filters;
    group_by;
    aggregates;
    key = List.map read group_by;
    args =
      List.map
        (fun (a : Analytical.aggregate) ->
          match a.arg with None -> fun _ -> one | Some v -> read v)
        aggregates;
    alpha;
  }

let init_states agj =
  List.map
    (fun (a : Analytical.aggregate) -> Aggregate.init a.func ~distinct:a.distinct)
    agj.aggregates

let merge_states = List.map2 Aggregate.merge

(* One detail joined triplegroup's contribution to one Agg-Join: the
   grouping keys it binds, each with a partially-aggregated state list —
   the implicit n-split plus per-mapper hash aggregation of Algorithm 3. *)
let contributions agj joined =
  if not (agj.alpha joined) then []
  else begin
    let out = ref [] in
    Tg_match.iter agj.matcher joined (fun b ->
        let lookup v =
          match Tg_match.slot agj.matcher v with Some i -> b.(i) | None -> None
        in
        if List.for_all (Binding.eval_filter_with lookup) agj.filters then begin
          let key = List.map (fun read -> read b) agj.key in
          let states =
            List.map2
              (fun state read -> Aggregate.add state (read b))
              (init_states agj) agj.args
          in
          out := ((agj.agj_id, key), states) :: !out
        end);
    List.rev !out
  end

let key_size (_, key) =
  List.fold_left
    (fun acc c ->
      acc + match c with Some t -> String.length (Term.lexical t) + 2 | None -> 1)
    8 key

let agg_cycle wf ~name ~combiner ~input agjs =
  let by_id = List.map (fun agj -> (agj.agj_id, agj)) agjs in
  let spec : (Joined.t, (int * Term.t option list),
              Aggregate.state list,
              (int * Table.row)) Job.spec =
    {
      name;
      map = (fun joined -> List.concat_map (fun agj -> contributions agj joined) agjs);
      combine =
        (if combiner then
           Some
             (fun _key states ->
               match states with
               | [] -> []
               | first :: rest -> [ List.fold_left merge_states first rest ])
         else None);
      reduce =
        (fun (id, key) states ->
          match states with
          | [] -> []
          | first :: rest ->
            let merged = List.fold_left merge_states first rest in
            [ (id, Array.of_list (key @ List.map Aggregate.finish merged)) ]);
      input_size = Joined.size_bytes;
      key_size;
      value_size =
        (fun states ->
          List.fold_left (fun acc s -> acc + Aggregate.size_bytes s) 0 states);
      output_size = (fun (_, row) -> Table.row_size_bytes row);
    }
  in
  (* Record the estimated per-task footprint of the Agg-Join's combiner
     hash table (one mapper's input share, the upper bound on live
     partial-aggregation state) so Plan_verify can warn on overcommit
     against the cluster's task heap. The workflow keeps the maximum
     seen across cycles. *)
  (let input_bytes =
     List.fold_left (fun acc j -> acc + Joined.size_bytes j) 0 input
   in
   let tasks = Job.estimate_map_tasks (Workflow.cluster wf) ~input_bytes in
   Workflow.note_agj_ht_bytes wf (input_bytes / max 1 tasks));
  let tagged_rows = Workflow.run_job wf spec input in
  List.map
    (fun agj ->
      let rows =
        List.filter_map
          (fun (id, row) -> if id = agj.agj_id then Some row else None)
          tagged_rows
      in
      let schema =
        agj.group_by
        @ List.map (fun (a : Analytical.aggregate) -> a.out) agj.aggregates
      in
      Table.make ~name:(Printf.sprintf "agj%d" agj.agj_id) ~schema rows)
    (List.map snd by_id)
