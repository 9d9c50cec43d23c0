open Rapida_rdf
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job
module Aggregate = Rapida_sparql.Aggregate

let key_size key =
  List.fold_left (fun acc t -> acc + String.length (Term.lexical t) + 2) 4 key

let opt_key_size key =
  List.fold_left
    (fun acc c ->
      acc + match c with Some t -> String.length (Term.lexical t) + 2 | None -> 1)
    4 key

(* Tagged rows: which side of the join a shuffled row came from. *)
type side = L | R

let repartition_join wf ~name a b =
  let shared = Relops.shared_cols a b in
  let schema = Relops.join_schema a b in
  let key_l = Relops.key_of_row a shared and key_r = Relops.key_of_row b shared in
  let merge = Relops.merge_rows a b in
  let tag side row = (side, row) in
  let input = List.map (tag L) a.Table.rows @ List.map (tag R) b.Table.rows in
  let spec : ((side * Table.row),
              Term.t list,
              (side * Table.row),
              Table.row) Job.spec =
    {
      name;
      map =
        (fun (side, row) ->
          (* NULL join keys never match, so such rows are not shuffled. *)
          match (match side with L -> key_l | R -> key_r) row with
          | Some key -> [ (key, (side, row)) ]
          | None -> []);
      combine = None;
      reduce =
        (fun _ tagged ->
          let lefts =
            List.filter_map (function L, r -> Some r | R, _ -> None) tagged
          in
          let rights =
            List.filter_map (function R, r -> Some r | L, _ -> None) tagged
          in
          List.concat_map
            (fun left_row ->
              List.map (fun right_row -> merge ~left_row ~right_row) rights)
            lefts);
      input_size = (fun (_, row) -> Table.row_size_bytes row);
      key_size;
      value_size = (fun (_, row) -> Table.row_size_bytes row + 1);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec input in
  Table.make ~name ~schema rows

let map_join wf ~name ~big ~small () =
  let spec : (Table.row, Table.row) Job.map_only_spec =
    {
      mo_name = name;
      mo_map = Relops.hash_probe big small;
      mo_input_size = Table.row_size_bytes;
      mo_output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_map_only wf spec big.Table.rows in
  Table.make ~name ~schema:(Relops.join_schema big small) rows

let group_aggregate wf ~name ~keys ~aggs t =
  let key_idx = List.map (Table.col_index t) keys in
  let agg_idx =
    List.map
      (fun (a : Relops.agg_spec) -> Option.map (Table.col_index t) a.col)
      aggs
  in
  let init_states () =
    List.map
      (fun (a : Relops.agg_spec) -> Aggregate.init a.func ~distinct:a.distinct)
      aggs
  in
  let merge_states xs ys = List.map2 Aggregate.merge xs ys in
  let spec : (Table.row,
              Term.t option list,
              Aggregate.state list,
              Table.row) Job.spec =
    {
      name;
      map =
        (fun row ->
          let key = List.map (fun i -> row.(i)) key_idx in
          let states =
            List.map2
              (fun state idx ->
                let v =
                  match idx with
                  | None -> Some (Term.int 1)
                  | Some i -> row.(i)
                in
                Aggregate.add state v)
              (init_states ()) agg_idx
          in
          [ (key, states) ]);
      combine =
        Some
          (fun _key states ->
            match states with
            | [] -> []
            | first :: rest -> [ List.fold_left merge_states first rest ]);
      reduce =
        (fun key states ->
          match states with
          | [] -> []
          | first :: rest ->
            let merged = List.fold_left merge_states first rest in
            [ Array.of_list (key @ List.map Aggregate.finish merged) ]);
      input_size = Table.row_size_bytes;
      key_size = opt_key_size;
      value_size =
        (fun states ->
          List.fold_left (fun acc s -> acc + Aggregate.size_bytes s) 0 states);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec t.Table.rows in
  let rows =
    if keys = [] && rows = [] then
      [ Array.of_list (List.map Aggregate.finish (init_states ())) ]
    else rows
  in
  let schema = keys @ List.map (fun (a : Relops.agg_spec) -> a.out) aggs in
  Table.make ~name ~schema rows

let distinct_project wf ~name ~cols t =
  let idx = List.map (Table.col_index t) cols in
  let spec : (Table.row, Term.t option list, unit, Table.row) Job.spec =
    {
      name;
      map = (fun row -> [ (List.map (fun i -> row.(i)) idx, ()) ]);
      combine = Some (fun _key _units -> [ () ]);
      reduce = (fun key _units -> [ Array.of_list key ]);
      input_size = Table.row_size_bytes;
      key_size = opt_key_size;
      value_size = (fun () -> 0);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec t.Table.rows in
  Table.make ~name ~schema:cols rows
