module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job

type member = {
  m_index : int;
  m_query : Analytical.t;
  m_subqueries : Analytical.subquery list;
}

type group = {
  g_members : member list;
  g_composite : Composite.t option;
}

let shares = function
  | Engine.Hive_mqo | Engine.Rapid_analytics -> true
  | Engine.Hive_naive | Engine.Rapid_plus -> false

(* Pool a query's subqueries into a group's merged numbering: composite
   pattern ids are the subquery ids, so pooled ids must be contiguous
   and unique across members. Only [sq_id] changes — patterns, filters,
   grouping, and aggregates are untouched. *)
let renumber ~base sqs =
  List.mapi
    (fun i (sq : Analytical.subquery) ->
      { sq with Analytical.sq_id = base + i })
    sqs

let pooled_subqueries members =
  List.concat_map (fun m -> m.m_subqueries) members

let singleton i q =
  let sqs = renumber ~base:0 q.Analytical.subqueries in
  {
    g_members = [ { m_index = i; m_query = q; m_subqueries = sqs } ];
    g_composite =
      (match Composite.build sqs with Ok c -> Some c | Error _ -> None);
  }

let singletons queries = List.mapi singleton queries

let group_queries kind queries =
  if not (shares kind) then singletons queries
  else
    let extend g i q =
      (* A group only grows while the pooled subqueries still form one
         composite pattern — Defs 3.1/3.2 checked across queries. *)
      match g.g_composite with
      | None -> None
      | Some _ ->
        let base = List.length (pooled_subqueries g.g_members) in
        let sqs = renumber ~base q.Analytical.subqueries in
        let pooled = pooled_subqueries g.g_members @ sqs in
        (match Composite.build pooled with
        | Error _ -> None
        | Ok composite ->
          Some
            {
              g_members =
                g.g_members
                @ [ { m_index = i; m_query = q; m_subqueries = sqs } ];
              g_composite = Some composite;
            })
    in
    let rec place groups i q =
      match groups with
      | [] -> [ singleton i q ]
      | g :: rest -> (
        match extend g i q with
        | Some g' -> g' :: rest
        | None -> g :: place rest i q)
    in
    let groups, _ =
      List.fold_left
        (fun (groups, i) q -> (place groups i q, i + 1))
        ([], 0) queries
    in
    groups

type result = {
  outputs : (Table.t, Engine.error) Stdlib.result list;
  stats : Stats.t;
}

(* One map-only cycle routing the shared plan's per-query result rows to
   their N per-query output channels — the fan-out boundary between the
   shared composite workflow and the individual result consumers, priced
   like any other cycle. The routed rows are what the server returns, so
   the demux is real computation, not bookkeeping. *)
let demux wf members tables =
  let tagged =
    List.concat
      (List.map2
         (fun m (t : Table.t) ->
           List.map (fun row -> (m.m_index, row)) t.Table.rows)
         members tables)
  in
  let routed =
    Workflow.run_map_only wf
      {
        Job.mo_name = "server_demux";
        mo_map = (fun x -> [ x ]);
        (* the channel tag rides along with each routed row *)
        mo_input_size = (fun (_, row) -> 8 + Table.row_size_bytes row);
        mo_output_size = (fun (_, row) -> 8 + Table.row_size_bytes row);
      }
      tagged
  in
  List.map2
    (fun m (t : Table.t) ->
      let rows =
        List.filter_map
          (fun (i, row) -> if i = m.m_index then Some row else None)
          routed
      in
      { t with Table.rows })
    members tables

let run_group session ctx group =
  let kind = Engine.session_kind session in
  let input = Engine.session_input session in
  match group with
  | { g_members = [ m ]; _ } ->
    (* Singleton groups take the exact solo path: byte-identical cost
       and answer to a stand-alone [Engine.execute]. *)
    (match Engine.execute session ctx m.m_query with
    | Ok out -> { outputs = [ Ok out.Engine.table ]; stats = out.Engine.stats }
    | Error e -> { outputs = [ Error e ]; stats = Stats.empty })
  | { g_members = members; g_composite = Some composite } -> (
    (* One shared composite plan for the group — the engine's own solo
       composite plan with every member's subqueries pooled — then the
       demux to per-query channels. *)
    let shared () =
      let pairs = List.map (fun m -> (m.m_query, m.m_subqueries)) members in
      let wf, tables =
        match kind with
        | Engine.Hive_mqo ->
          let wf = Workflow.create (Plan_util.hive_ctx ctx) in
          (wf, Hive_mqo.shared wf (Engine.input_vp input) composite pairs)
        | Engine.Rapid_analytics ->
          let wf = Workflow.create ctx in
          ( wf,
            Rapid_analytics.shared wf (Engine.input_tg_store input) composite
              pairs )
        | Engine.Hive_naive | Engine.Rapid_plus ->
          invalid_arg "Batch_exec.run_group: kind does not share"
      in
      let tables = demux wf members tables in
      (tables, Workflow.stats wf)
    in
    match Engine.guard shared with
    | Ok (tables, stats) -> { outputs = List.map Result.ok tables; stats }
    | Error e ->
      { outputs = List.map (fun _ -> Error e) members; stats = Stats.empty })
  | { g_members = _ :: _ :: _; g_composite = None } ->
    invalid_arg "Batch_exec.run_group: multi-member group without composite"
  | { g_members = []; _ } ->
    { outputs = []; stats = Stats.empty }
