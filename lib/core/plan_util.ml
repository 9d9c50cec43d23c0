open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Binding = Rapida_sparql.Binding
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job
module Exec_ctx = Rapida_mapred.Exec_ctx

type options = {
  cluster : Rapida_mapred.Cluster.t;
  map_join_threshold : int;
  hive_compression : float;
  ntga_combiner : bool;
  ntga_filter_pushdown : bool;
  faults : Rapida_mapred.Fault_injector.config;
  checkpoint : Rapida_mapred.Checkpoint.config;
  join_orders : (int * int list) list;
}

let default_options =
  {
    cluster = Rapida_mapred.Cluster.default;
    map_join_threshold = Exec_ctx.default_planner.map_join_threshold;
    hive_compression = Exec_ctx.default_planner.hive_compression;
    ntga_combiner = Exec_ctx.default_planner.ntga_combiner;
    ntga_filter_pushdown = Exec_ctx.default_planner.ntga_filter_pushdown;
    faults = Rapida_mapred.Fault_injector.default;
    checkpoint = Rapida_mapred.Checkpoint.default;
    join_orders = [];
  }

let make ?(base = default_options) ?cluster ?map_join_threshold
    ?hive_compression ?ntga_combiner ?ntga_filter_pushdown ?faults
    ?checkpoint ?join_orders () =
  {
    cluster = Option.value ~default:base.cluster cluster;
    map_join_threshold =
      Option.value ~default:base.map_join_threshold map_join_threshold;
    hive_compression =
      Option.value ~default:base.hive_compression hive_compression;
    ntga_combiner = Option.value ~default:base.ntga_combiner ntga_combiner;
    ntga_filter_pushdown =
      Option.value ~default:base.ntga_filter_pushdown ntga_filter_pushdown;
    faults = Option.value ~default:base.faults faults;
    checkpoint = Option.value ~default:base.checkpoint checkpoint;
    join_orders = Option.value ~default:base.join_orders join_orders;
  }

(* Broadcast-everything heuristic: with the map-join threshold at
   max_int every star join is planned map-only, skipping planning-time
   cost comparisons and shuffle cycles. Answers are unchanged (the
   ablation identity properties cover the threshold), only cheaper and
   lower-variance — the overloaded server's last ladder rung. *)
let degrade_options base =
  (* Degraded plans also drop any optimizer hints: the heuristic
     (pre-optimizer) order is the misestimate-defense fallback, so
     degradation must land exactly there. *)
  { base with map_join_threshold = max_int; join_orders = [] }

let context options =
  Exec_ctx.create ~cluster:options.cluster
    ~planner:
      {
        Exec_ctx.map_join_threshold = options.map_join_threshold;
        hive_compression = options.hive_compression;
        ntga_combiner = options.ntga_combiner;
        ntga_filter_pushdown = options.ntga_filter_pushdown;
      }
    ~faults:(Rapida_mapred.Fault_injector.create options.faults)
    ~checkpoint:options.checkpoint ~join_orders:options.join_orders ()

let hive_ctx ctx =
  Exec_ctx.with_cluster ctx
    {
      (Exec_ctx.cluster ctx) with
      Rapida_mapred.Cluster.compression_ratio =
        (Exec_ctx.planner ctx).Exec_ctx.hive_compression;
    }

(* The planner options a workflow's jobs were configured with. *)
let planner_of wf = Exec_ctx.planner (Workflow.ctx wf)

(* --- Memory-aware broadcast decisions ----------------------------------- *)

(* A build side broadcasts only when it also fits the per-task container
   heap: a map-join whose hash table overflows the heap would OOM every
   mapper, so the planner degrades to a repartition join instead — an
   extra full MR cycle, priced honestly (Hive's
   hive.mapjoin.localtask.max.memory safety fallback). *)
let task_heap_bytes wf =
  (Exec_ctx.cluster (Workflow.ctx wf)).Rapida_mapred.Cluster.task_heap_bytes

let var_name = function
  | Ast.Nvar v -> v
  | Ast.Nterm t ->
    invalid_arg (Fmt.str "expected variable, got %a" Term.pp t)

(* An unbound-property pattern scans the union of every partition as a
   three-column (s, p, o) relation, then applies the pattern's constant
   constraints. *)
let unbound_tp_table vp (tp : Ast.triple_pattern) =
  let rows =
    List.concat_map
      (fun (prop, t) ->
        List.map (fun row -> [| row.(0); Some prop; row.(1) |]) t.Table.rows)
      (Vp_store.property_partitions vp)
    @ List.concat_map
        (fun (cls, t) ->
          List.map
            (fun row -> [| row.(0); Some Namespace.rdf_type; Some cls |])
            t.Table.rows)
        (Vp_store.type_partitions vp)
  in
  let t = Table.make ~name:"vp_all" ~schema:[ "!s"; "!p"; "!o" ] rows in
  (* Constrain and name each position. *)
  let constraints, renames, keep =
    List.fold_left
      (fun (cs, rs, keep) (col, node) ->
        match node with
        | Ast.Nvar v -> (cs, (col, v) :: rs, col :: keep)
        | Ast.Nterm c -> ((col, c) :: cs, rs, keep))
      ([], [], [])
      [ ("!o", tp.tp_o); ("!p", tp.tp_p); ("!s", tp.tp_s) ]
  in
  let constraints =
    List.map (fun (col, c) -> (Table.col_index t col, c)) constraints
  in
  let t =
    Relops.filter
      (fun row ->
        List.for_all
          (fun (i, c) ->
            match row.(i) with Some v -> Term.equal v c | None -> false)
          constraints)
      t
  in
  Relops.rename_cols (Relops.project t keep) renames

(* rdf:type with a variable object: every (subject, class) pair, the
   union of the per-class partitions. *)
let typed_subjects vp schema =
  let rows =
    List.concat_map
      (fun (cls, t) ->
        List.map (fun row -> [| row.(0); Some cls |]) t.Table.rows)
      (Vp_store.type_partitions vp)
  in
  Table.make ~name:"vp_type" ~schema rows

(* The row test "the object column of partition [t] holds [c]". *)
let object_is t c =
  let o = Table.col_index t "o" in
  fun (row : Table.row) ->
    match row.(o) with Some v -> Term.equal v c | None -> false

let tp_table vp (tp : Ast.triple_pattern) =
  match tp.tp_p with
  | Ast.Nvar _ -> unbound_tp_table vp tp
  | Ast.Nterm prop ->
  if Term.equal prop Namespace.rdf_type then
    match tp.tp_o with
    | Ast.Nterm cls ->
      let t = Vp_store.type_table vp cls in
      Relops.rename_cols t [ ("s", var_name tp.tp_s) ]
    | Ast.Nvar v -> typed_subjects vp [ var_name tp.tp_s; v ]
  else
    let t = Vp_store.property_table vp prop in
    match tp.tp_o with
    | Ast.Nvar v ->
      Relops.rename_cols t [ ("s", var_name tp.tp_s); ("o", v) ]
    | Ast.Nterm c ->
      let filtered = Relops.filter (object_is t c) t in
      Relops.project
        (Relops.rename_cols filtered [ ("s", var_name tp.tp_s) ])
        [ var_name tp.tp_s ]

let ctp_table vp ~subject_var (ctp : Composite.ctp) =
  if Term.equal ctp.prop Namespace.rdf_type then
    match ctp.obj_const with
    | Some cls ->
      let t = Vp_store.type_table vp cls in
      let rows = List.map (fun row -> [| row.(0); Some cls |]) t.Table.rows in
      Table.make ~name:t.Table.name ~schema:[ subject_var; ctp.obj_var ] rows
    | None -> typed_subjects vp [ subject_var; ctp.obj_var ]
  else
    let t = Vp_store.property_table vp ctp.prop in
    let t =
      match ctp.obj_const with
      | None -> t
      | Some c -> Relops.filter (object_is t c) t
    in
    Relops.rename_cols t [ ("s", subject_var); ("o", ctp.obj_var) ]

(* --- Multiway same-key star join --------------------------------------- *)

(* All tables share exactly one column: the star's subject variable. *)
let star_subject_col required =
  match required with
  | t :: _ -> List.hd t.Table.schema
  | [] -> invalid_arg "star_join: no required tables"

let star_schema subject required optional =
  let non_subject t =
    List.filter (fun c -> not (String.equal c subject)) t.Table.schema
  in
  subject :: List.concat_map non_subject (required @ optional)

(* The positions of each table's non-subject columns, in star-schema
   order: resolved once per star join, read for every output row. *)
let star_cols subject tables =
  List.map
    (fun t ->
      List.concat
        (List.mapi
           (fun i col -> if String.equal col subject then [] else [ i ])
           t.Table.schema))
    tables

let star_join_rows ~n_req cols key groups =
  (* [groups.(i)] = rows of table i for this subject key. *)
  let req_groups = Array.sub groups 0 n_req in
  if Array.exists (fun g -> g = []) req_groups then []
  else
    (* Cartesian product across tables; optional tables with no rows
       contribute a single NULL row. *)
    let slots =
      Array.to_list
        (Array.mapi
           (fun i g ->
             if i < n_req then List.map (fun r -> Some r) g
             else if g = [] then [ None ]
             else List.map (fun r -> Some r) g)
           groups)
    in
    let combos =
      List.fold_left
        (fun acc slot ->
          List.concat_map (fun prefix -> List.map (fun r -> prefix @ [ r ]) slot) acc)
        [ [] ] slots
    in
    (* Merge one row per table (optional tables may miss) into the star
       schema. *)
    let cells idx = function
      | Some (r : Table.row) -> List.map (fun i -> r.(i)) idx
      | None -> List.map (fun _ -> None) idx
    in
    List.map
      (fun per_table ->
        Array.of_list
          (Some key :: List.concat (List.map2 cells cols per_table)))
      combos

let star_join_mr wf ~name ~required ~optional =
  let subject = star_subject_col required in
  let all = required @ optional in
  (* Each input row carries its table's subject position. *)
  let tagged =
    List.concat
      (List.mapi
         (fun i t ->
           let s = Table.col_index t subject in
           List.map (fun row -> (i, s, row)) t.Table.rows)
         all)
  in
  let n = List.length all in
  let n_req = List.length required and cols = star_cols subject all in
  let spec : ((int * int * Table.row), Term.t, (int * Table.row),
              Table.row) Job.spec =
    {
      name;
      map =
        (fun (i, s, row) ->
          match row.(s) with
          | Some key -> [ (key, (i, row)) ]
          | None -> []);
      combine = None;
      reduce =
        (fun key tagged ->
          let groups = Array.make n [] in
          List.iter (fun (i, row) -> groups.(i) <- row :: groups.(i)) tagged;
          Array.iteri (fun i g -> groups.(i) <- List.rev g) groups;
          star_join_rows ~n_req cols key groups);
      input_size = (fun (_, _, row) -> Table.row_size_bytes row);
      key_size = (fun key -> String.length (Term.lexical key) + 2);
      value_size = (fun (_, row) -> Table.row_size_bytes row + 1);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec tagged in
  Table.make ~name ~schema:(star_schema subject required optional) rows

let star_join_map_only wf ~name ~required ~optional ~stream_index =
  let subject = star_subject_col required in
  let all = required @ optional in
  let n = List.length all in
  let n_req = List.length required and cols = star_cols subject all in
  let stream = List.nth all stream_index in
  (* Hash every non-streamed table by subject. *)
  let indexes =
    List.mapi
      (fun i t ->
        if i = stream_index then None
        else begin
          let tbl = Hashtbl.create (max 16 (Table.cardinality t)) in
          let s = Table.col_index t subject in
          List.iter
            (fun row ->
              match row.(s) with
              | Some key ->
                let existing =
                  Option.value ~default:[] (Hashtbl.find_opt tbl key)
                in
                Hashtbl.replace tbl key (row :: existing)
              | None -> ())
            t.Table.rows;
          Some tbl
        end)
      all
  in
  let stream_subject = Table.col_index stream subject in
  let spec : (Table.row, Table.row) Job.map_only_spec =
    {
      mo_name = name;
      mo_map =
        (fun row ->
          match row.(stream_subject) with
          | None -> []
          | Some key ->
            let groups = Array.make n [] in
            List.iteri
              (fun i idx ->
                groups.(i) <-
                  (match idx with
                  | None -> [ row ]
                  | Some tbl ->
                    Option.value ~default:[] (Hashtbl.find_opt tbl key)
                    |> List.rev))
              indexes;
            star_join_rows ~n_req cols key groups);
      mo_input_size = Table.row_size_bytes;
      mo_output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_map_only wf spec stream.Table.rows in
  Table.make ~name ~schema:(star_schema subject required optional) rows

let star_join wf ~name ~required ~optional =
  match required, optional with
  | [ only ], [] -> only
  | _ ->
    let all = required @ optional in
    let sizes = List.map Table.size_bytes all in
    let max_size = List.fold_left max 0 sizes in
    let small_enough =
      List.length
        (List.filter
           (fun s -> s < (planner_of wf).Exec_ctx.map_join_threshold)
           sizes)
      >= List.length all - 1
    in
    (* The streamed table must be required (outer-joining a streamed
       optional table cannot preserve required semantics map-side). *)
    let stream_index =
      let rec find i = function
        | [] -> None
        | s :: rest -> if s = max_size then Some i else find (i + 1) rest
      in
      find 0 sizes
    in
    (match stream_index with
    | Some i when small_enough && i < List.length required ->
      (* The map-only form hashes every non-streamed table; that build
         side must also fit the task heap or each mapper would OOM. *)
      let build_bytes = List.fold_left ( + ) 0 sizes - max_size in
      if build_bytes < task_heap_bytes wf then
        star_join_map_only wf ~name ~required ~optional ~stream_index:i
      else begin
        Workflow.note_mapjoin_fallback wf;
        star_join_mr wf ~name ~required ~optional
      end
    | _ -> star_join_mr wf ~name ~required ~optional)

let pair_join wf ~name a b =
  let threshold = (planner_of wf).Exec_ctx.map_join_threshold in
  let heap = task_heap_bytes wf in
  let sa = Table.size_bytes a and sb = Table.size_bytes b in
  let broadcastable s = s < threshold && s < heap in
  if broadcastable sb then Mr_relops.map_join wf ~name ~big:a ~small:b ()
  else if broadcastable sa then Mr_relops.map_join wf ~name ~big:b ~small:a ()
  else begin
    if min sa sb < threshold then Workflow.note_mapjoin_fallback wf;
    Mr_relops.repartition_join wf ~name a b
  end

(* --- Filters and projections ------------------------------------------- *)

let row_binding t row =
  List.fold_left
    (fun (b, i) col ->
      let b =
        match row.(i) with Some v -> Binding.bind b col v | None -> b
      in
      (b, i + 1))
    (Binding.empty, 0) t.Table.schema
  |> fst

let apply_ready_filters table filters =
  let ready, pending =
    List.partition
      (fun e ->
        List.for_all (fun v -> Table.mem_col table v) (Ast.expr_vars e))
      filters
  in
  match ready with
  | [] -> (table, pending)
  | _ ->
    let table =
      Relops.filter
        (fun row ->
          let b = row_binding table row in
          List.for_all (Binding.eval_filter b) ready)
        table
    in
    (table, pending)

let project_needed table keep =
  let cols =
    List.filter (fun c -> List.mem c keep) table.Table.schema
  in
  if List.length cols = List.length table.Table.schema then table
  else Relops.project table cols

let agg_specs (sq : Analytical.subquery) =
  List.map
    (fun (a : Analytical.aggregate) ->
      { Relops.func = a.func; distinct = a.distinct; col = a.arg; out = a.out })
    sq.aggregates

let ensure_total_row (sq : Analytical.subquery) table =
  if sq.group_by = [] && table.Table.rows = [] then
    let row =
      Array.of_list
        (List.map
           (fun (a : Analytical.aggregate) ->
             Rapida_sparql.Aggregate.(finish (init a.func ~distinct:a.distinct)))
           sq.aggregates)
    in
    { table with Table.rows = [ row ] }
  else table

(* HAVING: filter the aggregated groups (map-side, no extra cycle). *)
let apply_having (sq : Analytical.subquery) table =
  match sq.Analytical.having with
  | [] -> table
  | having ->
    Relops.filter
      (fun row ->
        let b = row_binding table row in
        List.for_all (Binding.eval_filter b) having)
      table

(* The post-aggregation finish of one subquery: default grand-total row,
   then HAVING. *)
let finish_subquery sq table =
  apply_having sq (ensure_total_row sq table)

let final_join wf (q : Analytical.t) tables =
  let finish t =
    Relops.project_exprs ~name:"result" q.outer_projection t
    |> Relops.order_limit ~order_by:q.Analytical.order_by
         ~limit:q.Analytical.limit
  in
  match tables with
  | [] -> invalid_arg "final_join: no subquery results"
  | [ only ] -> finish only
  | first :: rest ->
    let heap = task_heap_bytes wf in
    let joined =
      List.fold_left
        (fun acc t ->
          (* Aggregated results are normally tiny, but the heap guard
             still applies: an over-budget build side degrades to a
             repartition cycle rather than OOM-ing the mappers. *)
          if Table.size_bytes t < heap then
            Mr_relops.map_join wf ~name:"join_aggregates" ~big:acc ~small:t ()
          else begin
            Workflow.note_mapjoin_fallback wf;
            Mr_relops.repartition_join wf ~name:"join_aggregates" acc t
          end)
        first rest
    in
    finish joined

(* --- NTGA star-local filter pushdown ----------------------------------- *)

(* A filter over exactly one variable, bound as the object of a star's
   triple pattern, can be evaluated triple-by-triple during the map-side
   group filter: triples whose object fails the predicate are dropped
   before the join (the paper pushes identical filters into the scan
   phase). Filters over the star's subject drop the whole triplegroup. *)
let push_star_filters (star : Rapida_sparql.Star.t) filters =
  let subject_var =
    match star.Rapida_sparql.Star.subject with
    | Ast.Nvar v -> Some v
    | Ast.Nterm _ -> None
  in
  let object_props v =
    List.filter_map
      (fun (tp : Ast.triple_pattern) ->
        match tp.tp_p, tp.tp_o with
        | Ast.Nterm p, Ast.Nvar v' when String.equal v v' -> Some p
        | _ -> None)
      star.Rapida_sparql.Star.patterns
  in
  let pushed, pending =
    List.partition
      (fun e ->
        match Ast.expr_vars e with
        | [ v ] -> subject_var = Some v || object_props v <> []
        | _ -> false)
      filters
  in
  let refine (tg : Rapida_ntga.Triplegroup.t) =
    List.fold_left
      (fun tg_opt e ->
        match tg_opt with
        | None -> None
        | Some (tg : Rapida_ntga.Triplegroup.t) -> (
          match Ast.expr_vars e with
          | [ v ] when subject_var = Some v ->
            let b =
              Rapida_sparql.Binding.bind Rapida_sparql.Binding.empty v
                tg.Rapida_ntga.Triplegroup.subject
            in
            if Rapida_sparql.Binding.eval_filter b e then Some tg else None
          | [ v ] ->
            let props = object_props v in
            let triples =
              List.filter
                (fun (t : Rapida_rdf.Triple.t) ->
                  if List.exists (Term.equal t.p) props then
                    let b =
                      Rapida_sparql.Binding.bind Rapida_sparql.Binding.empty v
                        t.o
                    in
                    Rapida_sparql.Binding.eval_filter b e
                  else true)
                tg.Rapida_ntga.Triplegroup.triples
            in
            Some (Rapida_ntga.Triplegroup.make tg.subject triples)
          | _ -> Some tg))
      (Some tg) pushed
  in
  (refine, pushed, pending)
