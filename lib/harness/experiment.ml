module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops
module Graph = Rapida_rdf.Graph
module Exec_ctx = Rapida_mapred.Exec_ctx

type engine_run = {
  engine : Engine.kind;
  setting : string;
  output : (Engine.output, string) result;
  ctx : Exec_ctx.t;
  agreed : bool;
}

type run = {
  query : Catalog.entry;
  dataset_label : string;
  triples : int;
  results : engine_run list;
}

(* A fresh context per engine run: each run's trace describes exactly
   one engine's workflow. [agrees] checks a completed
   run's table against the caller's reference. *)
let run_engine ~setting ~agrees options session q =
  let ctx = Plan_util.context options in
  let output =
    Result.map_error Engine.error_message (Engine.execute session ctx q)
  in
  let agreed =
    match output with Ok o -> agrees o.Engine.table | Error _ -> false
  in
  { engine = Engine.session_kind session; setting; output; ctx; agreed }

let run_query ?(engines = Engine.all_kinds) options ~label input entry =
  let q = Catalog.parse entry in
  let graph = Engine.graph_of_input input in
  let expected = Rapida_ref.Ref_engine.run graph q in
  let results =
    List.map
      (fun kind ->
        run_engine ~setting:label ~agrees:(Relops.same_results expected)
          options (Engine.prepare kind input) q)
      engines
  in
  { query = entry; dataset_label = label; triples = Graph.size graph; results }

let result_for run kind =
  List.find_opt (fun r -> r.engine = kind) run.results

type estimation = {
  e_run : run;
  e_nodes : int;
  e_root : Rapida_analysis.Interval.Card.t;
  e_estimate : float;
  e_actual : int;
  e_q_error : float;
  e_max_node_q_error : float;
  e_violations : int;
  e_analysis_s : float;
}

type estimation_sweep = {
  e_label : string;
  e_triples : int;
  e_catalog_build_s : float;
  e_estimations : estimation list;
}

let estimation_sweep ?engines options ~label input entries =
  let module Card = Rapida_analysis.Interval.Card in
  let module Card_analysis = Rapida_analysis.Card_analysis in
  let graph = Engine.graph_of_input input in
  let t0 = Unix.gettimeofday () in
  let catalog = Rapida_analysis.Stats_catalog.build graph in
  let e_catalog_build_s = Unix.gettimeofday () -. t0 in
  let e_estimations =
    List.map
      (fun entry ->
        let q = Catalog.parse entry in
        let t0 = Unix.gettimeofday () in
        let analysis =
          Card_analysis.analyze
            ~map_join_threshold:options.Plan_util.map_join_threshold catalog q
        in
        let e_analysis_s = Unix.gettimeofday () -. t0 in
        let measured = Card_analysis.measure graph analysis in
        let per_node = Card_analysis.measured_list measured in
        let e_violations =
          List.length
            (List.filter
               (fun ((n : Card_analysis.node), actual) ->
                 not (Card.contains n.Card_analysis.card actual))
               per_node)
        in
        let e_max_node_q_error =
          List.fold_left
            (fun acc ((n : Card_analysis.node), actual) ->
              Float.max acc (Card.q_error n.Card_analysis.card ~actual))
            1.0 per_node
        in
        let root = analysis.Card_analysis.root in
        let e_actual =
          match per_node with (_, actual) :: _ -> actual | [] -> 0
        in
        {
          e_run = run_query ?engines options ~label input entry;
          e_nodes = List.length per_node;
          e_root = root.Card_analysis.card;
          e_estimate = Card.point_estimate root.Card_analysis.card;
          e_actual;
          e_q_error = Card_analysis.root_q_error measured;
          e_max_node_q_error;
          e_violations;
          e_analysis_s;
        })
      entries
  in
  { e_label = label; e_triples = Graph.size graph; e_catalog_build_s;
    e_estimations }

let median_q_error ests =
  match List.sort Float.compare (List.map (fun e -> e.e_q_error) ests) with
  | [] -> 0.0
  | qs ->
    let n = List.length qs in
    if n mod 2 = 1 then List.nth qs (n / 2)
    else (List.nth qs ((n / 2) - 1) +. List.nth qs (n / 2)) /. 2.0

(* Nearest-rank percentile: the tail view the misestimate defense's
   escape threshold is grounded in — a good median with a bad p95/max
   is exactly the regime where runtime defense matters. *)
let q_error_percentile p ests =
  match List.sort Float.compare (List.map (fun e -> e.e_q_error) ests) with
  | [] -> 0.0
  | qs ->
    let n = List.length qs in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    List.nth qs (max 0 (min (n - 1) (rank - 1)))

let max_q_error ests =
  List.fold_left (fun acc e -> Float.max acc e.e_q_error) 0.0 ests

let all_agreed run = List.for_all (fun r -> r.agreed) run.results

(* --- One-knob sweeps ------------------------------------------------------ *)

type knob_sweep = {
  k_title : string;
  k_settings : string list;
  k_runs : engine_run list;
}

let knob_sweep ?(engines = Engine.all_kinds) ~title ~settings options input
    entry =
  let first, rest =
    match settings with
    | [] -> invalid_arg "knob_sweep: no settings"
    | first :: rest -> (first, rest)
  in
  let q = Catalog.parse entry in
  let sweep_engine kind =
    let session = Engine.prepare kind input in
    let run agrees (setting, knob) =
      run_engine ~setting ~agrees (knob options) session q
    in
    (* Every run is checked against this engine's first-setting run. *)
    let base = run (fun _ -> true) first in
    match base.output with
    | Ok out ->
      base :: List.map (run (Relops.same_results out.Engine.table)) rest
    | Error msg ->
      invalid_arg
        (Printf.sprintf "knob_sweep: %s under %s failed: %s"
           (Engine.kind_name kind) base.setting msg)
  in
  {
    k_title = title;
    k_settings = List.map fst settings;
    k_runs = List.concat_map sweep_engine engines;
  }

(* --- Query-server throughput sweep -------------------------------------- *)

module Fault_injector = Rapida_mapred.Fault_injector
module Server = Rapida_server.Server
module Scheduler = Rapida_mapred.Scheduler
module Workload = Rapida_server.Workload

type throughput_point = {
  t_window_s : float;
  t_policy : Scheduler.policy;
  t_share : bool;
  t_report : Server.t;
}

type throughput = {
  t_kind : Engine.kind;
  t_queries : int;
  t_points : throughput_point list;
}

let throughput ?(windows = [ 0.0; 2.0; 8.0 ])
    ?(policies = [ Scheduler.Fifo; Scheduler.Fair ])
    ?(share = [ true; false ]) options kind input workload =
  let points =
    List.concat_map
      (fun window_s ->
        List.concat_map
          (fun policy ->
            List.map
              (fun sh ->
                let cfg =
                  Server.config ~window_s ~policy ~share:sh ~options kind
                in
                {
                  t_window_s = window_s;
                  t_policy = policy;
                  t_share = sh;
                  t_report = Server.run cfg input workload;
                })
              share)
          policies)
      windows
  in
  { t_kind = kind; t_queries = Workload.size workload; t_points = points }

(* --- Query-server overload sweep ----------------------------------------- *)

type overload_point = {
  o_mean_gap_s : float;
  o_fault_rate : float;
  o_protected : Server.t;
  o_unprotected : Server.t;
}

type overload = {
  o_kind : Engine.kind;
  o_n : int;
  o_deadline_s : float;
  o_points : overload_point list;
}

let overload_sweep ?(gaps = [ 400.0; 30.0 ]) ?(fault_rates = [ 0.0; 0.08 ])
    ?(n = 12) ?(seed = 11) ?(deadline_s = 900.0) ?(queue_cap = 4) options kind
    input =
  (* Both servers see the same arrival stream, deadlines, and fault
     seed; only the protection differs. The unprotected server admits
     everything (deadlines observed, never enforced); the protected one
     bounds its queue, refuses infeasible deadlines, breaks the circuit
     on consecutive failures, and degrades under pressure. *)
  let unprotected_ov = Server.overload ~deadline_s () in
  let protected_ov =
    Server.overload ~deadline_s ~queue_cap
      ~shed_policy:Server.Deadline_aware ~breaker_k:3 ~degrade:true
      ~degrade_depth:3 ~degrade_drain_s:(deadline_s /. 2.0) ()
  in
  let points =
    List.concat_map
      (fun mean_gap_s ->
        List.map
          (fun rate ->
            let workload =
              Workload.generate_exn ~seed ~n ~mean_gap_s ()
            in
            let faults =
              {
                Fault_injector.default with
                Fault_injector.seed = seed;
                task_fail_p = rate;
                max_attempts = 2;
              }
            in
            let options = Plan_util.make ~base:options ~faults () in
            let run ov =
              Server.run
                (Server.config ~overload:ov ~options kind)
                input workload
            in
            {
              o_mean_gap_s = mean_gap_s;
              o_fault_rate = rate;
              o_protected = run protected_ov;
              o_unprotected = run unprotected_ov;
            })
          fault_rates)
      gaps
  in
  { o_kind = kind; o_n = n; o_deadline_s = deadline_s; o_points = points }

(* --- Fuzzing sweep ------------------------------------------------------- *)

module Fuzz = Rapida_fuzz.Fuzz

type fuzz_sweep = {
  f_clean : Fuzz.report;
  f_broken : Fuzz.report;
  f_caught : bool;
  f_elapsed_s : float;
}

let fuzz_sweep ?(budget = 200) ?(seed = 42) ?(products = 30) () =
  let start = Unix.gettimeofday () in
  let cfg = { Fuzz.default_config with seed; budget; products } in
  let clean = Fuzz.run cfg in
  (* The same budget against an engine that silently drops a result row:
     the differential oracle must catch it, proving the clean run's
     silence means something. *)
  let broken =
    Fuzz.run
      {
        cfg with
        budget = min budget 50;
        break_table = Some (Fuzz.break_drop_row Engine.Hive_mqo);
      }
  in
  {
    f_clean = clean;
    f_broken = broken;
    f_caught = Fuzz.violations broken > 0;
    f_elapsed_s = Unix.gettimeofday () -. start;
  }

(* --- Cost-based planner sweep -------------------------------------------- *)

module Planner = Rapida_planner.Planner
module Cost_model = Rapida_planner.Cost_model
module Join_enum = Rapida_planner.Join_enum

type optimize_entry = {
  p_query : Catalog.entry;
  p_planning_ms : float;
  p_replan_ms : float;
  p_units : int;
  p_hints : int;
  p_heuristic_hi : float;
  p_chosen_hi : float;
  p_all_verified : bool;
  p_identical : bool;
}

type optimize_sweep = {
  p_label : string;
  p_triples : int;
  p_policy : Cost_model.policy;
  p_catalog_build_s : float;
  p_entries : optimize_entry list;
  p_server : Server.t;
}

let optimize_sweep ?(engines = Engine.all_kinds)
    ?(policy = Cost_model.Worst_case) ?(seed = 11) ?(arrivals = 12) options
    ~label input entries =
  let graph = Engine.graph_of_input input in
  let t0 = Unix.gettimeofday () in
  let catalog = Rapida_analysis.Stats_catalog.build graph in
  let p_catalog_build_s = Unix.gettimeofday () -. t0 in
  let catalog_fp = Planner.catalog_fingerprint catalog in
  let cluster = options.Plan_util.cluster in
  let cache = Planner.create_cache ~capacity:64 in
  let p_entries =
    List.map
      (fun entry ->
        let q = Catalog.parse entry in
        let t0 = Unix.gettimeofday () in
        let d, _ =
          Planner.plan_cached ~cache ~catalog ~catalog_fp ~policy ~cluster q
        in
        let p_planning_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        (* The same shape again: a guaranteed cache hit, timed to show
           hits skip enumeration entirely. *)
        let t1 = Unix.gettimeofday () in
        let _, hit =
          Planner.plan_cached ~cache ~catalog ~catalog_fp ~policy ~cluster q
        in
        assert (hit = `Hit);
        let p_replan_ms = 1000.0 *. (Unix.gettimeofday () -. t1) in
        let sum f =
          List.fold_left (fun acc u -> acc +. f u) 0.0 d.Planner.d_units
        in
        let p_chosen_hi =
          sum (fun (u : Planner.unit_decision) ->
              u.Planner.u_cost.Cost_model.s_hi)
        in
        let p_heuristic_hi =
          sum (fun (u : Planner.unit_decision) ->
              match u.Planner.u_heuristic with
              | Some h -> h.Join_enum.c_cost.Cost_model.s_hi
              | None -> u.Planner.u_cost.Cost_model.s_hi)
        in
        let optimized = Planner.apply d options in
        let p_identical =
          List.for_all
            (fun kind ->
              let session = Engine.prepare kind input in
              let run opts =
                Engine.execute session (Plan_util.context opts) q
              in
              match (run options, run optimized) with
              | Ok a, Ok b ->
                Relops.same_results a.Engine.table b.Engine.table
              | _ -> false)
            engines
        in
        {
          p_query = entry;
          p_planning_ms;
          p_replan_ms;
          p_units = List.length d.Planner.d_units;
          p_hints = List.length d.Planner.d_join_orders;
          p_heuristic_hi;
          p_chosen_hi;
          p_all_verified =
            List.for_all
              (fun (u : Planner.unit_decision) -> u.Planner.u_verified)
              d.Planner.d_units;
          p_identical;
        })
      entries
  in
  (* Repeated server traffic through the armed planner: the generated
     workload revisits catalog shapes, so the plan cache must show a
     nonzero hit rate while every answer still matches its solo run. *)
  let workload = Workload.generate_exn ~seed ~n:arrivals ~mean_gap_s:3.0 () in
  let p_server =
    Server.run
      (Server.config ~options
         ~optimize:(Server.optimize ~policy ())
         Engine.Rapid_analytics)
      input workload
  in
  {
    p_label = label;
    p_triples = Graph.size graph;
    p_policy = policy;
    p_catalog_build_s;
    p_entries;
    p_server;
  }
