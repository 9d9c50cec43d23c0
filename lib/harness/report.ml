module Engine = Rapida_core.Engine
module Catalog = Rapida_queries.Catalog
module Stats = Rapida_mapred.Stats
module Table = Rapida_relational.Table

let engine_header kind =
  match kind with
  | Engine.Hive_naive -> "Hive(Naive)"
  | Engine.Hive_mqo -> "Hive(MQO)"
  | Engine.Rapid_plus -> "RAPID+"
  | Engine.Rapid_analytics -> "RAPIDAnalytics"

(* An engine's cell: [error] for a failed run, otherwise [f] of its
   output, marked [*] when it disagreed with the reference. *)
let cell_for run kind f =
  match Experiment.result_for run kind with
  | None -> "-"
  | Some { output = Error _; _ } -> "error"
  | Some ({ output = Ok out; _ } as r) ->
    if r.agreed then f out else f out ^ "*"

let header ~title ~engines ppf runs =
  (match runs with
  | run :: _ ->
    Fmt.pf ppf "@.== %s (%s, %d triples) ==@." title
      run.Experiment.dataset_label run.Experiment.triples
  | [] -> Fmt.pf ppf "@.== %s ==@." title);
  Fmt.pf ppf "%-6s" "Query";
  List.iter (fun k -> Fmt.pf ppf " %14s" (engine_header k)) engines

let est_time_s (out : Engine.output) = Stats.est_time_s out.stats

let speedup run ~baseline ~target =
  match Experiment.result_for run baseline, Experiment.result_for run target with
  | Some { output = Ok b; _ }, Some { output = Ok t; _ }
    when est_time_s t > 0.0 ->
    Some (est_time_s b /. est_time_s t)
  | _ -> None

let pp_comparison ~title ~engines ppf runs =
  header ~title ~engines ppf runs;
  (match engines with
  | _ :: _ :: _ -> Fmt.pf ppf " %9s" "speedup"
  | _ -> ());
  Fmt.pf ppf "@.";
  List.iter
    (fun run ->
      Fmt.pf ppf "%-6s" run.Experiment.query.Catalog.id;
      List.iter
        (fun k ->
          Fmt.pf ppf " %14s"
            (cell_for run k (fun out ->
                 Printf.sprintf "%.1fs" (est_time_s out))))
        engines;
      (match engines with
      | first :: (_ :: _ as rest) -> (
        let last = List.nth rest (List.length rest - 1) in
        match speedup run ~baseline:first ~target:last with
        | Some s -> Fmt.pf ppf " %8.1fx" s
        | None -> Fmt.pf ppf " %9s" "-")
      | _ -> ());
      Fmt.pf ppf "@.")
    runs;
  Fmt.pf ppf "(simulated cluster seconds; * = failed verification)@."

(* One row per query and one [cell] per engine, then the [footer]. *)
let pp_table ~title ~engines ~footer cell ppf runs =
  header ~title ~engines ppf runs;
  Fmt.pf ppf "@.";
  List.iter
    (fun run ->
      Fmt.pf ppf "%-6s" run.Experiment.query.Catalog.id;
      List.iter
        (fun k ->
          Fmt.pf ppf " %14s"
            (cell_for run k (fun (out : Engine.output) -> cell out.stats)))
        engines;
      Fmt.pf ppf "@.")
    runs;
  Fmt.pf ppf "(%s)@." footer

let pp_cycles =
  pp_table ~footer:"MapReduce cycles per query" (fun stats ->
      Printf.sprintf "%d (%d map-only)" (Stats.cycles stats)
        (Stats.map_only_cycles stats))

let pp_bytes =
  pp_table ~footer:"bytes shuffled between map and reduce phases" (fun stats ->
      Printf.sprintf "%.1fKB"
        (float_of_int (Stats.total_shuffle_bytes stats) /. 1024.0))

let pp_phases =
  pp_table
    ~footer:
      "simulated seconds per phase: startup/map/shuffle+sort/reduce[/spill]"
    (fun stats ->
      let b = Stats.total_breakdown stats in
      let base =
        Printf.sprintf "%.0f/%.0f/%.0f/%.0f" b.Stats.startup_s b.Stats.map_s
          (b.Stats.shuffle_s +. b.Stats.sort_s)
          b.Stats.reduce_s
      in
      if b.Stats.spill_s > 0.0 then
        Printf.sprintf "%s/%.0f" base b.Stats.spill_s
      else base)

(* A knob-sweep cell; [base_s] is the engine's first-setting time. *)
let knob_cell ~base_s (r : Experiment.engine_run) =
  match r.output with
  | Error _ -> "aborted"
  | Ok { Engine.stats; _ } ->
    let recoveries = stats.Stats.recoveries in
    let checkpoints = stats.Stats.checkpoints_written in
    let t = Stats.est_time_s stats in
    String.concat ""
      [
        Printf.sprintf "%.1fs %.1fKB (%.2fx)" t
          (float_of_int (Stats.total_shuffle_bytes stats) /. 1024.0)
          (if base_s > 0.0 then t /. base_s else 1.0);
        (if Stats.total_spill_passes stats > 0 then " s" else "");
        (if Stats.total_oom_kills stats > 0 then "!o" else "");
        (if stats.Stats.mapjoin_fallbacks > 0 then "+r" else "");
        (if recoveries > 0 then
           Printf.sprintf " r%d/%.0fs" recoveries stats.Stats.replayed_s
         else "");
        (if checkpoints > 0 then Printf.sprintf " c%d" checkpoints else "");
        (if r.agreed then "" else "*");
      ]

let pp_knob_sweep ~engines ppf (sweep : Experiment.knob_sweep) =
  let find kind setting =
    List.find_opt
      (fun (r : Experiment.engine_run) ->
        r.engine = kind && r.setting = setting)
      sweep.Experiment.k_runs
  in
  let first = List.hd sweep.Experiment.k_settings in
  let cell kind setting =
    match (find kind setting, find kind first) with
    | Some r, Some { output = Ok base; _ } ->
      knob_cell ~base_s:(est_time_s base) r
    | _ -> "-"
  in
  let rows =
    List.map
      (fun setting -> (setting, List.map (fun k -> cell k setting) engines))
      sweep.Experiment.k_settings
  in
  let widest init xs =
    List.fold_left (fun w x -> max w (String.length x)) (String.length init) xs
  in
  let label_w = widest "setting" sweep.Experiment.k_settings in
  let col_ws =
    List.mapi
      (fun i k ->
        widest (engine_header k)
          (List.map (fun (_, cells) -> List.nth cells i) rows))
      engines
  in
  Fmt.pf ppf "@.== %s ==@.%-*s" sweep.Experiment.k_title label_w "setting";
  List.iter2 (fun k w -> Fmt.pf ppf "  %*s" w (engine_header k)) engines col_ws;
  Fmt.pf ppf "@.";
  List.iter
    (fun (setting, cells) ->
      Fmt.pf ppf "%-*s" label_w setting;
      List.iter2 (fun c w -> Fmt.pf ppf "  %*s" w c) cells col_ws;
      Fmt.pf ppf "@.")
    rows;
  Fmt.pf ppf
    "(simulated seconds, KB shuffled, slowdown vs the first setting; s = \
     spilled, !o = OOM retries, +r = map-join fell back to repartition, \
     rN/Ms = N recoveries replaying M s since the last checkpoint, cK = K \
     checkpoints written, aborted = ran out of retries, * = result diverged \
     from the first setting)@."

let pp_verification ppf runs =
  let total = List.length runs in
  let ok = List.length (List.filter Experiment.all_agreed runs) in
  Fmt.pf ppf "verification: %d/%d queries agreed across all engines@." ok total;
  List.iter
    (fun run ->
      if not (Experiment.all_agreed run) then
        List.iter
          (fun (r : Experiment.engine_run) ->
            if not r.agreed then
              Fmt.pf ppf "  MISMATCH %s on %s%s@."
                (Engine.kind_name r.engine)
                run.Experiment.query.Catalog.id
                (match r.output with Error e -> ": " ^ e | Ok _ -> ""))
          run.Experiment.results)
    runs

(* --- Query-server throughput sweep -------------------------------------- *)

module Scheduler = Rapida_mapred.Scheduler
module Server = Rapida_server.Server

let pp_throughput ppf (sweep : Experiment.throughput) =
  Fmt.pf ppf "@.== Throughput sweep: %s, %d queries ==@."
    (Engine.kind_name sweep.Experiment.t_kind)
    sweep.Experiment.t_queries;
  Fmt.pf ppf "%-7s %-6s %-5s %9s %9s %9s %6s %5s %6s %12s %s@." "window"
    "policy" "share" "p50" "p95" "p99" "util" "jobs" "saved" "bytes-saved"
    "ok";
  List.iter
    (fun (p : Experiment.throughput_point) ->
      let r = p.Experiment.t_report in
      Fmt.pf ppf "%6.1fs %-6s %-5s %8.1fs %8.1fs %8.1fs %5.1f%% %5d %6d %12d %s@."
        p.Experiment.t_window_s
        (Scheduler.policy_name p.Experiment.t_policy)
        (if p.Experiment.t_share then "on" else "off")
        r.Server.r_latency_p50_s r.Server.r_latency_p95_s
        r.Server.r_latency_p99_s
        (100.0 *. r.Server.r_utilization)
        r.Server.r_jobs r.Server.r_jobs_saved r.Server.r_bytes_saved
        (if r.Server.r_all_matched && r.Server.r_errors = 0 then "yes"
         else "NO");
      ())
    sweep.Experiment.t_points

(* --- Query-server overload sweep ----------------------------------------- *)

let pp_overload ppf (sweep : Experiment.overload) =
  Fmt.pf ppf
    "@.== Overload sweep: %s, %d arrivals, deadline %.0fs ==@."
    (Engine.kind_name sweep.Experiment.o_kind)
    sweep.Experiment.o_n sweep.Experiment.o_deadline_s;
  Fmt.pf ppf "%-8s %-6s | %-28s | %-28s | %s@." "gap" "faults"
    "unprotected (goodput miss fail)" "protected (goodput shed miss)" "win";
  List.iter
    (fun (p : Experiment.overload_point) ->
      let stats (r : Server.t) =
        match r.Server.r_overload with
        | Some o ->
          ( o.Server.o_goodput,
            o.Server.o_shed_queue + o.Server.o_shed_infeasible
            + o.Server.o_shed_breaker,
            o.Server.o_missed,
            o.Server.o_failed )
        | None -> (0.0, 0, 0, 0)
      in
      let ug, _, um, uf = stats p.Experiment.o_unprotected in
      let pg, ps, pm, _ = stats p.Experiment.o_protected in
      Fmt.pf ppf
        "%7.1fs %6.2f | goodput %5.1f%%  %2d miss %2d fail | goodput \
         %5.1f%%  %2d shed %2d miss | %s@."
        p.Experiment.o_mean_gap_s p.Experiment.o_fault_rate (100.0 *. ug) um
        uf (100.0 *. pg) ps pm
        (if pg > ug then "protected"
         else if pg < ug then "UNPROTECTED"
         else "tie"))
    sweep.Experiment.o_points

let pp_estimation ~engines ppf (sweep : Experiment.estimation_sweep) =
  let module Card = Rapida_analysis.Interval.Card in
  Fmt.pf ppf "@.== Static cardinality estimation (%s, %d triples) ==@."
    sweep.Experiment.e_label sweep.Experiment.e_triples;
  Fmt.pf ppf "catalog build: %.1f ms (one pass)@."
    (1000.0 *. sweep.Experiment.e_catalog_build_s);
  Fmt.pf ppf "%-6s %-18s %10s %8s %7s %5s" "Query" "interval" "estimate"
    "actual" "q-err" "viol";
  List.iter (fun k -> Fmt.pf ppf " %14s" (engine_header k)) engines;
  Fmt.pf ppf "@.";
  List.iter
    (fun (e : Experiment.estimation) ->
      Fmt.pf ppf "%-6s %-18s %10.1f %8d %7.2f %5d"
        e.Experiment.e_run.Experiment.query.Catalog.id
        (Fmt.str "%a" Card.pp e.Experiment.e_root)
        e.Experiment.e_estimate e.Experiment.e_actual e.Experiment.e_q_error
        e.Experiment.e_violations;
      List.iter
        (fun k ->
          let cell =
            match Experiment.result_for e.Experiment.e_run k with
            | None -> "-"
            | Some { output = Error _; _ } -> "error"
            | Some { output = Ok out; _ } ->
              let rows = Table.cardinality out.Engine.table in
              Printf.sprintf "%s%d"
                (if Card.contains e.Experiment.e_root rows then "ok"
                 else "OUT")
                rows
          in
          Fmt.pf ppf " %14s" cell)
        engines;
      Fmt.pf ppf "@.")
    sweep.Experiment.e_estimations;
  let worst =
    List.fold_left
      (fun acc (e : Experiment.estimation) ->
        Float.max acc e.Experiment.e_max_node_q_error)
      1.0 sweep.Experiment.e_estimations
  in
  let violations =
    List.fold_left
      (fun acc (e : Experiment.estimation) -> acc + e.Experiment.e_violations)
      0 sweep.Experiment.e_estimations
  in
  Fmt.pf ppf
    "root q-error median %.2f, p95 %.2f, max %.2f over %d queries; worst \
     per-node q-error %.2f; %d interval violation(s)@."
    (Experiment.median_q_error sweep.Experiment.e_estimations)
    (Experiment.q_error_percentile 0.95 sweep.Experiment.e_estimations)
    (Experiment.max_q_error sweep.Experiment.e_estimations)
    (List.length sweep.Experiment.e_estimations)
    worst violations

let pp_optimize ~engines ppf (sweep : Experiment.optimize_sweep) =
  let module Cost_model = Rapida_planner.Cost_model in
  let module Plan_cache = Rapida_planner.Plan_cache in
  Fmt.pf ppf "@.== Cost-based planner (%s, %d triples, policy %s) ==@."
    sweep.Experiment.p_label sweep.Experiment.p_triples
    (Cost_model.policy_name sweep.Experiment.p_policy);
  Fmt.pf ppf
    "catalog build: %.1f ms; identity checked across %d engine(s)@."
    (1000.0 *. sweep.Experiment.p_catalog_build_s)
    (List.length engines);
  Fmt.pf ppf "%-6s %8s %8s %5s %5s %12s %12s %7s %s@." "Query" "plan-ms"
    "hit-ms" "units" "hints" "heuristic-hi" "chosen-hi" "delta" "identical";
  List.iter
    (fun (e : Experiment.optimize_entry) ->
      let delta =
        if e.Experiment.p_heuristic_hi > 0.0 then
          100.0
          *. (e.Experiment.p_heuristic_hi -. e.Experiment.p_chosen_hi)
          /. e.Experiment.p_heuristic_hi
        else 0.0
      in
      Fmt.pf ppf "%-6s %8.2f %8.3f %5d %5d %12.1f %12.1f %6.1f%% %s%s@."
        e.Experiment.p_query.Catalog.id e.Experiment.p_planning_ms
        e.Experiment.p_replan_ms e.Experiment.p_units e.Experiment.p_hints
        e.Experiment.p_heuristic_hi e.Experiment.p_chosen_hi delta
        (if e.Experiment.p_identical then "yes" else "NO")
        (if e.Experiment.p_all_verified then "" else " [REJECTED]"))
    sweep.Experiment.p_entries;
  match sweep.Experiment.p_server.Server.r_optimize with
  | Some o ->
    let hits = o.Server.p_cache.Plan_cache.hits in
    let misses = o.Server.p_cache.Plan_cache.misses in
    let rate =
      if hits + misses > 0 then
        100.0 *. float_of_int hits /. float_of_int (hits + misses)
      else 0.0
    in
    Fmt.pf ppf
      "server repeated traffic: %d group(s) planned; cache: %a (%.0f%% hit \
       rate); defense: %d misestimate(s), %d fallback(s), breaker %s@."
      o.Server.p_planned Plan_cache.pp_stats o.Server.p_cache rate
      o.Server.p_misestimates o.Server.p_fallbacks o.Server.p_breaker
  | None -> ()
