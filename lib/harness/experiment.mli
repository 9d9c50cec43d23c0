(** Experiment runner: evaluate catalog queries on all engines over a
    prepared dataset, verify every engine against a reference, and keep
    each engine's run for the reports.

    Each engine run gets a fresh execution context built from the given
    options, so a run's trace describes exactly one engine's workflow. *)

module Engine = Rapida_core.Engine
module Catalog = Rapida_queries.Catalog

(** One engine's run of one query under one setting: the record every
    sweep below keeps per engine. Cycle counts, bytes and simulated
    seconds are read from the output's {!Rapida_mapred.Stats}. *)
type engine_run = {
  engine : Engine.kind;
  setting : string;
      (** the setting's label: the knob setting in a {!knob_sweep}, the
          dataset label in {!run_query} *)
  output : (Engine.output, string) result;
      (** the run's output, or why it failed (e.g. out of retries) *)
  ctx : Rapida_mapred.Exec_ctx.t;
      (** the run's context, kept for its span trace (which a failed run
          has too) *)
  agreed : bool;
      (** the run completed and its result is identical to the
          reference: the reference evaluator in {!run_query}, the
          engine's first-setting run in {!knob_sweep} *)
}

type run = {
  query : Catalog.entry;
  dataset_label : string;
  triples : int;
  results : engine_run list;
}

(** [run_query ?engines options ~label input entry] evaluates one catalog
    query. Defaults to all four engines. *)
val run_query :
  ?engines:Engine.kind list ->
  Rapida_core.Plan_util.options ->
  label:string -> Engine.input -> Catalog.entry -> run

(** [result_for run kind] finds an engine's result in a run. *)
val result_for : run -> Engine.kind -> engine_run option

(** [all_agreed run] holds when every engine matched the reference. *)
val all_agreed : run -> bool

(** One catalog query's static-estimation quality: the analyzer's root
    interval and point estimate against the measured cardinality, the
    per-node soundness count, and the query's {!run_query} on every
    engine, whose result cardinalities the report checks against the
    root interval. *)
type estimation = {
  e_run : run;
  e_nodes : int;  (** plan nodes annotated *)
  e_root : Rapida_analysis.Interval.Card.t;  (** root interval *)
  e_estimate : float;  (** root point estimate *)
  e_actual : int;  (** measured root cardinality (reference semantics) *)
  e_q_error : float;  (** root q-error *)
  e_max_node_q_error : float;  (** worst per-node q-error *)
  e_violations : int;
      (** plan nodes whose interval misses the measured cardinality —
          soundness demands 0 *)
  e_analysis_s : float;  (** wall-clock of the static analysis alone *)
}

type estimation_sweep = {
  e_label : string;
  e_triples : int;
  e_catalog_build_s : float;  (** wall-clock of the one-pass catalog build *)
  e_estimations : estimation list;
}

(** [estimation_sweep options ~label input entries] builds a
    {!Rapida_analysis.Stats_catalog} from the input's graph (timed),
    statically analyzes every entry, measures every plan node's true
    cardinality, and runs every engine on it — the q-error/soundness
    view of the static analyzer across the catalog. *)
val estimation_sweep :
  ?engines:Engine.kind list ->
  Rapida_core.Plan_util.options ->
  label:string ->
  Engine.input ->
  Catalog.entry list ->
  estimation_sweep

(** [median_q_error ests] is the median root q-error (0 when empty). *)
val median_q_error : estimation list -> float

(** [q_error_percentile p ests] is the nearest-rank [p]-percentile
    ([0 < p <= 1]) of the root q-errors (0 when empty) — the tail view
    the misestimate defense's thresholds are grounded in. *)
val q_error_percentile : float -> estimation list -> float

(** [max_q_error ests] is the worst root q-error (0 when empty). *)
val max_q_error : estimation list -> float

type knob_sweep = {
  k_title : string;
  k_settings : string list;  (** setting labels, in sweep order *)
  k_runs : engine_run list;  (** engine-major, setting order *)
}

(** [knob_sweep ?engines ~title ~settings options input entry] runs one
    catalog query on every engine under each labelled setting, where a
    setting transforms [options] (a fault rate, a heap budget, a
    checkpoint policy, an ablation toggle). The first setting is the
    baseline: each run is checked for result identity with the same
    engine's first-setting run — the transparency invariant every knob
    must keep.

    @raise Invalid_argument when [settings] is empty or a first-setting
    run fails. *)
val knob_sweep :
  ?engines:Engine.kind list ->
  title:string ->
  settings:(string * (Rapida_core.Plan_util.options ->
                      Rapida_core.Plan_util.options)) list ->
  Rapida_core.Plan_util.options ->
  Engine.input ->
  Catalog.entry ->
  knob_sweep

(** One (admission window, scheduler policy, sharing) setting of a
    query-server {!throughput} sweep, carrying the server's full report
    for that setting. *)
type throughput_point = {
  t_window_s : float;
  t_policy : Rapida_mapred.Scheduler.policy;
  t_share : bool;
  t_report : Rapida_server.Server.t;
}

type throughput = {
  t_kind : Engine.kind;
  t_queries : int;
  t_points : throughput_point list;  (** window-major, policy, share order *)
}

(** [throughput ?windows ?policies ?share options kind input workload]
    drives one workload through the query server at every combination of
    admission window, scheduler policy, and sharing mode: per-query
    latency percentiles, slot utilization, and the jobs/scan-bytes saved
    against back-to-back execution, with every result checked against
    its solo run. Windows default to [0, 2, 8] seconds; policies to FIFO
    and fair-share; sharing to both on and off. *)
val throughput :
  ?windows:float list ->
  ?policies:Rapida_mapred.Scheduler.policy list ->
  ?share:bool list ->
  Rapida_core.Plan_util.options ->
  Engine.kind ->
  Engine.input ->
  Rapida_server.Workload.t ->
  throughput

(** One (arrival rate, fault rate) grid point of an {!overload_sweep}:
    the same deadline-carrying workload through a protected server
    (bounded queue, deadline-aware shedding, circuit breaker,
    degradation ladder) and an unprotected one (deadlines observed but
    never enforced). *)
type overload_point = {
  o_mean_gap_s : float;
  o_fault_rate : float;
  o_protected : Rapida_server.Server.t;
  o_unprotected : Rapida_server.Server.t;
}

type overload = {
  o_kind : Engine.kind;
  o_n : int;  (** arrivals per point *)
  o_deadline_s : float;  (** per-query relative deadline *)
  o_points : overload_point list;  (** gap-major, fault-rate order *)
}

(** [overload_sweep options kind input] crosses arrival rate (mean
    inter-arrival gaps, default [8; 1] seconds) with per-attempt fault
    rate (default [0; 0.2]) and runs each point through both servers.
    The claim the sweep exists to demonstrate: under the heaviest
    arrival × fault load, shedding + degradation yields strictly more
    goodput (deadline-met fraction of all arrivals) than admitting
    everything, and every shed query carries a typed fate. *)
val overload_sweep :
  ?gaps:float list ->
  ?fault_rates:float list ->
  ?n:int ->
  ?seed:int ->
  ?deadline_s:float ->
  ?queue_cap:int ->
  Rapida_core.Plan_util.options ->
  Engine.kind ->
  Engine.input ->
  overload

(** A fuzzing run pair for the benchmark harness: a clean run over the
    built-in dataset (expected to pass every oracle) and a short run
    against an intentionally-broken engine (expected to be caught by the
    differential oracle — the sweep's self-test that a clean report is
    meaningful). *)
type fuzz_sweep = {
  f_clean : Rapida_fuzz.Fuzz.report;
  f_broken : Rapida_fuzz.Fuzz.report;  (** run with a row-dropping engine *)
  f_caught : bool;  (** the broken engine produced at least one violation *)
  f_elapsed_s : float;
}

(** [fuzz_sweep ?budget ?seed ?products ()] runs the fuzzer with all four
    oracles over the built-in BSBM dataset, then re-runs a short budget
    with {!Rapida_fuzz.Fuzz.break_drop_row} applied to one engine.
    Budget defaults to 200 cases, seed to 42, products to 30. *)
val fuzz_sweep :
  ?budget:int -> ?seed:int -> ?products:int -> unit -> fuzz_sweep

(** One catalog query through the cost-based planner in an
    {!optimize_sweep}: planning time (cold, then a timed guaranteed
    cache hit), the enumerated units and verified hints, the summed
    upper-bound cost of the chosen orders against the heuristic orders
    (the costed-vs-heuristic delta), and whether every engine's
    optimized result stayed byte-identical to its heuristic run. *)
type optimize_entry = {
  p_query : Rapida_queries.Catalog.entry;
  p_planning_ms : float;  (** cold plan through an empty cache *)
  p_replan_ms : float;  (** the same shape again — a cache hit *)
  p_units : int;  (** multi-star units the enumerator handled *)
  p_hints : int;  (** verified join-order hints installed *)
  p_heuristic_hi : float;  (** summed upper-bound cost, heuristic orders *)
  p_chosen_hi : float;  (** summed upper-bound cost, chosen orders *)
  p_all_verified : bool;  (** no unit fell back over a [Plan_verify] reject *)
  p_identical : bool;
      (** every engine: optimized result = heuristic result *)
}

type optimize_sweep = {
  p_label : string;
  p_triples : int;
  p_policy : Rapida_planner.Cost_model.policy;
  p_catalog_build_s : float;
  p_entries : optimize_entry list;
  p_server : Rapida_server.Server.t;
      (** a repeated-traffic server run with the planner armed — its
          [r_optimize] report carries the plan-cache hit rate *)
}

(** [optimize_sweep options ~label input entries] builds a statistics
    catalog from the input's graph (timed), plans every entry cold and
    then again through the cache (hits must skip enumeration), prices
    the chosen orders against the heuristic orders at their upper
    bounds, checks per-engine byte-identity of optimized vs heuristic
    results, and finally drives a generated arrival stream through a
    planner-armed query server to measure the plan-cache hit rate under
    repeated traffic. Policy defaults to [Worst_case]; the server run
    to 12 arrivals at seed 11. *)
val optimize_sweep :
  ?engines:Engine.kind list ->
  ?policy:Rapida_planner.Cost_model.policy ->
  ?seed:int ->
  ?arrivals:int ->
  Rapida_core.Plan_util.options ->
  label:string ->
  Engine.input ->
  Catalog.entry list ->
  optimize_sweep
