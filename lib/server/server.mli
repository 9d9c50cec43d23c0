(** The query server: a workload driver with cross-query multi-query
    optimization and an (off-by-default) overload-resilience layer.

    The server admits a time-ordered stream of analytical queries
    ({!Workload.t}) in admission windows: a window opens at the first
    pending arrival and closes [window_s] later; everything that arrived
    meanwhile is admitted as one batch. Each batch is partitioned into
    overlap groups ({!Rapida_core.Batch_exec.group_queries} — the
    paper's Defs 3.1/3.2 machinery applied {e across} queries), every
    group runs as one shared composite plan (one scan, one Agg-Join
    cycle, one demux — {!Rapida_core.Batch_exec.run_group}), and the
    groups' priced workflows contend for the cluster's slots under a
    {!Rapida_mapred.Scheduler} policy. Per-query latency is
    admission wait + queueing delay + shared execution.

    Every run also prices the back-to-back baseline — each query solo
    through {!Rapida_core.Engine.execute}, sequentially on the same
    cluster — and checks every server-path result against its solo
    result ({!Rapida_relational.Relops.same_results}): sharing must
    change the price, never the answer. Within one run a query that
    recurs in the stream (the same {!Rapida_sparql.To_sparql.analytical}
    rendering) runs solo once; its later arrivals reuse that result,
    stats included. The server-path executions are never reused this
    way, so the check stays independent.

    {2 Overload resilience}

    With an {!overload} configuration (or deadlines in the workload)
    the server protects itself under pressure instead of letting every
    latency blow up together:

    - {b Deadlines/SLOs}: each arrival may carry a relative deadline;
      the scheduler's estimated completion lets the server refuse
      queries that cannot meet theirs, and finished queries that ran
      past theirs are reported {!Deadline_missed}.
    - {b Admission control}: a bounded pending queue ([queue_cap]
      queries in flight + admitted); overflow is shed under a
      {!shed_policy}. A circuit breaker trips after [breaker_k]
      consecutive transient ([Job_failed]) results and sheds whole
      batches until its cooldown passes.
    - {b Degradation ladder}: under measured pressure (in-flight query
      depth or backlog drain time over their thresholds) the server
      steps down — level 0: full MQO sharing; level 1: sharing off
      (smaller latency variance); level 2: broadcast-everything
      heuristic plans with sampled result verification — and steps back
      up when pressure clears. Every step is counted and traced
      (category ["overload"] in {!field-r_trace}).

    Every shed query gets a typed {!fate} — never a silent drop — and
    the report grows goodput, per-fate counts and latency percentiles,
    and time-in-level. With everything disabled the run, report, and
    JSON are bit-identical to the unprotected server.

    {2 Cost-based planning}

    With an {!optimize_cfg} the server plans every executed group with
    the {!Rapida_planner} layer: singleton groups plan the member query,
    shared groups plan the pooled composite that actually executes.
    Decisions come from a bounded plan cache keyed by (query shape,
    catalog fingerprint) — repeated workload shapes skip join
    enumeration entirely — and each optimized singleton result is
    checked against the analyzer's predicted root interval. An escape
    counts a misestimate ({!field-p_misestimates}), makes the next group
    run the heuristic plan, and [defense_k] consecutive escapes turn the
    optimizer off for the rest of the run ({!Rapida_planner.Defense}).
    With [c_optimize = None] (the default) the run, report, and JSON are
    bit-identical to the heuristic server.

    The catalog the planner reads is built once per input ({!catalog}),
    not once per run. That relies on the contract {!Engine.input}'s lazy
    storage layouts already rely on: the graph of an input does not
    change after {!Engine.input_of_graph}. *)

module Engine = Rapida_core.Engine
module Scheduler = Rapida_mapred.Scheduler
module Trace = Rapida_mapred.Trace
module Json = Rapida_mapred.Json

(** What to shed when the pending queue is full. [Drop_tail] sheds the
    latest arrivals; [Cost_aware] the most expensive queries first (by
    the priced solo plan's slot-seconds); [Deadline_aware] keeps the
    earliest absolute deadlines, shedding no-deadline queries first,
    and additionally refuses queries whose estimated completion already
    misses their deadline. *)
type shed_policy = Drop_tail | Cost_aware | Deadline_aware

val shed_policy_name : shed_policy -> string
val shed_policy_of_string : string -> shed_policy option

(** Why a query was shed: the pending queue was full ([Queue_full]),
    its deadline was already infeasible at admission ([Infeasible]), or
    the circuit breaker was open ([Breaker_open]). *)
type shed_reason = Queue_full | Infeasible | Breaker_open

val shed_reason_name : shed_reason -> string

(** One query's terminal fate. [Completed] means finished within its
    deadline (or it had none); [Deadline_missed] means it finished, with
    a correct answer, but late; [Failed] is an execution error. *)
type fate = Completed | Shed of shed_reason | Deadline_missed | Failed

val fate_name : fate -> string

(** The overload-resilience knobs. All off in {!overload_off}; the
    server's behaviour with that value is bit-identical to the
    unprotected server. *)
type overload = {
  ov_queue_cap : int option;
      (** bound on in-flight + newly admitted queries; [None] = unbounded *)
  ov_shed_policy : shed_policy;
  ov_deadline_s : float option;
      (** default relative deadline for arrivals without their own *)
  ov_breaker_k : int option;
      (** consecutive transient failures that open the circuit breaker *)
  ov_breaker_cooldown_s : float;  (** how long an open breaker sheds *)
  ov_degrade : bool;  (** enable the degradation ladder *)
  ov_degrade_depth : int;
      (** in-flight queries at which the ladder steps to level 1 (level
          2 at twice this) *)
  ov_degrade_drain_s : float;
      (** backlog drain seconds at which the ladder steps to level 1
          (level 2 at twice this) *)
  ov_verify_sample : int;
      (** at ladder level 2, verify 1 in this many results against solo *)
}

(** [overload ()] with the defaults: everything off ([queue_cap],
    [breaker_k], [deadline_s] unset, [degrade] false), [Drop_tail]
    shedding, 120 s breaker cooldown, level thresholds 8 queries /
    60 s drain, verification sampling 1-in-4. *)
val overload :
  ?queue_cap:int ->
  ?shed_policy:shed_policy ->
  ?deadline_s:float ->
  ?breaker_k:int ->
  ?breaker_cooldown_s:float ->
  ?degrade:bool ->
  ?degrade_depth:int ->
  ?degrade_drain_s:float ->
  ?verify_sample:int ->
  unit -> overload

val overload_off : overload

(** True when any overload knob is set — the layer also activates when
    the workload itself carries deadlines. *)
val overload_enabled : overload -> bool

(** The cost-based planner knobs: robustness policy, plan-cache
    capacity, and the circuit breaker's consecutive-escape threshold. *)
type optimize_cfg = {
  oc_policy : Rapida_planner.Cost_model.policy;
  oc_cache_capacity : int;  (** LRU plan-cache entries *)
  oc_defense_k : int;
      (** consecutive misestimate escapes that trip the breaker *)
}

(** [optimize ()] with the defaults: [Worst_case] policy, 64 cache
    entries, breaker threshold 3. *)
val optimize :
  ?policy:Rapida_planner.Cost_model.policy ->
  ?cache_capacity:int ->
  ?defense_k:int ->
  unit -> optimize_cfg

type config = {
  c_kind : Engine.kind;
  c_window_s : float;  (** admission window length, seconds *)
  c_policy : Scheduler.policy;
  c_share : bool;
      (** cross-query sharing on MQO-capable kinds; [false] runs every
          admitted query solo (grouping off), isolating the scheduler *)
  c_overload : overload;
  c_optimize : optimize_cfg option;
      (** cost-based planning; [None] (default) is the heuristic server *)
  c_options : Rapida_core.Plan_util.options;
}

(** [config kind] with the defaults: 5 s window, fair-share scheduling,
    sharing on, {!overload_off}, no cost-based planning,
    {!Rapida_core.Plan_util.default_options}. *)
val config :
  ?window_s:float ->
  ?policy:Scheduler.policy ->
  ?share:bool ->
  ?overload:overload ->
  ?optimize:optimize_cfg ->
  ?options:Rapida_core.Plan_util.options ->
  Engine.kind -> config

(** One query's path through the server. Shed queries carry
    [q_group = -1], zero latency/rows, and a vacuously-true
    [q_matches_solo]. *)
type query_report = {
  q_id : int;
  q_label : string;
  q_arrival_s : float;
  q_batch : int;  (** admission batch index *)
  q_group : int;  (** global overlap-group index; -1 if shed *)
  q_group_size : int;  (** queries sharing its composite plan *)
  q_queue_s : float;  (** admission wait + scheduler queueing delay *)
  q_latency_s : float;  (** group completion − arrival *)
  q_rows : int;
  q_deadline_s : float option;
      (** effective relative deadline (workload or config default) *)
  q_fate : fate;
  q_checked : bool;
      (** result was compared against the solo run (always true below
          ladder level 2; sampled at level 2) *)
  q_error : Engine.error option;
  q_matches_solo : bool;
      (** result identical to the query's solo {!Engine.execute} run *)
}

type batch_report = {
  b_index : int;
  b_open_s : float;  (** first arrival of the batch *)
  b_admit_s : float;  (** window close = admission instant *)
  b_size : int;  (** arrivals in the window (including later-shed) *)
  b_group_sizes : int list;  (** executed overlap-group sizes, batch order *)
}

(** Goodput-first accounting, present when the overload layer was
    active. Goodput is the fraction of all arrivals that [Completed]
    (finished, correct, within deadline). *)
type overload_report = {
  o_completed : int;
  o_shed_queue : int;
  o_shed_infeasible : int;
  o_shed_breaker : int;
  o_missed : int;
  o_failed : int;
  o_goodput : float;
  o_breaker_trips : int;
  o_level_steps : int;  (** degradation-ladder transitions *)
  o_time_in_level : (int * float) list;
      (** (level, seconds) — empty unless the ladder was enabled *)
  o_completed_p50_s : float;
  o_completed_p95_s : float;
  o_completed_p99_s : float;
  o_missed_p50_s : float;
  o_missed_p95_s : float;
  o_missed_p99_s : float;
  o_checked : int;  (** results verified against their solo run *)
}

(** Cost-based planner accounting, present when {!field-c_optimize} was
    set. A cache hit means a group executed a previously enumerated
    plan with no enumeration at all. *)
type optimize_report = {
  p_policy : string;
  p_planned : int;
      (** executed groups planned with the optimizer armed; a pass the
          deadline-aware feasibility check refuses and re-runs counts
          only once *)
  p_cache : Rapida_planner.Plan_cache.stats;
      (** every plan-cache lookup, including those of a refused pass *)
  p_misestimates : int;
      (** optimized results outside their predicted interval *)
  p_fallbacks : int;  (** heuristic groups paid for escapes *)
  p_breaker : string;  (** final breaker state: armed/cooling/off *)
}

type t = {
  r_kind : Engine.kind;
  r_window_s : float;
  r_policy : Scheduler.policy;
  r_share : bool;
  r_queries : query_report list;  (** in arrival order *)
  r_batches : batch_report list;
  (* server-path totals *)
  r_jobs : int;
  r_input_bytes : int;  (** total scan bytes across all shared plans *)
  r_makespan_s : float;
  r_utilization : float;  (** busy slot-seconds over pool × makespan *)
  r_latency_mean_s : float;  (** executed (non-shed) queries only *)
  r_latency_p50_s : float;
  r_latency_p95_s : float;
  r_latency_p99_s : float;
  r_latency_max_s : float;
  (* back-to-back baseline on the same cluster *)
  r_solo_jobs : int;
  r_solo_input_bytes : int;
  r_solo_makespan_s : float;
  r_solo_latency_p50_s : float;
  r_solo_latency_p95_s : float;
  r_solo_latency_p99_s : float;
  r_jobs_saved : int;  (** [r_solo_jobs - r_jobs] *)
  r_bytes_saved : int;  (** [r_solo_input_bytes - r_input_bytes] *)
  r_all_matched : bool;  (** every checked query matched its solo run *)
  r_errors : int;
  r_overload : overload_report option;  (** [Some] iff the layer was active *)
  r_optimize : optimize_report option;
      (** [Some] iff cost-based planning was configured *)
  r_trace : Trace.t;
      (** server-level spans, category ["overload"]: level periods, shed
          decisions, breaker openings *)
}

(** [run config input workload] drives the whole workload through the
    server and prices the solo baseline. Pure simulation — deterministic
    for a given (config, input, workload). *)
val run : config -> Engine.input -> Workload.t -> t

(** [catalog input] is the statistics catalog the planner reads for
    [input], with its {!Rapida_planner.Planner.catalog_fingerprint}. The
    server keeps the last input's catalog and matches it by physical
    identity ([==]), so repeated runs over one input build it once.
    Correct only while the input's graph stays unchanged after
    {!Engine.input_of_graph}, which nothing in the library does. *)
val catalog : Engine.input -> Rapida_analysis.Stats_catalog.t * int64

(** [percentile p xs] is the nearest-rank [p]-th percentile of [xs]
    (0 on empty input). Exposed for the harness sweeps. *)
val percentile : float -> float list -> float

val pp : t Fmt.t

(** Per-query lines, then the {!pp} summary. *)
val pp_detail : t Fmt.t

val to_json : t -> Json.t
