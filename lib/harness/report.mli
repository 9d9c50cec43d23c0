(** Paper-style result tables over experiment runs. *)

module Engine = Rapida_core.Engine

(** [pp_comparison ~title ~engines runs] renders one table: a row per
    query, a column per engine showing simulated seconds (the paper's
    execution-time tables), plus MR-cycle counts and the speedup of the
    last engine over the first. A trailing [*] marks a result that failed
    verification against the reference evaluator. *)
val pp_comparison :
  title:string -> engines:Engine.kind list -> Experiment.run list Fmt.t

(** [pp_cycles ~title ~engines runs] renders the MR-cycle matrix. *)
val pp_cycles :
  title:string -> engines:Engine.kind list -> Experiment.run list Fmt.t

(** [pp_bytes ~title ~engines runs] renders shuffled bytes per engine —
    the I/O-saving view of the same experiments. *)
val pp_bytes :
  title:string -> engines:Engine.kind list -> Experiment.run list Fmt.t

(** [pp_phases ~title ~engines runs] renders the per-phase time
    breakdown — where each engine's simulated seconds go
    (startup / map / shuffle+sort / reduce), the attribution view the
    paper's cycle-count arguments rest on. *)
val pp_phases :
  title:string -> engines:Engine.kind list -> Experiment.run list Fmt.t

(** [pp_knob_sweep ~engines sweep] renders a one-knob sweep: a row per
    setting, a column per engine showing simulated seconds, KB shuffled
    and the slowdown over that engine's first-setting run. Flags: [s]
    when the engine spilled, [!o] when tasks were OOM-killed (and rerun
    with the combiner disabled), [+r] when a broadcast join fell back to
    a repartition join, [rN/Ms] when the workflow recovered N times by
    replaying M simulated seconds since the last checkpoint, [cK] when K
    checkpoints were written, and a trailing [*] on a result that
    diverged from the first setting's. [aborted] marks a failed run. *)
val pp_knob_sweep : engines:Engine.kind list -> Experiment.knob_sweep Fmt.t

(** [pp_verification runs] summarizes cross-engine agreement. *)
val pp_verification : Experiment.run list Fmt.t

(** [speedup run ~baseline ~target] is simulated-time ratio baseline /
    target, when both succeeded. *)
val speedup :
  Experiment.run -> baseline:Engine.kind -> target:Engine.kind ->
  float option

(** [pp_throughput sweep] renders a query-server throughput sweep: a row
    per (admission window, scheduler policy, sharing) setting showing
    per-query latency percentiles, slot utilization, server-path job
    count, and the jobs/scan-bytes saved versus back-to-back execution.
    The [ok] column confirms every per-query result matched its solo
    run — the sharing-transparency invariant. *)
val pp_throughput : Experiment.throughput Fmt.t

(** [pp_estimation ~engines sweep] renders a static-estimation sweep: a
    row per query showing the analyzer's root cardinality interval, the
    point estimate, the measured cardinality and its q-error, the
    per-node interval-violation count (soundness demands 0), and one
    column per engine marking whether the engine's result cardinality
    fell inside the root interval ([okN] / [OUTN] / [error]). The footer
    reports the median, p95, and max root q-error, the worst per-node
    q-error, and the total violation count. *)
val pp_estimation :
  engines:Engine.kind list -> Experiment.estimation_sweep Fmt.t

(** [pp_optimize ~engines sweep] renders a cost-based planner sweep: a
    row per query showing cold planning time, the timed cache hit,
    enumerated units and verified hints, the summed upper-bound cost of
    the heuristic vs chosen orders with the saving percentage, and
    whether every engine's optimized result stayed byte-identical
    ([yes] / [NO], with [[REJECTED]] marking a [Plan_verify] fallback).
    The footer reports the repeated-traffic server run: groups planned,
    plan-cache counters with the hit rate, and the misestimate-defense
    state. *)
val pp_optimize :
  engines:Engine.kind list -> Experiment.optimize_sweep Fmt.t

(** [pp_overload sweep] renders an overload sweep: a row per (arrival
    gap, fault rate) grid point comparing the unprotected server's
    goodput/missed/failed counts against the protected server's
    goodput/shed/missed, with a verdict column naming whichever won on
    goodput. *)
val pp_overload : Experiment.overload Fmt.t
