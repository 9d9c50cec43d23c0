(** Per-task memory model for the MapReduce simulator.

    Hadoop tasks run with a bounded heap: the map side buffers its output
    in a sort buffer and spills sorted runs to local disk once a fill
    threshold is crossed ([io.sort.mb] / [io.sort.spill.percent]); the
    reduce side merges fetched segments under the same budget
    ([io.sort.factor]-way merges); and a task whose live working set (a
    combiner hash table, a map-join build side) exceeds the container
    heap is OOM-killed outright. This module holds the knobs and the
    arithmetic; {!Job} prices the consequences into simulated time, and
    {e only} time — results are byte-identical at every budget.

    The {!default} budget is generous enough that no catalog workload
    spills or OOMs, so default runs are byte-for-byte identical to a
    simulator without a memory model. *)

type config = {
  task_heap_bytes : int;
      (** hard per-task container heap; a working set above this is an
          OOM kill, not a spill *)
  sort_buffer_bytes : int;  (** in-memory sort buffer ([io.sort.mb]) *)
  spill_threshold : float;
      (** fill fraction of the sort buffer that triggers a spill
          ([io.sort.spill.percent]), in (0, 1] *)
}

(** 1 GiB heap, 256 MiB sort buffer, 0.8 spill threshold. *)
val default : config

(** Fan-in of one external-sort merge pass (Hadoop [io.sort.factor]). *)
val merge_factor : int

(** Validates ranges (positive sizes, threshold in (0, 1]); raises
    [Invalid_argument] otherwise. *)
val create : config -> config

(** Usable sort-buffer bytes before a spill triggers:
    [spill_threshold * sort_buffer_bytes], at least 1. *)
val spill_budget : config -> int

(** [spill_passes ~budget_bytes ~data_bytes] is the number of extra
    local-disk read+write passes an external sort of [data_bytes] needs
    with an in-memory budget of [budget_bytes]: [0] when the data fits
    ([data_bytes <= budget_bytes], including exactly at the boundary),
    else [ceil (log_merge_factor (ceil (data/budget)))]. Monotonically
    non-increasing in [budget_bytes]. *)
val spill_passes : budget_bytes:int -> data_bytes:int -> int

(** How many attempts of an over-heap task die to OOM before the
    escalation ladder disables its combiner and reruns it degraded:
    [min 2 (max_attempts - 1)] — the task always completes within its
    attempt budget, it never aborts the job. *)
val oom_attempts : max_attempts:int -> int

(** [parse_spec s] reads a CLI memory spec in the {!Spec} format over
    [heap], [sort-buffer] (sizes in bytes, or with a [k]/[m]/[g] suffix)
    and [spill-threshold] (a float in (0, 1]); unspecified keys keep
    their {!default}. E.g. ["heap=64m,sort-buffer=1m"]. *)
val parse_spec : string -> (config, string) result

val pp : config Fmt.t
