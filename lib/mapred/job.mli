(** MapReduce job execution.

    A job spec bundles the map / combine / reduce functions together with
    size estimators used by the cost model. Keys must be hashable and
    comparable with the polymorphic primitives (use plain data: strings,
    ints, tuples, RDF terms — no closures).

    Execution is real: map functions run over the actual input records,
    combiners run per map task, reducers run per key group. Only the time
    is simulated.

    {b Grouping order.} Every grouping (a task's combiner, the shuffle)
    is deterministic: the key whose first occurrence comes {e last}
    leads, and each group's values keep arrival order, so the pairs
    [a,1; b,2; a,3; c,4] group as [c:[4]; b:[2]; a:[1;3]]. The shuffle
    receives the map tasks' output in task order (a combining task's
    pairs in its own group order), and its groups are reduced in this
    order — group [i] in reduce task [i mod reduce_tasks].

    Jobs run against an {!Exec_ctx.t}: the context's cluster prices the
    job, and every run appends one span per simulated phase to the
    context's trace and advances its simulated clock. A job's counts
    are its {!Stats.job}; {!Workflow} records them. *)

type ('a, 'k, 'v, 'b) spec = {
  name : string;
  map : 'a -> ('k * 'v) list;
  combine : ('k -> 'v list -> 'v list) option;
      (** optional per-map-task partial aggregation ("local combiner") *)
  reduce : 'k -> 'v list -> 'b list;
  input_size : 'a -> int;
  key_size : 'k -> int;
  value_size : 'v -> int;
  output_size : 'b -> int;
}

type ('a, 'b) map_only_spec = {
  mo_name : string;
  mo_map : 'a -> 'b list;
  mo_input_size : 'a -> int;
  mo_output_size : 'b -> int;
}

(** Why a job died: the task that burned all of its attempts. [f_reason]
    distinguishes injected attempt crashes from a user map/combine/reduce
    function raising (the exception's text). [f_elapsed_s] is the
    simulated time the failed submission consumed before dying.
    [f_deterministic] marks failures that recur identically on every
    resubmission (user exceptions, poison records beyond the skip
    tolerance): {!Workflow}'s checkpoint recovery must not retry them. *)
type failure = {
  f_job : string;
  f_phase : Fault_injector.phase;
  f_task : int;
  f_attempts : int;
  f_attempts_failed : int;
      (** every attempt that crashed in the failed submission, in the
          map phase as well as the failing one, the exhausted task's
          [f_attempts] included; {!Workflow} adds them to
          {!Stats.field-lost_attempts_failed} *)
  f_speculative_launched : int;  (** counted as [f_attempts_failed] *)
  f_attempts_killed : int;  (** counted as [f_attempts_failed] *)
  f_reason : string;
  f_elapsed_s : float;
  f_deterministic : bool;
}

(** Raised when a task exhausts its attempts ({!Fault_injector} crashes
    or a deterministic user-code exception). {!Workflow} catches this and
    either resubmits the whole job or aborts the workflow — it should not
    escape to callers of the engines. *)
exception Job_failed of failure

val pp_failure : failure Fmt.t

(** [run ctx spec input] executes a full map-reduce cycle and returns
    the reducer outputs (group by group, in the grouping order above)
    plus the job stats.

    [attempt] is the whole-job submission number (0 = first submission);
    resubmitting with a higher [attempt] re-rolls every injected fault
    decision — except poison records, whose fate is attempt-independent:
    a poisoned map task burns [max_attempts] crashes, bisects to the
    record, and skips it within
    {!Fault_injector.config.skip_max_records} (counted in
    [Stats.skipped_records] and priced into the map phase), failing the
    job beyond that tolerance. Raises {!Job_failed} when a task exhausts
    its attempts.

    @raise Job_failed *)
val run :
  ?attempt:int ->
  Exec_ctx.t ->
  ('a, 'k, 'v, 'b) spec ->
  'a list ->
  'b list * Stats.job

(** [run_map_only ctx spec input] executes a map-only cycle.

    @raise Job_failed *)
val run_map_only :
  ?attempt:int ->
  Exec_ctx.t ->
  ('a, 'b) map_only_spec ->
  'a list ->
  'b list * Stats.job

(** [estimate_map_tasks cluster ~input_bytes] is the number of map tasks a
    job with that much (compressed) input would launch: one per input
    split, at least 1. Exposed for tests and for engines that reason about
    mapper parallelism (the ORC effect in §5.2). *)
val estimate_map_tasks : Cluster.t -> input_bytes:int -> int
