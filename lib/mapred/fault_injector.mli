(** Deterministic fault injection for the MapReduce simulator.

    An injector decides, for every task attempt the simulator runs,
    whether that attempt crashes, straggles, or completes normally. The
    decision is a pure hash of [(seed, job, job_attempt, phase, task,
    attempt)] — no mutable PRNG state — so outcomes are reproducible
    regardless of evaluation order, and a whole-job retry (which bumps
    [job_attempt]) re-rolls every task's dice exactly as a fresh Hadoop
    job submission would.

    Fault tolerance is transparent by construction: the injector only
    shapes {e simulated time} and failure {e counters}. The real
    map/combine/reduce computation runs once over the actual data, so
    any configuration that does not exhaust a task's attempts yields
    byte-identical query results to a healthy run. *)

(** Simulated phase a task attempt belongs to. The reduce phase covers
    shuffle + sort + reduce-write: a reduce attempt that crashes redoes
    its fetch and sort, as in Hadoop. *)
type phase = Map | Reduce

val phase_name : phase -> string

type config = {
  seed : int;  (** root of every pseudo-random decision *)
  task_fail_p : float;  (** per task-attempt crash probability *)
  straggler_p : float;  (** per task-attempt straggler probability *)
  straggler_slowdown : float;
      (** how much slower a straggling attempt runs (e.g. 3.0 = 3x) *)
  max_attempts : int;
      (** attempts per task before the job fails (Hadoop
          [mapreduce.map/reduce.maxattempts], default 4) *)
  speculation : bool;
      (** launch a speculative duplicate of a straggling attempt and
          kill the loser (Hadoop speculative execution) *)
  job_retries : int;
      (** whole-job resubmissions a workflow performs after a
          [Job_failed] before aborting *)
  retry_backoff_s : float;
      (** simulated delay before each whole-job resubmission *)
  target : phase option;
      (** restrict injected faults to one phase; [None] = both *)
  poison_p : float;
      (** per input-record poison probability: a poisoned record crashes
          its map task at the same point on {e every} attempt, so
          ordinary retries never help and {!Job} must enter skip mode
          (see {!poisoned}) *)
  skip_max_records : int;
      (** skip-mode tolerance: records a job may skip before failing
          anyway (Hadoop [SkipBadRecords] semantics; 0 = skip mode off,
          the Hadoop default — a single poison record fails the job) *)
}

(** All probabilities zero — the healthy cluster. [max_attempts = 4],
    [straggler_slowdown = 3.0], [speculation = true], [job_retries = 0],
    [retry_backoff_s = 30.0], [target = None], [seed = 0]. *)
val default : config

type t

val create : config -> t
val config : t -> config

(** An injector with any non-zero fault probability. Inactive injectors
    leave the cost model byte-for-byte untouched. *)
val active : t -> bool

(** Whether poison records are being injected ([poison_p > 0]). *)
val poison_active : t -> bool

(** [poisoned t ~job ~record] decides whether global input record
    [record] of [job] is poison. Deliberately independent of both
    [job_attempt] and the per-task attempt number: poison is a property
    of the {e record}, so it crashes every retry of every resubmission
    identically — only skip-mode bisection gets past it. *)
val poisoned : t -> job:string -> record:int -> bool

type outcome =
  | Healthy
  | Crash of float
      (** attempt dies after completing this fraction of its work *)
  | Straggle  (** attempt runs at [1 / straggler_slowdown] speed *)

(** The deterministic fate of one task attempt. [job_attempt] counts
    whole-job resubmissions (0 = first submission); [attempt] counts
    per-task retries (1-based). *)
val attempt_outcome :
  t ->
  job:string ->
  job_attempt:int ->
  phase:phase ->
  task:int ->
  attempt:int ->
  outcome

(** What happened to one injected-upon task attempt. *)
type attempt_fate =
  | Crashed of float  (** died after completing this fraction of work *)
  | Speculated
      (** straggled; a speculative copy won and the original was killed *)
  | Straggled  (** straggled to completion (speculation off) *)
  | Oom_killed
      (** killed for exceeding the container heap (emitted by {!Job}'s
          memory model, not by {!attempt_outcome}: OOM is a deterministic
          consequence of the working-set estimate, not a random fate) *)
  | Poisoned
      (** crashed on a poison input record — a crash or bisection probe
          from skip mode (emitted by {!Job}'s skip machinery, driven by
          {!poisoned} rather than {!attempt_outcome}) *)

type attempt_event = {
  ev_task : int;
  ev_attempt : int;
  ev_fate : attempt_fate;
  ev_wasted_s : float;  (** re-work this event adds, in slot-seconds *)
}

(** Result of simulating one phase of one job under the injector. *)
type phase_sim = {
  elapsed_s : float;
      (** wall time of the phase including re-work: wasted crashed
          attempts, straggler slowdown or killed speculative originals,
          spread over the phase's task slots *)
  attempts_failed : int;  (** crashed task attempts *)
  speculative_launched : int;  (** speculative duplicates started *)
  attempts_killed : int;  (** attempts killed after losing the race *)
  events : attempt_event list;  (** every non-healthy attempt, in order *)
  exhausted : (int * int) option;
      (** [(task, attempts)] of the first task to burn every attempt;
          the job must fail *)
}

(** [simulate_phase t ~job ~job_attempt ~phase ~tasks ~slots ~base_s]
    replays [tasks] task attempts through the injector. [base_s] is the
    healthy wall-clock of the phase (work conserving: [tasks] tasks
    over [slots] slots), and the returned [elapsed_s] adds each wasted
    or slowed attempt's work on the same slots — so an inactive
    injector returns exactly [base_s]. Stops early (with [exhausted]
    set) when a task fails [max_attempts] times. *)
val simulate_phase :
  t ->
  job:string ->
  job_attempt:int ->
  phase:phase ->
  tasks:int ->
  slots:int ->
  base_s:float ->
  phase_sim

(** [parse_spec s] reads a CLI fault spec in the {!Spec} format over
    [seed], [task-fail], [straggler], [slowdown], [max-attempts],
    [speculation] ([on]/[off]), [job-retries], [backoff], [phase]
    ([map]/[reduce]/[all]), [poison], [skip-max]; unspecified keys keep
    their {!default}.
    E.g. ["seed=7,task-fail=0.05,straggler=0.1"]. *)
val parse_spec : string -> (config, string) result

val pp : t Fmt.t
