type phase = Map | Reduce

let phase_name = function Map -> "map" | Reduce -> "reduce"

type config = {
  seed : int;
  task_fail_p : float;
  straggler_p : float;
  straggler_slowdown : float;
  max_attempts : int;
  speculation : bool;
  job_retries : int;
  retry_backoff_s : float;
  target : phase option;
  poison_p : float;
  skip_max_records : int;
}

let default =
  {
    seed = 0;
    task_fail_p = 0.0;
    straggler_p = 0.0;
    straggler_slowdown = 3.0;
    max_attempts = 4;
    speculation = true;
    job_retries = 0;
    retry_backoff_s = 30.0;
    target = None;
    poison_p = 0.0;
    skip_max_records = 0;
  }

type t = config

let create cfg =
  if cfg.task_fail_p < 0.0 || cfg.task_fail_p >= 1.0 then
    invalid_arg "Fault_injector.create: task_fail_p must be in [0, 1)";
  if cfg.straggler_p < 0.0 || cfg.straggler_p > 1.0 then
    invalid_arg "Fault_injector.create: straggler_p must be in [0, 1]";
  if cfg.max_attempts < 1 then
    invalid_arg "Fault_injector.create: max_attempts must be >= 1";
  if cfg.straggler_slowdown < 1.0 then
    invalid_arg "Fault_injector.create: straggler_slowdown must be >= 1";
  if cfg.poison_p < 0.0 || cfg.poison_p >= 1.0 then
    invalid_arg "Fault_injector.create: poison_p must be in [0, 1)";
  if cfg.skip_max_records < 0 then
    invalid_arg "Fault_injector.create: skip_max_records must be >= 0";
  cfg

let config t = t
let active t = t.task_fail_p > 0.0 || t.straggler_p > 0.0 || t.poison_p > 0.0
let poison_active t = t.poison_p > 0.0

(* splitmix64: one mixing step. Used as a hash, not a stream — every
   decision hashes its full coordinates so outcomes are independent of
   the order the simulator asks in. *)
let mix64 z =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mix_int h x = mix64 (Int64.logxor h (Int64.of_int x))

let hash_string h s =
  let acc = ref h in
  String.iter (fun c -> acc := mix_int !acc (Char.code c)) s;
  !acc

(* Top 53 bits as a float in [0, 1). *)
let u01 h =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let decision_hash t ~job ~job_attempt ~phase ~task ~attempt =
  let h = mix_int 0L t.seed in
  let h = hash_string h job in
  let h = mix_int h job_attempt in
  let h = mix_int h (match phase with Map -> 1 | Reduce -> 2) in
  let h = mix_int h task in
  mix_int h attempt

(* A poison record's identity deliberately excludes [job_attempt] and
   the per-task [attempt]: the same record crashes the task at the same
   point on every retry of every resubmission — that is what makes it
   poison, and why only skip mode (not retries) can get past it. The
   coordinate 3 tags the poison decision domain, disjoint from the
   phase coordinates (1 = map, 2 = reduce) used by attempt outcomes. *)
let poisoned t ~job ~record =
  t.poison_p > 0.0
  &&
  let h = mix_int 0L t.seed in
  let h = hash_string h job in
  let h = mix_int h 3 in
  u01 (mix_int h record) < t.poison_p

type outcome = Healthy | Crash of float | Straggle

let targets t phase =
  match t.target with None -> true | Some p -> p = phase

let attempt_outcome t ~job ~job_attempt ~phase ~task ~attempt =
  if not (active t && targets t phase) then Healthy
  else
    let h = decision_hash t ~job ~job_attempt ~phase ~task ~attempt in
    let crash_draw = u01 h in
    if crash_draw < t.task_fail_p then
      (* Crash point: how much of the attempt's work was done before the
         container died — in [0.1, 0.9] so a crash is never free and
         never a full duplicate. *)
      Crash (0.1 +. (0.8 *. u01 (mix_int h 1)))
    else if u01 (mix_int h 2) < t.straggler_p then Straggle
    else Healthy

type attempt_fate =
  | Crashed of float
  | Speculated
  | Straggled
  | Oom_killed
  | Poisoned

type attempt_event = {
  ev_task : int;
  ev_attempt : int;
  ev_fate : attempt_fate;
  ev_wasted_s : float;
}

type phase_sim = {
  elapsed_s : float;
  attempts_failed : int;
  speculative_launched : int;
  attempts_killed : int;
  events : attempt_event list;
  exhausted : (int * int) option;
}

let healthy_sim base_s =
  {
    elapsed_s = base_s;
    attempts_failed = 0;
    speculative_launched = 0;
    attempts_killed = 0;
    events = [];
    exhausted = None;
  }

let simulate_phase t ~job ~job_attempt ~phase ~tasks ~slots ~base_s =
  if not (active t && targets t phase) || tasks <= 0 || base_s <= 0.0 then
    healthy_sim base_s
  else begin
    let slots = max 1 (min tasks slots) in
    (* Work conservation: [base_s] is the wall time of [tasks] tasks over
       [slots] slots, so one task's serial work is [base_s * slots /
       tasks] slot-seconds. Every wasted or slowed attempt adds work on
       the same slots. *)
    let per_task_s = base_s *. float_of_int slots /. float_of_int tasks in
    let wasted = ref 0.0 in
    let failed = ref 0 in
    let speculative = ref 0 in
    let killed = ref 0 in
    let events = ref [] in
    let exhausted = ref None in
    let record_event ev_task ev_attempt ev_fate ev_wasted_s =
      wasted := !wasted +. ev_wasted_s;
      events := { ev_task; ev_attempt; ev_fate; ev_wasted_s } :: !events
    in
    (let task = ref 0 in
     while !exhausted = None && !task < tasks do
       let rec run_attempt attempt =
         match
           attempt_outcome t ~job ~job_attempt ~phase ~task:!task ~attempt
         with
         | Crash frac ->
           incr failed;
           record_event !task attempt (Crashed frac) (frac *. per_task_s);
           if attempt >= t.max_attempts then
             exhausted := Some (!task, attempt)
           else run_attempt (attempt + 1)
         | Straggle ->
           if t.speculation then begin
             (* The speculative copy finishes in normal time; the
                straggling original is killed after occupying its slot
                for that long. *)
             incr speculative;
             incr killed;
             record_event !task attempt Speculated per_task_s
           end
           else
             record_event !task attempt Straggled
               ((t.straggler_slowdown -. 1.0) *. per_task_s)
         | Healthy -> ()
       in
       run_attempt 1;
       incr task
     done);
    {
      elapsed_s = base_s +. (!wasted /. float_of_int slots);
      attempts_failed = !failed;
      speculative_launched = !speculative;
      attempts_killed = !killed;
      events = List.rev !events;
      exhausted = !exhausted;
    }
  end

let parse_spec =
  Spec.parse ~flag:"--faults" ~check:create
    [
      ("seed", Spec.int (fun c v -> { c with seed = v }));
      ("task-fail", Spec.float (fun c v -> { c with task_fail_p = v }));
      ("straggler", Spec.float (fun c v -> { c with straggler_p = v }));
      ("slowdown", Spec.float (fun c v -> { c with straggler_slowdown = v }));
      ("max-attempts", Spec.int (fun c v -> { c with max_attempts = v }));
      ( "speculation",
        Spec.choice ~expects:"on or off"
          [ ("on", true); ("off", false) ]
          (fun c v -> { c with speculation = v }) );
      ("job-retries", Spec.int (fun c v -> { c with job_retries = v }));
      ("backoff", Spec.float (fun c v -> { c with retry_backoff_s = v }));
      ( "phase",
        Spec.choice ~expects:"map, reduce, or all"
          [ ("map", Some Map); ("reduce", Some Reduce); ("all", None) ]
          (fun c v -> { c with target = v }) );
      ("poison", Spec.float (fun c v -> { c with poison_p = v }));
      ("skip-max", Spec.int (fun c v -> { c with skip_max_records = v }));
    ]
    default

let pp ppf t =
  Fmt.pf ppf
    "faults(seed=%d task-fail=%g straggler=%g slowdown=%gx max-attempts=%d \
     speculation=%s job-retries=%d backoff=%gs phase=%s poison=%g \
     skip-max=%d)"
    t.seed t.task_fail_p t.straggler_p t.straggler_slowdown t.max_attempts
    (if t.speculation then "on" else "off")
    t.job_retries t.retry_backoff_s
    (match t.target with None -> "all" | Some p -> phase_name p)
    t.poison_p t.skip_max_records
