type ('a, 'k, 'v, 'b) spec = {
  name : string;
  map : 'a -> ('k * 'v) list;
  combine : ('k -> 'v list -> 'v list) option;
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

type failure = {
  f_job : string;
  f_phase : Fault_injector.phase;
  f_task : int;
  f_attempts : int;
  f_attempts_failed : int;
  f_speculative_launched : int;
  f_attempts_killed : int;
  f_reason : string;
  f_elapsed_s : float;
  f_deterministic : bool;
}

exception Job_failed of failure

let pp_failure ppf f =
  Fmt.pf ppf "job %S: %s task %d failed %d attempt%s: %s" f.f_job
    (Fault_injector.phase_name f.f_phase)
    f.f_task f.f_attempts
    (if f.f_attempts = 1 then "" else "s")
    f.f_reason

(* A grouping table (a task's combiner, a job's shuffle): chained
   buckets that keep each key's hash, so that growing relinks entries
   without hashing a key again. Keys are equal when [compare k k' = 0],
   Stdlib.Hashtbl's own equality. Each entry also links to the key first
   seen before it, so that walking from [newest] yields the groups in
   the order job.mli states: the key first seen last leads. Values are
   held newest first. *)
type ('k, 'v) entry =
  | Nil
  | Entry of {
      hash : int;
      key : 'k;
      mutable rev_values : 'v list;
      mutable next : ('k, 'v) entry;  (* the bucket's chain *)
      older : ('k, 'v) entry;
    }

type ('k, 'v) groups = {
  mutable buckets : ('k, 'v) entry array;  (* a power of two long *)
  mutable count : int;
  mutable newest : ('k, 'v) entry;
}

let groups_create () = { buckets = Array.make 16 Nil; count = 0; newest = Nil }

let groups_grow g =
  let size = 2 * Array.length g.buckets in
  let buckets = Array.make size Nil in
  let rec relink = function
    | Nil -> ()
    | Entry e as entry ->
      let next = e.next in
      let i = e.hash land (size - 1) in
      e.next <- buckets.(i);
      buckets.(i) <- entry;
      relink next
  in
  Array.iter relink g.buckets;
  g.buckets <- buckets

(* The entry of key [k], whose hash is [hash], in a bucket's chain; a
   top-level function, so that a lookup allocates no closure. *)
let rec groups_find hash k = function
  | Entry e as entry when e.hash = hash && compare e.key k = 0 -> entry
  | Entry e -> groups_find hash k e.next
  | Nil -> Nil

let groups_add g k v =
  let hash = Hashtbl.hash k in
  let i = hash land (Array.length g.buckets - 1) in
  match groups_find hash k g.buckets.(i) with
  | Entry e -> e.rev_values <- v :: e.rev_values
  | Nil ->
    let entry =
      Entry
        {
          hash;
          key = k;
          rev_values = [ v ];
          next = g.buckets.(i);
          older = g.newest;
        }
    in
    g.buckets.(i) <- entry;
    g.newest <- entry;
    g.count <- g.count + 1;
    if g.count > 2 * Array.length g.buckets then groups_grow g

(* The groups in order, each with its values in arrival order. *)
let groups_to_list g =
  let[@tail_mod_cons] rec go = function
    | Nil -> []
    | Entry e -> (e.key, List.rev e.rev_values) :: go e.older
  in
  go g.newest

let estimate_map_tasks cluster ~input_bytes =
  let splits =
    (input_bytes + cluster.Cluster.block_size_bytes - 1)
    / cluster.Cluster.block_size_bytes
  in
  max 1 splits

(* Partition the input into [n] map tasks of roughly equal record count.
   Hadoop splits by bytes; equal record counts are a fair stand-in since
   our records within one job are homogeneous. *)
let partition_input input n =
  let n = max 1 n in
  let len = List.length input in
  let per = max 1 ((len + n - 1) / n) in
  (* Each task but the last gets a copy of its [per] cells; the last
     shares the input's own tail, so a one-task job copies nothing. *)
  let rest = ref [] in
  let[@tail_mod_cons] rec take k = function
    | x :: tl when k > 0 -> x :: take (k - 1) tl
    | l ->
      rest := l;
      []
  in
  let rec go l remaining =
    if remaining <= per then [ l ]
    else
      let chunk = take per l in
      chunk :: go !rest (remaining - per)
  in
  go input len

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let parallel_throughput ~per_node_mb_s ~tasks ~slots =
  let effective = min tasks slots in
  per_node_mb_s *. float_of_int (max 1 effective)

let fate_label = function
  | Fault_injector.Crashed _ -> "crashed"
  | Fault_injector.Speculated -> "speculated"
  | Fault_injector.Straggled -> "straggled"
  | Fault_injector.Oom_killed -> "oom"
  | Fault_injector.Poisoned -> "poison"

(* Slot-seconds of re-work in [events], spread over [slots] task slots. *)
let wasted_s ~slots events =
  List.fold_left
    (fun acc (ev : Fault_injector.attempt_event) ->
      acc +. ev.Fault_injector.ev_wasted_s)
    0.0 events
  /. float_of_int slots

(* A task burned [attempts] attempts, so the job is lost; the failed
   submission consumed [elapsed_s], crashed [attempts_failed] attempts
   in all, and raced [speculative_launched] speculative attempts, of
   which [attempts_killed] lost. *)
let fail ~job ~phase ~task ~attempts ~attempts_failed
    ?(speculative_launched = 0) ?(attempts_killed = 0) ~elapsed_s
    ~deterministic reason =
  raise
    (Job_failed
       {
         f_job = job;
         f_phase = phase;
         f_task = task;
         f_attempts = attempts;
         f_attempts_failed = attempts_failed;
         f_speculative_launched = speculative_launched;
         f_attempts_killed = attempts_killed;
         f_reason = reason;
         f_elapsed_s = elapsed_s;
         f_deterministic = deterministic;
       })

(* A deterministic failure (a user function that throws, poison beyond
   the skip tolerance) crashes every attempt of its task the same way,
   and recurs on every resubmission. *)
let fail_every_attempt inj ~job ~phase ~task ~elapsed_s reason =
  let attempts = (Fault_injector.config inj).Fault_injector.max_attempts in
  fail ~job ~phase ~task ~attempts ~attempts_failed:attempts
    ~elapsed_s ~deterministic:true reason

(* Run user code [f x] in task [task]. A user function that throws
   becomes a structured task failure, never an escaping exception: the
   input is deterministic, so the job is lost (Hadoop semantics for a
   buggy job), charged [elapsed_s]. *)
let guard ctx ~job ~phase ~task ~elapsed_s f x =
  try f x with
  | Job_failed _ as e -> raise e
  | exn ->
    fail_every_attempt (Exec_ctx.faults ctx) ~job ~phase ~task ~elapsed_s
      (Printexc.to_string exn)

(* Run [f i item] once per item (a map task's split, a reduce group), in
   order, under [guard], concatenating the outputs. Item [i] runs in
   task [task_of i]. *)
let run_tasks ctx ~job ~phase ~task_of ~elapsed_s f items =
  List.concat
    (List.mapi
       (fun i item ->
         guard ctx ~job ~phase ~task:(task_of i) ~elapsed_s (f i) item)
       items)

(* Run [f], a step after the map phase whose simulation is [map_sim]. A
   submission that [f] loses also lost the map phase's crashed,
   speculative and killed attempts: add them to the failure's. *)
let after_map (map_sim : Fault_injector.phase_sim) f =
  try f ()
  with Job_failed e ->
    raise
      (Job_failed
         {
           e with
           f_attempts_failed = e.f_attempts_failed + map_sim.attempts_failed;
           f_speculative_launched =
             e.f_speculative_launched + map_sim.speculative_launched;
           f_attempts_killed = e.f_attempts_killed + map_sim.attempts_killed;
         })

(* Injected faults for one phase whose fault-free run takes [base_s]:
   retried and speculative attempts re-do real work on the same slots. A
   task that exhausts its attempts fails the job, charged [before_s] (the
   seconds the job spent before this phase) plus the phase's own. *)
let simulate_phase ctx ~job ~attempt ~phase ~tasks ~slots ~before_s base_s =
  let sim =
    Fault_injector.simulate_phase (Exec_ctx.faults ctx) ~job
      ~job_attempt:attempt ~phase ~tasks ~slots ~base_s
  in
  (match sim.Fault_injector.exhausted with
  | Some (task, attempts) ->
    fail ~job ~phase ~task ~attempts
      ~attempts_failed:sim.Fault_injector.attempts_failed
      ~speculative_launched:sim.Fault_injector.speculative_launched
      ~attempts_killed:sim.Fault_injector.attempts_killed
      ~elapsed_s:(before_s +. sim.Fault_injector.elapsed_s)
      ~deterministic:false "injected task-attempt crashes exhausted retries"
  | None -> ());
  sim

(* The input split both job kinds share. Map tasks are launched per
   stored (possibly compressed) split, but each task processes the
   uncompressed records: compression reduces parallelism, not work — the
   paper's observed ORC effect. [map_slots] is the slots the tasks
   occupy, [throughput] their parallel disk rate and [read_s] the
   fault-free read of the whole input. *)
type 'a split = {
  input_records : int;
  input_bytes : int;
  map_tasks : int;
  map_slots : int;
  task_inputs : 'a list list;
  throughput : float;
  read_s : float;
}

let split cluster input_size input =
  let input_bytes = List.fold_left (fun acc r -> acc + input_size r) 0 input in
  let stored_bytes =
    int_of_float (float_of_int input_bytes *. cluster.Cluster.compression_ratio)
  in
  let map_tasks = estimate_map_tasks cluster ~input_bytes:stored_bytes in
  let throughput =
    parallel_throughput ~per_node_mb_s:cluster.Cluster.disk_mb_per_s
      ~tasks:map_tasks ~slots:(Cluster.map_slots cluster)
  in
  {
    input_records = List.length input;
    input_bytes;
    map_tasks;
    map_slots = max 1 (min map_tasks (Cluster.map_slots cluster));
    task_inputs = partition_input input map_tasks;
    throughput;
    read_s = mb input_bytes /. throughput;
  }

(* Work conservation, as in [Fault_injector.simulate_phase]: one map
   task's share of [phase_s], in serial slot-seconds. *)
let task_slot_s sp phase_s =
  phase_s *. float_of_int sp.map_slots /. float_of_int sp.map_tasks

(* Hadoop bad-record skip mode (SkipBadRecords). A poison record crashes
   its map task at the same point on every attempt, so after
   [max_attempts] identical crashes the task reruns in skip mode,
   bisecting its input range to isolate the record — each probe reruns
   half the previous probe's work — then skips it and completes. All of
   it is priced in slot-seconds on the map slots. The real computation
   is untouched: an injected poison record is a simulated fate, exactly
   like an injected crash, so skipping it never changes the answer.
   Poison beyond the skip tolerance fails the job, charged [before_s]
   plus the skip work. Returns the events, the skipped records and the
   skip seconds. *)
let skip_mode ctx ~job sp ~per_task_slot_s ~before_s =
  let inj = Exec_ctx.faults ctx in
  if not (Fault_injector.poison_active inj) then ([], 0, 0.0)
  else begin
    let cfg = Fault_injector.config inj in
    let events = ref [] in
    let skipped = ref 0 in
    let first_poisoned_task = ref None in
    let base = ref 0 in
    List.iteri
      (fun task task_input ->
        let len = List.length task_input in
        List.iteri
          (fun i _ ->
            if Fault_injector.poisoned inj ~job ~record:(!base + i) then begin
              if !first_poisoned_task = None then
                first_poisoned_task := Some task;
              incr skipped;
              (* The record's position in the task decides how much work
                 each crashed attempt completes before dying. *)
              let frac = float_of_int (i + 1) /. float_of_int (max 1 len) in
              for a = 1 to cfg.Fault_injector.max_attempts do
                events :=
                  {
                    Fault_injector.ev_task = task;
                    ev_attempt = a;
                    ev_fate = Fault_injector.Poisoned;
                    ev_wasted_s = frac *. per_task_slot_s;
                  }
                  :: !events
              done;
              let probe_s = ref (per_task_slot_s /. 2.0) in
              let candidates = ref len in
              let a = ref cfg.Fault_injector.max_attempts in
              while !candidates > 1 do
                incr a;
                events :=
                  {
                    Fault_injector.ev_task = task;
                    ev_attempt = !a;
                    ev_fate = Fault_injector.Poisoned;
                    ev_wasted_s = !probe_s;
                  }
                  :: !events;
                probe_s := !probe_s /. 2.0;
                candidates := (!candidates + 1) / 2
              done
            end)
          task_input;
        base := !base + len)
      sp.task_inputs;
    let events = List.rev !events in
    let skipped = !skipped in
    let skip_s = wasted_s ~slots:sp.map_slots events in
    (match !first_poisoned_task with
    | Some task when skipped > cfg.Fault_injector.skip_max_records ->
      fail_every_attempt inj ~job ~phase:Fault_injector.Map ~task
        ~elapsed_s:(before_s +. skip_s)
        (Printf.sprintf
           "%d poison record%s exceed%s the skip tolerance (skip-max=%d)"
           skipped
           (if skipped = 1 then "" else "s")
           (if skipped = 1 then "s" else "")
           cfg.Fault_injector.skip_max_records)
    | _ -> ());
    (events, skipped, skip_s)
  end

(* The map side's faults for a map phase whose fault-free run takes
   [phase_s]: injected attempt faults, then skip mode. *)
let map_faults ctx ~job ~attempt ~startup_s sp phase_s =
  let sim =
    simulate_phase ctx ~job ~attempt ~phase:Fault_injector.Map
      ~tasks:sp.map_tasks
      ~slots:(Cluster.map_slots (Exec_ctx.cluster ctx))
      ~before_s:startup_s phase_s
  in
  let skip =
    after_map sim (fun () ->
        skip_mode ctx ~job sp
          ~per_task_slot_s:(task_slot_s sp phase_s)
          ~before_s:(startup_s +. sim.Fault_injector.elapsed_s))
  in
  (sim, skip)

(* Record the job's spans into the context's trace: per-phase spans on
   the simulated clock, then one span per non-healthy attempt of each
   [(phase, offset_s, events)], laid at the phase's start offset, then
   the clock advance. *)
let record ctx (stats : Stats.job) ~phase_spans ~attempts =
  let trace = Exec_ctx.trace ctx in
  let t0 = Trace.now_s trace in
  Trace.span trace ~name:stats.Stats.name ~cat:"job" ~start_s:t0
    ~dur_s:stats.Stats.est_time_s
    [
      ("map_tasks", Json.Int stats.Stats.map_tasks);
      ("reduce_tasks", Json.Int stats.Stats.reduce_tasks);
      ("input_bytes", Json.Int stats.Stats.input_bytes);
      ("shuffle_bytes", Json.Int stats.Stats.shuffle_bytes);
      ("output_bytes", Json.Int stats.Stats.output_bytes);
    ];
  let _ =
    List.fold_left
      (fun at (phase, dur_s, args) ->
        Trace.span trace
          ~name:(stats.Stats.name ^ "/" ^ phase)
          ~cat:"phase" ~start_s:at ~dur_s
          (("phase", Json.String phase) :: args);
        at +. dur_s)
      t0 phase_spans
  in
  List.iter
    (fun (phase, offset_s, events) ->
      List.iter
        (fun (ev : Fault_injector.attempt_event) ->
          let fate = fate_label ev.Fault_injector.ev_fate in
          Trace.span trace
            ~name:
              (Printf.sprintf "%s/%s.t%d.a%d:%s" stats.Stats.name
                 (Fault_injector.phase_name phase)
                 ev.Fault_injector.ev_task ev.Fault_injector.ev_attempt fate)
            ~cat:"attempt" ~start_s:(t0 +. offset_s)
            ~dur_s:ev.Fault_injector.ev_wasted_s
            [
              ("task", Json.Int ev.Fault_injector.ev_task);
              ("attempt", Json.Int ev.Fault_injector.ev_attempt);
              ("fate", Json.String fate);
            ])
        events)
    attempts;
  Trace.advance trace stats.Stats.est_time_s

let run ?(attempt = 0) ctx spec input =
  let cluster = Exec_ctx.cluster ctx in
  let startup_s = cluster.Cluster.job_startup_s in
  let sp = split cluster spec.input_size input in
  (* Map phase, with an optional per-task combiner under the cluster's
     memory budget. Each task's pre-combine working set (the combiner
     hash table) is estimated from the pair size estimators; a task whose
     estimate exceeds the container heap is OOM-killed
     [Memory.oom_attempts] times and then rerun with its combiner
     disabled — degraded (bigger shuffle) but completing, and because the
     combiner is merge-sound the results are unchanged. An OOM-killed
     attempt wastes a whole attempt's work — the JVM dies at the end of
     the fill, not proportionally to the heap it was granted (a smaller
     heap must never make the waste cheaper). A task's map output that
     overflows the sort buffer prices external-sort spill passes. *)
  let memcfg = Cluster.memory cluster in
  let spill_budget = Memory.spill_budget memcfg in
  let max_attempts =
    (Fault_injector.config (Exec_ctx.faults ctx)).Fault_injector.max_attempts
  in
  let per_task_map_slot_s = task_slot_s sp sp.read_s in
  let combine_input = ref 0 in
  let oom_events = ref [] in
  let map_spilled_bytes = ref 0 in
  let map_spill_passes = ref 0 in
  let shuffle_records = ref 0 in
  let shuffle_bytes = ref 0 in
  (* Each map task streams its output, or its combiner's, straight into
     the job's one shuffle table, counting records and bytes as it
     goes. *)
  let shuffle = groups_create () in
  let map_task task task_input =
    let records = ref 0 in
    let bytes = ref 0 in
    let emit g k v =
      incr records;
      bytes := !bytes + spec.key_size k + spec.value_size v + 12;
      groups_add g k v
    in
    (match spec.combine with
    | None ->
      List.iter
        (fun r -> List.iter (fun (k, v) -> emit shuffle k v) (spec.map r))
        task_input;
      combine_input := !combine_input + !records
    | Some combine ->
      (* The map output is kept for a task whose combiner is disabled. *)
      let emitted = List.map spec.map task_input in
      let local = groups_create () in
      List.iter (List.iter (fun (k, v) -> emit local k v)) emitted;
      combine_input := !combine_input + !records;
      let over_heap = !bytes > memcfg.Memory.task_heap_bytes in
      records := 0;
      bytes := 0;
      if over_heap then begin
        for a = 1 to Memory.oom_attempts ~max_attempts do
          oom_events :=
            {
              Fault_injector.ev_task = task;
              ev_attempt = a;
              ev_fate = Fault_injector.Oom_killed;
              ev_wasted_s = per_task_map_slot_s;
            }
            :: !oom_events
        done;
        List.iter (List.iter (fun (k, v) -> emit shuffle k v)) emitted
      end
      else
        List.iter
          (fun (k, vs) -> List.iter (emit shuffle k) (combine k vs))
          (groups_to_list local));
    shuffle_records := !shuffle_records + !records;
    shuffle_bytes := !shuffle_bytes + !bytes;
    let passes =
      Memory.spill_passes ~budget_bytes:spill_budget ~data_bytes:!bytes
    in
    if passes > 0 then begin
      map_spilled_bytes := !map_spilled_bytes + (passes * !bytes);
      map_spill_passes := !map_spill_passes + passes
    end
  in
  List.iteri
    (fun task ->
      guard ctx ~job:spec.name ~phase:Fault_injector.Map ~task
        ~elapsed_s:(startup_s +. sp.read_s) (map_task task))
    sp.task_inputs;
  let oom_events = List.rev !oom_events in
  let oom_kills = List.length oom_events in
  let oom_s = wasted_s ~slots:sp.map_slots oom_events in
  let map_spill_s = 2.0 *. mb !map_spilled_bytes /. sp.throughput in
  let map_sim, (skip_events, skipped_records, skip_s) =
    map_faults ctx ~job:spec.name ~attempt ~startup_s sp sp.read_s
  in
  (* Skip-mode re-work lands in the map phase (a zero [skip_s] keeps the
     float bit-identical, like the spill terms). *)
  let map_fault_s = map_sim.Fault_injector.elapsed_s +. skip_s in
  let map_pressure_s = oom_s +. map_spill_s in
  (* The reduce side starts, and a reduce-side failure is charged from,
     the end of the map side: its faults, skips, OOM kills and spills. *)
  let map_end_s = startup_s +. map_fault_s +. map_pressure_s in
  let shuffle_records = !shuffle_records in
  let shuffle_bytes = !shuffle_bytes in
  (* Shuffle + reduce. *)
  let reduce_groups = shuffle.count in
  let reduce_tasks =
    min (max 1 reduce_groups) (Cluster.reduce_slots cluster)
  in
  let reduce_throughput ~per_node_mb_s =
    parallel_throughput ~per_node_mb_s ~tasks:reduce_tasks
      ~slots:(Cluster.reduce_slots cluster)
  in
  let shuffle_net_s =
    mb shuffle_bytes
    /. reduce_throughput ~per_node_mb_s:cluster.Cluster.network_mb_per_s
  in
  let shuffle_sort_s =
    mb shuffle_bytes
    /. reduce_throughput ~per_node_mb_s:cluster.Cluster.sort_mb_per_s
  in
  let output =
    after_map map_sim (fun () ->
        run_tasks ctx ~job:spec.name ~phase:Fault_injector.Reduce
          ~task_of:(fun group -> group mod reduce_tasks)
          ~elapsed_s:(map_end_s +. shuffle_net_s +. shuffle_sort_s)
          (fun _ (k, vs) -> spec.reduce k vs)
          (groups_to_list shuffle))
  in
  let output_records = List.length output in
  let output_bytes =
    List.fold_left (fun acc r -> acc + spec.output_size r) 0 output
  in
  let reduce_write_s =
    mb output_bytes
    /. reduce_throughput ~per_node_mb_s:cluster.Cluster.disk_mb_per_s
  in
  (* Injected reduce faults: a crashed reduce attempt redoes its fetch,
     sort, and write, so the whole reduce-side phase is simulated as one
     unit and its re-work is spread over the sub-phases. *)
  let reduce_base_s = shuffle_net_s +. shuffle_sort_s +. reduce_write_s in
  let red_sim =
    after_map map_sim (fun () ->
        simulate_phase ctx ~job:spec.name ~attempt
          ~phase:Fault_injector.Reduce ~tasks:reduce_tasks
          ~slots:(Cluster.reduce_slots cluster) ~before_s:map_end_s
          reduce_base_s)
  in
  let rfactor =
    if reduce_base_s > 0.0 then
      red_sim.Fault_injector.elapsed_s /. reduce_base_s
    else 1.0
  in
  (* Reduce-side merge under the same sort-buffer budget: each reduce
     task merges its share of the shuffle; a share that overflows the
     buffer pays external-sort passes on local disk. *)
  let reduce_share_bytes = shuffle_bytes / max 1 reduce_tasks in
  let reduce_task_passes =
    Memory.spill_passes ~budget_bytes:spill_budget
      ~data_bytes:reduce_share_bytes
  in
  let reduce_spilled_bytes = reduce_task_passes * shuffle_bytes in
  let reduce_spill_passes = reduce_task_passes * reduce_tasks in
  let merge_spill_s =
    2.0 *. mb reduce_spilled_bytes
    /. reduce_throughput ~per_node_mb_s:cluster.Cluster.disk_mb_per_s
  in
  let shuffle_net_fault_s = shuffle_net_s *. rfactor in
  let shuffle_sort_fault_s = shuffle_sort_s *. rfactor in
  let reduce_write_fault_s = reduce_write_s *. rfactor in
  let shuffle_fault_s = shuffle_net_fault_s +. shuffle_sort_fault_s in
  let spill_s = map_pressure_s +. merge_spill_s in
  (* Grouped as [startup + (map + shuffle + reduce)] so that a zero
     spill term leaves the float result bit-identical to a simulator
     with no memory model. *)
  let est_time_s =
    startup_s
    +. (map_fault_s +. shuffle_fault_s +. reduce_write_fault_s)
    +. spill_s
  in
  let combine_input_records = !combine_input in
  let combine_output_records = shuffle_records in
  let breakdown : Stats.breakdown =
    {
      startup_s;
      map_s = map_fault_s;
      shuffle_s = shuffle_net_fault_s;
      sort_s = shuffle_sort_fault_s;
      reduce_s = reduce_write_fault_s;
      spill_s;
    }
  in
  let stats : Stats.job =
    {
      name = spec.name;
      kind = Stats.Map_reduce;
      input_records = sp.input_records;
      input_bytes = sp.input_bytes;
      shuffle_records;
      shuffle_bytes;
      output_records;
      output_bytes;
      map_tasks = sp.map_tasks;
      reduce_tasks;
      est_time_s;
      breakdown;
      combine_input_records;
      combine_output_records;
      reduce_groups;
      attempts_failed =
        map_sim.Fault_injector.attempts_failed
        + red_sim.Fault_injector.attempts_failed;
      speculative_launched =
        map_sim.Fault_injector.speculative_launched
        + red_sim.Fault_injector.speculative_launched;
      attempts_killed =
        map_sim.Fault_injector.attempts_killed
        + red_sim.Fault_injector.attempts_killed;
      spilled_bytes = !map_spilled_bytes + reduce_spilled_bytes;
      spill_passes = !map_spill_passes + reduce_spill_passes;
      oom_kills;
      skipped_records;
    }
  in
  let combine_span =
    match spec.combine with
    | None -> []
    | Some _ ->
      [
        ( "combine",
          0.0,
          [
            ("input_records", Json.Int combine_input_records);
            ("output_records", Json.Int combine_output_records);
          ] );
      ]
  in
  (* Spill spans appear only under memory pressure, so the default
     (generous) budget leaves the phase list — and its tiling of the job
     span — exactly as before. *)
  let spill_span =
    if map_pressure_s > 0.0 then
      [
        ( "spill",
          map_pressure_s,
          [
            ("spilled_bytes", Json.Int !map_spilled_bytes);
            ("spill_passes", Json.Int !map_spill_passes);
            ("oom_kills", Json.Int oom_kills);
          ] );
      ]
    else []
  in
  let merge_spill_span =
    if merge_spill_s > 0.0 then
      [
        ( "merge-spill",
          merge_spill_s,
          [
            ("spilled_bytes", Json.Int reduce_spilled_bytes);
            ("spill_passes", Json.Int reduce_spill_passes);
          ] );
      ]
    else []
  in
  record ctx stats
    ~phase_spans:
      ([
         ("startup", startup_s, []);
         ( "map-read",
           map_fault_s,
           [ ("input_records", Json.Int sp.input_records) ] );
       ]
      @ combine_span @ spill_span
      @ [
          ( "shuffle",
            shuffle_net_fault_s,
            [ ("shuffle_records", Json.Int shuffle_records) ] );
          ("sort", shuffle_sort_fault_s, []);
          ( "reduce-write",
            reduce_write_fault_s,
            [
              ("groups", Json.Int reduce_groups);
              ("output_records", Json.Int output_records);
            ] );
        ]
      @ merge_spill_span)
    ~attempts:
      [
        ( Fault_injector.Map,
          startup_s,
          oom_events @ map_sim.Fault_injector.events @ skip_events );
        (Fault_injector.Reduce, map_end_s, red_sim.Fault_injector.events);
      ];
  (output, stats)

let run_map_only ?(attempt = 0) ctx spec input =
  let startup_s = (Exec_ctx.cluster ctx).Cluster.map_only_startup_s in
  let sp = split (Exec_ctx.cluster ctx) spec.mo_input_size input in
  let output =
    run_tasks ctx ~job:spec.mo_name ~phase:Fault_injector.Map ~task_of:Fun.id
      ~elapsed_s:(startup_s +. sp.read_s)
      (fun _ -> List.concat_map spec.mo_map)
      sp.task_inputs
  in
  let output_records = List.length output in
  let output_bytes =
    List.fold_left (fun acc r -> acc + spec.mo_output_size r) 0 output
  in
  (* The map tasks read their input and write their output: one phase. *)
  let io_s = (mb sp.input_bytes +. mb output_bytes) /. sp.throughput in
  let sim, (skip_events, skipped_records, skip_s) =
    map_faults ctx ~job:spec.mo_name ~attempt ~startup_s sp io_s
  in
  let mfactor =
    if io_s > 0.0 then sim.Fault_injector.elapsed_s /. io_s else 1.0
  in
  let map_s = sim.Fault_injector.elapsed_s +. skip_s in
  let stats : Stats.job =
    {
      name = spec.mo_name;
      kind = Stats.Map_only;
      input_records = sp.input_records;
      input_bytes = sp.input_bytes;
      shuffle_records = 0;
      shuffle_bytes = 0;
      output_records;
      output_bytes;
      map_tasks = sp.map_tasks;
      reduce_tasks = 0;
      est_time_s = startup_s +. map_s;
      breakdown = { Stats.breakdown_zero with startup_s; map_s };
      combine_input_records = 0;
      combine_output_records = 0;
      reduce_groups = 0;
      attempts_failed = sim.Fault_injector.attempts_failed;
      speculative_launched = sim.Fault_injector.speculative_launched;
      attempts_killed = sim.Fault_injector.attempts_killed;
      spilled_bytes = 0;
      spill_passes = 0;
      oom_kills = 0;
      skipped_records;
    }
  in
  (* The skip span keeps the phase list tiling the job span; it appears
     only when skip mode actually fired. *)
  let skip_span =
    if skip_s > 0.0 then
      [ ("skip", skip_s, [ ("skipped_records", Json.Int skipped_records) ]) ]
    else []
  in
  record ctx stats
    ~phase_spans:
      ([
         ("startup", startup_s, []);
         ( "map-read",
           sp.read_s *. mfactor,
           [ ("input_records", Json.Int sp.input_records) ] );
         ( "map-write",
           mb output_bytes /. sp.throughput *. mfactor,
           [ ("output_records", Json.Int output_records) ] );
       ]
      @ skip_span)
    ~attempts:
      [
        ( Fault_injector.Map,
          startup_s,
          sim.Fault_injector.events @ skip_events );
      ];
  (output, stats)
