type job_kind = Map_reduce | Map_only

type breakdown = {
  startup_s : float;
  map_s : float;
  shuffle_s : float;
  sort_s : float;
  reduce_s : float;
  spill_s : float;
}

let breakdown_zero =
  {
    startup_s = 0.0;
    map_s = 0.0;
    shuffle_s = 0.0;
    sort_s = 0.0;
    reduce_s = 0.0;
    spill_s = 0.0;
  }

let breakdown_add a b =
  {
    startup_s = a.startup_s +. b.startup_s;
    map_s = a.map_s +. b.map_s;
    shuffle_s = a.shuffle_s +. b.shuffle_s;
    sort_s = a.sort_s +. b.sort_s;
    reduce_s = a.reduce_s +. b.reduce_s;
    spill_s = a.spill_s +. b.spill_s;
  }

let breakdown_total_s b =
  b.startup_s +. b.map_s +. b.shuffle_s +. b.sort_s +. b.reduce_s +. b.spill_s

type job = {
  name : string;
  kind : job_kind;
  input_records : int;
  input_bytes : int;
  shuffle_records : int;
  shuffle_bytes : int;
  output_records : int;
  output_bytes : int;
  map_tasks : int;
  reduce_tasks : int;
  est_time_s : float;
  breakdown : breakdown;
  combine_input_records : int;
  combine_output_records : int;
  reduce_groups : int;
  attempts_failed : int;
  speculative_launched : int;
  attempts_killed : int;
  spilled_bytes : int;
  spill_passes : int;
  oom_kills : int;
  skipped_records : int;
}

type t = {
  jobs : job list;
  lost_s : float;
  lost_submissions : int;
  lost_attempts_failed : int;
  lost_speculative_launched : int;
  lost_attempts_killed : int;
  replayed_s : float;
  recoveries : int;
  recovered_jobs : int;
  checkpoint_s : float;
  checkpoints_written : int;
  checkpoint_bytes : int;
  mapjoin_fallbacks : int;
  agj_ht_bytes : int;
}

let empty =
  {
    jobs = [];
    lost_s = 0.0;
    lost_submissions = 0;
    lost_attempts_failed = 0;
    lost_speculative_launched = 0;
    lost_attempts_killed = 0;
    replayed_s = 0.0;
    recoveries = 0;
    recovered_jobs = 0;
    checkpoint_s = 0.0;
    checkpoints_written = 0;
    checkpoint_bytes = 0;
    mapjoin_fallbacks = 0;
    agj_ht_bytes = 0;
  }

let append t job = { t with jobs = t.jobs @ [ job ] }

let charge_lost t ~attempts_failed ~speculative_launched ~attempts_killed
    dt_s =
  {
    t with
    lost_s = t.lost_s +. dt_s;
    lost_submissions = t.lost_submissions + 1;
    lost_attempts_failed = t.lost_attempts_failed + attempts_failed;
    lost_speculative_launched =
      t.lost_speculative_launched + speculative_launched;
    lost_attempts_killed = t.lost_attempts_killed + attempts_killed;
  }

let charge_backoff t dt_s = { t with lost_s = t.lost_s +. dt_s }

let charge_replay t ~jobs dt_s =
  {
    t with
    replayed_s = t.replayed_s +. dt_s;
    recoveries = t.recoveries + 1;
    recovered_jobs = t.recovered_jobs + jobs;
  }

let charge_checkpoint t ~bytes dt_s =
  {
    t with
    checkpoint_s = t.checkpoint_s +. dt_s;
    checkpoints_written = t.checkpoints_written + 1;
    checkpoint_bytes = t.checkpoint_bytes + bytes;
  }

(* Slot demand: every map task and every reduce task of a cycle needs a
   slot, but the phases are sequential, so the cycle's peak concurrent
   need is the larger side. The startup-only degenerate case (no tasks)
   still occupies the scheduler, hence the floor of 1. *)
let job_slots j = max 1 (max j.map_tasks j.reduce_tasks)

let slot_seconds t =
  List.fold_left
    (fun acc j -> acc +. (float_of_int (job_slots j) *. j.est_time_s))
    0.0 t.jobs

let cycles t = List.length t.jobs

let map_only_cycles t =
  List.length (List.filter (fun j -> j.kind = Map_only) t.jobs)

let full_cycles t =
  List.length (List.filter (fun j -> j.kind = Map_reduce) t.jobs)

let sum f t = List.fold_left (fun acc j -> acc + f j) 0 t.jobs
let total_input_bytes = sum (fun j -> j.input_bytes)
let total_shuffle_bytes = sum (fun j -> j.shuffle_bytes)
let total_output_bytes = sum (fun j -> j.output_bytes)
let total_attempts_failed t =
  sum (fun j -> j.attempts_failed) t + t.lost_attempts_failed
let total_speculative_launched t =
  sum (fun j -> j.speculative_launched) t + t.lost_speculative_launched
let total_attempts_killed t =
  sum (fun j -> j.attempts_killed) t + t.lost_attempts_killed
let total_spilled_bytes = sum (fun j -> j.spilled_bytes)
let total_spill_passes = sum (fun j -> j.spill_passes)
let total_oom_kills = sum (fun j -> j.oom_kills)
let total_skipped_records = sum (fun j -> j.skipped_records)

let total_breakdown t =
  List.fold_left (fun acc j -> breakdown_add acc j.breakdown) breakdown_zero
    t.jobs

(* The recovery terms default to 0.0, and [x +. 0.0] is bit-identical
   to [x] for the non-negative finite times the model produces — so with
   checkpointing off this is exactly the pre-recovery total. *)
let est_time_s t =
  List.fold_left (fun acc j -> acc +. j.est_time_s) 0.0 t.jobs
  +. t.lost_s +. t.replayed_s +. t.checkpoint_s

let counters t =
  let total f = sum f t in
  let per_job =
    [
      ("mr.jobs", cycles t);
      ("mr.map_tasks", total (fun j -> j.map_tasks));
      ("mr.reduce_tasks", total (fun j -> j.reduce_tasks));
      ("mr.input_records", total (fun j -> j.input_records));
      ("mr.input_bytes", total_input_bytes t);
      ("mr.shuffle_records", total (fun j -> j.shuffle_records));
      ("mr.shuffle_bytes", total_shuffle_bytes t);
      ("mr.output_records", total (fun j -> j.output_records));
      ("mr.output_bytes", total_output_bytes t);
      ("mr.combine.input_records", total (fun j -> j.combine_input_records));
      ("mr.combine.output_records", total (fun j -> j.combine_output_records));
      ("mr.reduce.groups", total (fun j -> j.reduce_groups));
    ]
  in
  let checkpoints =
    [
      ("mr.checkpoints", t.checkpoints_written);
      ("mr.checkpoint_bytes", t.checkpoint_bytes);
    ]
  in
  let above_zero =
    [
      ("mr.map_only_jobs", map_only_cycles t);
      ("mr.attempts_failed", total_attempts_failed t);
      ("mr.speculative_launched", total_speculative_launched t);
      ("mr.attempts_killed", total_attempts_killed t);
      ("mr.spilled_bytes", total_spilled_bytes t);
      ("mr.spill_passes", total_spill_passes t);
      ("mr.oom_kills", total_oom_kills t);
      ("mr.skipped_records", total_skipped_records t);
      ("mr.jobs_failed", t.lost_submissions);
      ("mr.job_resubmissions", t.lost_submissions - t.recoveries);
      ("mr.recoveries", t.recoveries);
      ("mr.replayed_jobs", t.recovered_jobs);
      ("mem.mapjoin_fallbacks", t.mapjoin_fallbacks);
      ("mem.agj_ht_bytes", t.agj_ht_bytes);
    ]
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    ((if t.jobs = [] then [] else per_job)
    @ (if t.checkpoints_written = 0 then [] else checkpoints)
    @ List.filter (fun (_, v) -> v > 0) above_zero)

let kind_string = function Map_reduce -> "map-reduce" | Map_only -> "map-only"

let breakdown_to_json b =
  Json.Obj
    [
      ("startup_s", Json.Float b.startup_s);
      ("map_s", Json.Float b.map_s);
      ("shuffle_s", Json.Float b.shuffle_s);
      ("sort_s", Json.Float b.sort_s);
      ("reduce_s", Json.Float b.reduce_s);
      ("spill_s", Json.Float b.spill_s);
    ]

let job_to_json j =
  Json.Obj
    [
      ("name", Json.String j.name);
      ("kind", Json.String (kind_string j.kind));
      ("input_records", Json.Int j.input_records);
      ("input_bytes", Json.Int j.input_bytes);
      ("shuffle_records", Json.Int j.shuffle_records);
      ("shuffle_bytes", Json.Int j.shuffle_bytes);
      ("output_records", Json.Int j.output_records);
      ("output_bytes", Json.Int j.output_bytes);
      ("map_tasks", Json.Int j.map_tasks);
      ("reduce_tasks", Json.Int j.reduce_tasks);
      ("est_time_s", Json.Float j.est_time_s);
      ("phases", breakdown_to_json j.breakdown);
      ("combine_input_records", Json.Int j.combine_input_records);
      ("combine_output_records", Json.Int j.combine_output_records);
      ("reduce_groups", Json.Int j.reduce_groups);
      ("attempts_failed", Json.Int j.attempts_failed);
      ("speculative_launched", Json.Int j.speculative_launched);
      ("attempts_killed", Json.Int j.attempts_killed);
      ("spilled_bytes", Json.Int j.spilled_bytes);
      ("spill_passes", Json.Int j.spill_passes);
      ("oom_kills", Json.Int j.oom_kills);
      ("skipped_records", Json.Int j.skipped_records);
    ]

let to_json t =
  Json.Obj
    [
      ("cycles", Json.Int (cycles t));
      ("full_cycles", Json.Int (full_cycles t));
      ("map_only_cycles", Json.Int (map_only_cycles t));
      ("input_bytes", Json.Int (total_input_bytes t));
      ("shuffle_bytes", Json.Int (total_shuffle_bytes t));
      ("output_bytes", Json.Int (total_output_bytes t));
      ("est_time_s", Json.Float (est_time_s t));
      ("lost_s", Json.Float t.lost_s);
      ("attempts_failed", Json.Int (total_attempts_failed t));
      ("speculative_launched", Json.Int (total_speculative_launched t));
      ("attempts_killed", Json.Int (total_attempts_killed t));
      ("spilled_bytes", Json.Int (total_spilled_bytes t));
      ("spill_passes", Json.Int (total_spill_passes t));
      ("oom_kills", Json.Int (total_oom_kills t));
      ("skipped_records", Json.Int (total_skipped_records t));
      ("replayed_s", Json.Float t.replayed_s);
      ("recovered_jobs", Json.Int t.recovered_jobs);
      ("checkpoint_s", Json.Float t.checkpoint_s);
      ("checkpoints_written", Json.Int t.checkpoints_written);
      ("checkpoint_bytes", Json.Int t.checkpoint_bytes);
      ("phases", breakdown_to_json (total_breakdown t));
      ("jobs", Json.List (List.map job_to_json t.jobs));
    ]

let pp_kind ppf = function
  | Map_reduce -> Fmt.string ppf "MR"
  | Map_only -> Fmt.string ppf "M "

let pp_job ppf j =
  Fmt.pf ppf "%a %-28s in=%8dB shuf=%8dB out=%8dB maps=%2d reds=%2d t=%6.1fs"
    pp_kind j.kind j.name j.input_bytes j.shuffle_bytes j.output_bytes
    j.map_tasks j.reduce_tasks j.est_time_s

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_job) t.jobs

let pp_summary ppf t =
  Fmt.pf ppf "%d cycles (%d full MR, %d map-only), %d B shuffled, %.1f s"
    (cycles t) (full_cycles t) (map_only_cycles t) (total_shuffle_bytes t)
    (est_time_s t)
