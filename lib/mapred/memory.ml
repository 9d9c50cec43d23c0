type config = {
  task_heap_bytes : int;
  sort_buffer_bytes : int;
  spill_threshold : float;
}

let default =
  {
    task_heap_bytes = 1024 * 1024 * 1024;
    sort_buffer_bytes = 256 * 1024 * 1024;
    spill_threshold = 0.8;
  }

let merge_factor = 10

let create cfg =
  if cfg.task_heap_bytes < 1 then
    invalid_arg "Memory.create: task_heap_bytes must be >= 1";
  if cfg.sort_buffer_bytes < 1 then
    invalid_arg "Memory.create: sort_buffer_bytes must be >= 1";
  if cfg.spill_threshold <= 0.0 || cfg.spill_threshold > 1.0 then
    invalid_arg "Memory.create: spill_threshold must be in (0, 1]";
  cfg

let spill_budget cfg =
  max 1
    (int_of_float (cfg.spill_threshold *. float_of_int cfg.sort_buffer_bytes))

let spill_passes ~budget_bytes ~data_bytes =
  let budget = max 1 budget_bytes in
  if data_bytes <= budget then 0
  else
    (* External sort: the buffer fills [runs] times producing sorted runs
       on local disk, then [merge_factor]-way merge passes reduce them to
       one — each pass re-reads and re-writes the whole dataset. *)
    let runs = (data_bytes + budget - 1) / budget in
    let rec merge passes runs =
      if runs <= 1 then passes
      else merge (passes + 1) ((runs + merge_factor - 1) / merge_factor)
    in
    merge 0 runs

let oom_attempts ~max_attempts = min 2 (max 0 (max_attempts - 1))

let parse_spec =
  Spec.parse ~flag:"--mem" ~check:create
    [
      ("heap", Spec.bytes (fun c v -> { c with task_heap_bytes = v }));
      ("sort-buffer", Spec.bytes (fun c v -> { c with sort_buffer_bytes = v }));
      ( "spill-threshold",
        Spec.float (fun c v -> { c with spill_threshold = v }) );
    ]
    default

let pp ppf cfg =
  Fmt.pf ppf "mem(heap=%a sort-buffer=%a spill-threshold=%g)" Spec.pp_bytes
    cfg.task_heap_bytes Spec.pp_bytes cfg.sort_buffer_bytes cfg.spill_threshold
