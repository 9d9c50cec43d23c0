(** Cluster configuration for the MapReduce simulator.

    The parameters mirror the knobs that dominate Hadoop job latency on the
    clusters used in the paper (NCSU VCL, dual-core nodes, 128 MB blocks):
    a fixed per-job startup cost (job scheduling + JVM spin-up + the
    shuffle barrier), disk and network bandwidth, and slot-limited task
    parallelism. On such clusters the per-job startup is what makes the
    number of MR cycles the dominant term for analytical queries — the
    effect the paper's optimizations target. *)

type t = {
  nodes : int;
  map_slots_per_node : int;
  reduce_slots_per_node : int;
  disk_mb_per_s : float;  (** per-node sequential read/write bandwidth *)
  network_mb_per_s : float;  (** per-node shuffle bandwidth *)
  job_startup_s : float;  (** fixed cost of a full map-reduce cycle *)
  map_only_startup_s : float;  (** fixed cost of a map-only cycle *)
  block_size_bytes : int;  (** input split size; determines map tasks *)
  sort_mb_per_s : float;  (** CPU throughput of the shuffle sort *)
  compression_ratio : float;
      (** on-disk size multiplier for stored inputs (e.g. ORC ~ 0.15);
          1.0 = uncompressed *)
  task_heap_bytes : int;
      (** per-task container heap; see {!Memory.config.task_heap_bytes} *)
  sort_buffer_bytes : int;
      (** per-task in-memory sort buffer; see
          {!Memory.config.sort_buffer_bytes} *)
  spill_threshold : float;
      (** sort-buffer fill fraction that triggers a spill; see
          {!Memory.config.spill_threshold} *)
}

(** A 10-node VCL-like cluster, matching the paper's small setup. *)
val default : t

(** [scaled_down ~factor] divides the bandwidth parameters by [factor]
    while keeping the per-job startup costs, and sets a 32 KB block size
    appropriate for KB-to-MB datasets. Benchmarks use this to preserve
    the paper's data-to-infrastructure ratio: the paper ran ~43 GB
    datasets on the [default] cluster, this repo runs datasets ~10^5
    times smaller, so a factor near 1e5 makes the relative weight of job
    startup vs. data movement match the paper's regime. *)
val scaled_down : factor:float -> t

(** The cluster's per-task memory budget as a {!Memory.config}. The
    {!default} cluster carries {!Memory.default} — generous enough that
    nothing spills, keeping the cost model byte-identical to an
    unbounded simulator. *)
val memory : t -> Memory.config

(** [with_memory c m] is [c] with its memory knobs replaced by [m]
    (the CLI's [--mem SPEC] lands here). *)
val with_memory : t -> Memory.config -> t

(** Total map (resp. reduce) slots in the cluster. *)
val map_slots : t -> int

val reduce_slots : t -> int

val pp : t Fmt.t
