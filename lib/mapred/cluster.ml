type t = {
  nodes : int;
  map_slots_per_node : int;
  reduce_slots_per_node : int;
  disk_mb_per_s : float;
  network_mb_per_s : float;
  job_startup_s : float;
  map_only_startup_s : float;
  block_size_bytes : int;
  sort_mb_per_s : float;
  compression_ratio : float;
  task_heap_bytes : int;
  sort_buffer_bytes : int;
  spill_threshold : float;
}

let default =
  {
    nodes = 10;
    map_slots_per_node = 2;
    reduce_slots_per_node = 2;
    disk_mb_per_s = 60.0;
    network_mb_per_s = 30.0;
    job_startup_s = 18.0;
    map_only_startup_s = 8.0;
    block_size_bytes = 128 * 1024 * 1024;
    sort_mb_per_s = 80.0;
    compression_ratio = 1.0;
    task_heap_bytes = Memory.default.Memory.task_heap_bytes;
    sort_buffer_bytes = Memory.default.Memory.sort_buffer_bytes;
    spill_threshold = Memory.default.Memory.spill_threshold;
  }

let scaled_down ~factor =
  {
    default with
    disk_mb_per_s = default.disk_mb_per_s /. factor;
    network_mb_per_s = default.network_mb_per_s /. factor;
    sort_mb_per_s = default.sort_mb_per_s /. factor;
    block_size_bytes = 32 * 1024;
  }

let memory c =
  {
    Memory.task_heap_bytes = c.task_heap_bytes;
    sort_buffer_bytes = c.sort_buffer_bytes;
    spill_threshold = c.spill_threshold;
  }

let with_memory c m =
  {
    c with
    task_heap_bytes = m.Memory.task_heap_bytes;
    sort_buffer_bytes = m.Memory.sort_buffer_bytes;
    spill_threshold = m.Memory.spill_threshold;
  }

let map_slots c = c.nodes * c.map_slots_per_node
let reduce_slots c = c.nodes * c.reduce_slots_per_node

let pp ppf c =
  Fmt.pf ppf "cluster(%d nodes, %d map slots, %d reduce slots)" c.nodes
    (map_slots c) (reduce_slots c)
