type planner = {
  map_join_threshold : int;
  hive_compression : float;
  ntga_combiner : bool;
  ntga_filter_pushdown : bool;
}

let default_planner =
  {
    map_join_threshold = 64 * 1024;
    hive_compression = 0.06;
    ntga_combiner = true;
    ntga_filter_pushdown = true;
  }

type t = {
  cluster : Cluster.t;
  planner : planner;
  faults : Fault_injector.t;
  checkpoint : Checkpoint.config;
  join_orders : (int * int list) list;
  trace : Trace.t;
}

let create ?(cluster = Cluster.default) ?(planner = default_planner)
    ?(faults = Fault_injector.create Fault_injector.default)
    ?(checkpoint = Checkpoint.default) ?(join_orders = []) () =
  {
    cluster;
    planner;
    faults;
    checkpoint = Checkpoint.create checkpoint;
    join_orders;
    trace = Trace.create ();
  }

let cluster t = t.cluster
let planner t = t.planner
let faults t = t.faults
let checkpoint t = t.checkpoint
let join_order t key = List.assoc_opt key t.join_orders
let trace t = t.trace
let with_cluster t cluster = { t with cluster }
