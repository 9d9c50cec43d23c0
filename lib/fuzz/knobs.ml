module Plan_util = Rapida_core.Plan_util
module Fault_injector = Rapida_mapred.Fault_injector
module Memory = Rapida_mapred.Memory
module Checkpoint = Rapida_mapred.Checkpoint
module Cluster = Rapida_mapred.Cluster
module Prng = Rapida_datagen.Prng
module Cost_model = Rapida_planner.Cost_model

type t = {
  k_label : string;
  k_options : Plan_util.options;
  k_optimize : Cost_model.policy option;
}

let gen_faults rng =
  if Prng.bool rng 0.5 then (Fault_injector.default, "healthy")
  else
    let seed = Prng.int rng 1000 in
    let cfg =
      {
        Fault_injector.default with
        seed;
        task_fail_p = Prng.pick rng [ 0.01; 0.03; 0.05 ];
        straggler_p = Prng.pick rng [ 0.0; 0.05; 0.1 ];
        max_attempts = 4;
        speculation = Prng.bool rng 0.7;
        job_retries = 2;
      }
    in
    (cfg, Printf.sprintf "faults(%d,%.2f)" seed cfg.task_fail_p)

let gen_memory rng =
  match Prng.int rng 4 with
  | 0 -> (Memory.default, "mem-default")
  | 1 ->
    ( Memory.create
        { task_heap_bytes = 4 lsl 20; sort_buffer_bytes = 1 lsl 20; spill_threshold = 0.8 },
      "mem-4m" )
  | 2 ->
    ( Memory.create
        { task_heap_bytes = 64 lsl 10; sort_buffer_bytes = 16 lsl 10; spill_threshold = 0.8 },
      "mem-64k" )
  | _ ->
    ( Memory.create
        { task_heap_bytes = 8 lsl 10; sort_buffer_bytes = 2 lsl 10; spill_threshold = 0.5 },
      "mem-8k" )

(* The cost-based planner is itself a knob: with any policy the chosen
   join orders may differ but the answer must not. *)
let gen_optimize rng =
  match Prng.int rng 4 with
  | 0 -> (None, "")
  | 1 -> (Some Cost_model.Mid, "/opt=mid")
  | 2 -> (Some Cost_model.Worst_case, "/opt=worst-case")
  | _ -> (Some Cost_model.Minimax_regret, "/opt=minimax-regret")

let gen_checkpoint rng =
  match Prng.int rng 4 with
  | 0 -> (Checkpoint.default, "ck-never")
  | 1 -> ({ Checkpoint.policy = Every_k 1; replication = 3 }, "ck-every1")
  | 2 -> ({ Checkpoint.policy = Every_k 2; replication = 2 }, "ck-every2")
  | _ -> ({ Checkpoint.policy = Adaptive (1 lsl 20); replication = 3 }, "ck-adaptive")

let generate rng ~n =
  List.init n (fun _ ->
      let faults, flabel = gen_faults rng in
      let memory, mlabel = gen_memory rng in
      let checkpoint, clabel = gen_checkpoint rng in
      let optimize, olabel = gen_optimize rng in
      let map_join_threshold = Prng.pick rng [ 0; 24 lsl 10; max_int ] in
      let ntga_combiner = Prng.bool rng 0.7 in
      let ntga_filter_pushdown = Prng.bool rng 0.7 in
      let hive_compression = Prng.pick rng [ 1.0; 0.2 ] in
      let cluster =
        Cluster.with_memory Plan_util.default_options.Plan_util.cluster memory
      in
      let options =
        Plan_util.make ~cluster ~map_join_threshold ~hive_compression
          ~ntga_combiner ~ntga_filter_pushdown ~faults ~checkpoint ()
      in
      let label =
        Printf.sprintf "%s/%s/%s/mjt=%s%s%s%s" flabel mlabel clabel
          (if map_join_threshold = max_int then "inf"
           else string_of_int map_join_threshold)
          (if ntga_combiner then "" else "/no-comb")
          (if ntga_filter_pushdown then "" else "/no-push")
          olabel
      in
      { k_label = label; k_options = options; k_optimize = optimize })
