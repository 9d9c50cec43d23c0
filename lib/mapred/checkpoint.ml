type policy = Never | Every_k of int | Adaptive of int
type config = { policy : policy; replication : int }

let default = { policy = Never; replication = 3 }

let create cfg =
  (match cfg.policy with
  | Never -> ()
  | Every_k k ->
      if k < 1 then
        invalid_arg "Checkpoint.create: every-k interval must be >= 1"
  | Adaptive b ->
      if b < 1 then
        invalid_arg "Checkpoint.create: adaptive budget must be >= 1 byte");
  if cfg.replication < 1 then
    invalid_arg "Checkpoint.create: replication must be >= 1";
  cfg

let active cfg = cfg.policy <> Never

let parse_spec =
  Spec.parse ~flag:"--checkpoint"
    ~bare:[ ("never", fun c -> { c with policy = Never }) ]
    ~check:create
    [
      ("every", Spec.int (fun c k -> { c with policy = Every_k k }));
      ("adaptive", Spec.bytes (fun c b -> { c with policy = Adaptive b }));
      ("replication", Spec.int (fun c v -> { c with replication = v }));
    ]
    default

let pp_policy ppf = function
  | Never -> Fmt.string ppf "never"
  | Every_k k -> Fmt.pf ppf "every-%d" k
  | Adaptive b -> Fmt.pf ppf "adaptive-%a" Spec.pp_bytes b

let pp ppf cfg =
  Fmt.pf ppf "checkpoint(policy=%a replication=%d)" pp_policy cfg.policy
    cfg.replication

type decision = { ck_bytes : int; ck_cost_s : float }

type manager = {
  cfg : config;
  mutable pending_jobs : int;
  mutable pending_s : float;
  mutable pending_bytes : int;
}

let manager cfg =
  { cfg = create cfg; pending_jobs = 0; pending_s = 0.0; pending_bytes = 0 }

let config m = m.cfg

(* A checkpoint writes [replication] copies of the job's output at the
   cluster's disk bandwidth. The write is performed by the tasks that
   produced the output — the reduce tasks (map tasks for a map-only
   job) — so, by work conservation, the payload is spread over
   [min writers slots] concurrent writers, like every other phase. *)
let price cluster ~replication (job : Stats.job) =
  let writers, slots =
    match job.Stats.kind with
    | Stats.Map_reduce ->
        (max 1 job.Stats.reduce_tasks, Cluster.reduce_slots cluster)
    | Stats.Map_only -> (max 1 job.Stats.map_tasks, Cluster.map_slots cluster)
  in
  let eff_writers = max 1 (min writers slots) in
  let mb = float_of_int job.Stats.output_bytes /. (1024.0 *. 1024.0) in
  float_of_int replication *. mb
  /. (cluster.Cluster.disk_mb_per_s *. float_of_int eff_writers)

let note_success m ~cluster (job : Stats.job) =
  match m.cfg.policy with
  | Never -> None
  | policy ->
      m.pending_jobs <- m.pending_jobs + 1;
      m.pending_s <- m.pending_s +. job.Stats.est_time_s;
      m.pending_bytes <- m.pending_bytes + job.Stats.output_bytes;
      let due =
        match policy with
        | Never -> false
        | Every_k k -> m.pending_jobs >= k
        | Adaptive budget -> m.pending_bytes >= budget
      in
      if not due then None
      else begin
        let d =
          {
            ck_bytes = job.Stats.output_bytes;
            ck_cost_s = price cluster ~replication:m.cfg.replication job;
          }
        in
        m.pending_jobs <- 0;
        m.pending_s <- 0.0;
        m.pending_bytes <- 0;
        Some d
      end

let replay m = (m.pending_jobs, m.pending_s)
