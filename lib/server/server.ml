module Engine = Rapida_core.Engine
module Batch_exec = Rapida_core.Batch_exec
module Plan_util = Rapida_core.Plan_util
module Analytical = Rapida_sparql.Analytical
module To_sparql = Rapida_sparql.To_sparql
module Scheduler = Rapida_mapred.Scheduler
module Stats = Rapida_mapred.Stats
module Trace = Rapida_mapred.Trace
module Json = Rapida_mapred.Json
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Card = Rapida_analysis.Interval.Card
module Stats_catalog = Rapida_analysis.Stats_catalog
module Cost_model = Rapida_planner.Cost_model
module Plan_cache = Rapida_planner.Plan_cache
module Defense = Rapida_planner.Defense
module Planner = Rapida_planner.Planner

type shed_policy = Drop_tail | Cost_aware | Deadline_aware

let shed_policy_name = function
  | Drop_tail -> "drop-tail"
  | Cost_aware -> "cost-aware"
  | Deadline_aware -> "deadline-aware"

let shed_policy_of_string = function
  | "drop-tail" -> Some Drop_tail
  | "cost-aware" -> Some Cost_aware
  | "deadline-aware" -> Some Deadline_aware
  | _ -> None

type shed_reason = Queue_full | Infeasible | Breaker_open

let shed_reason_name = function
  | Queue_full -> "queue-full"
  | Infeasible -> "infeasible"
  | Breaker_open -> "breaker-open"

type fate = Completed | Shed of shed_reason | Deadline_missed | Failed

let fate_name = function
  | Completed -> "completed"
  | Shed r -> "shed:" ^ shed_reason_name r
  | Deadline_missed -> "deadline-missed"
  | Failed -> "failed"

type overload = {
  ov_queue_cap : int option;
  ov_shed_policy : shed_policy;
  ov_deadline_s : float option;
  ov_breaker_k : int option;
  ov_breaker_cooldown_s : float;
  ov_degrade : bool;
  ov_degrade_depth : int;
  ov_degrade_drain_s : float;
  ov_verify_sample : int;
}

let overload ?queue_cap ?(shed_policy = Drop_tail) ?deadline_s ?breaker_k
    ?(breaker_cooldown_s = 120.0) ?(degrade = false) ?(degrade_depth = 8)
    ?(degrade_drain_s = 60.0) ?(verify_sample = 4) () =
  {
    ov_queue_cap = queue_cap;
    ov_shed_policy = shed_policy;
    ov_deadline_s = deadline_s;
    ov_breaker_k = breaker_k;
    ov_breaker_cooldown_s = breaker_cooldown_s;
    ov_degrade = degrade;
    ov_degrade_depth = degrade_depth;
    ov_degrade_drain_s = degrade_drain_s;
    ov_verify_sample = verify_sample;
  }

let overload_off = overload ()

let overload_enabled ov =
  ov.ov_queue_cap <> None || ov.ov_breaker_k <> None || ov.ov_degrade
  || ov.ov_deadline_s <> None

type optimize_cfg = {
  oc_policy : Cost_model.policy;
  oc_cache_capacity : int;
  oc_defense_k : int;
}

let optimize ?(policy = Cost_model.Worst_case) ?(cache_capacity = 64)
    ?(defense_k = 3) () =
  {
    oc_policy = policy;
    oc_cache_capacity = cache_capacity;
    oc_defense_k = defense_k;
  }

type config = {
  c_kind : Engine.kind;
  c_window_s : float;
  c_policy : Scheduler.policy;
  c_share : bool;
  c_overload : overload;
  c_optimize : optimize_cfg option;
  c_options : Plan_util.options;
}

let config ?(window_s = 5.0) ?(policy = Scheduler.Fair) ?(share = true)
    ?(overload = overload_off) ?optimize
    ?(options = Plan_util.default_options) kind =
  {
    c_kind = kind;
    c_window_s = window_s;
    c_policy = policy;
    c_share = share;
    c_overload = overload;
    c_optimize = optimize;
    c_options = options;
  }

type query_report = {
  q_id : int;
  q_label : string;
  q_arrival_s : float;
  q_batch : int;
  q_group : int;
  q_group_size : int;
  q_queue_s : float;
  q_latency_s : float;
  q_rows : int;
  q_deadline_s : float option;
  q_fate : fate;
  q_checked : bool;
  q_error : Engine.error option;
  q_matches_solo : bool;
}

type batch_report = {
  b_index : int;
  b_open_s : float;
  b_admit_s : float;
  b_size : int;
  b_group_sizes : int list;
}

type overload_report = {
  o_completed : int;
  o_shed_queue : int;
  o_shed_infeasible : int;
  o_shed_breaker : int;
  o_missed : int;
  o_failed : int;
  o_goodput : float;
  o_breaker_trips : int;
  o_level_steps : int;
  o_time_in_level : (int * float) list;
  o_completed_p50_s : float;
  o_completed_p95_s : float;
  o_completed_p99_s : float;
  o_missed_p50_s : float;
  o_missed_p95_s : float;
  o_missed_p99_s : float;
  o_checked : int;
}

type optimize_report = {
  p_policy : string;
  p_planned : int;
  p_cache : Plan_cache.stats;
  p_misestimates : int;
  p_fallbacks : int;
  p_breaker : string;
}

type t = {
  r_kind : Engine.kind;
  r_window_s : float;
  r_policy : Scheduler.policy;
  r_share : bool;
  r_queries : query_report list;
  r_batches : batch_report list;
  r_jobs : int;
  r_input_bytes : int;
  r_makespan_s : float;
  r_utilization : float;
  r_latency_mean_s : float;
  r_latency_p50_s : float;
  r_latency_p95_s : float;
  r_latency_p99_s : float;
  r_latency_max_s : float;
  r_solo_jobs : int;
  r_solo_input_bytes : int;
  r_solo_makespan_s : float;
  r_solo_latency_p50_s : float;
  r_solo_latency_p95_s : float;
  r_solo_latency_p99_s : float;
  r_jobs_saved : int;
  r_bytes_saved : int;
  r_all_matched : bool;
  r_errors : int;
  r_overload : overload_report option;
  r_optimize : optimize_report option;
  r_trace : Trace.t;
}

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    List.nth sorted (min (max rank 1) n - 1)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let eps = 1e-9

(* Admission windows over the sorted arrival stream: a window opens at
   the first pending arrival, collects everything arriving within
   [window_s], and admits the batch when it closes. *)
let batch_arrivals window_s arrivals =
  let rec go idx = function
    | [] -> []
    | (a : Workload.arrival) :: _ as pending ->
      let close = a.Workload.a_time_s +. window_s in
      let members, rest =
        List.partition
          (fun (x : Workload.arrival) ->
            x.Workload.a_time_s <= close +. 1e-9)
          pending
      in
      (idx, a.Workload.a_time_s, close, members) :: go (idx + 1) rest
  in
  go 0 arrivals

type outcome = Workload.arrival * (Table.t, Engine.error) result

(* One executed overlap group: its arrivals (member order), per-member
   outcomes, the degradation level it ran at, and the priced shared
   workflow. *)
type exec_group = {
  eg_index : int;
  eg_batch : int;
  eg_admit_s : float;
  eg_level : int;
  eg_members : outcome list;
  eg_stats : Stats.t;
}

(* The cost-based planner of one run: one catalog (hashed once), one
   bounded plan cache, and the planning outcome so far — the
   misestimate defense and the number of groups planned. *)
type planner = {
  pl_cfg : optimize_cfg;
  pl_catalog : Stats_catalog.t;
  pl_catalog_fp : int64;
  pl_cache : Planner.cache;
  pl_defense : Defense.t;
  pl_planned : int;
}

(* One group a pass ran: its members with their outcomes (member
   order), the options it planned, and the group's result, whose stats
   are its priced workflow. *)
type ran_group = {
  rg_members : outcome list;
  rg_options : Plan_util.options;
  rg_result : Batch_exec.result;
}

(* One execution pass over a batch: the groups it ran, and the planner
   as the pass left it. A pass is the run's only once [commit] makes it
   so. *)
type pass = {
  ps_groups : ran_group list;
  ps_planner : planner option;
}

let group_stats rg = rg.rg_result.Batch_exec.stats
let member_ids rg =
  List.map (fun ((a : Workload.arrival), _) -> a.Workload.a_id) rg.rg_members

(* Everything one [run] accumulates, shared by its stages. Lists are
   newest first. *)
type run = {
  cfg : config;
  active : bool;  (* the overload layer is on *)
  session : Engine.session;
  solo : (Workload.arrival * (Engine.output, Engine.error) result) list;
  trace : Trace.t;
  mutable planner : planner option;
  mutable committed : exec_group list;
  mutable shed : (Workload.arrival * shed_reason * int) list;
  mutable batches : batch_report list;
  mutable breaker_consec : int;
  mutable breaker_until : float option;
  mutable breaker_trips : int;
  mutable level : int;
  mutable level_since : float;
  mutable level_steps : int;
  time_in_level : float array;
}

let cluster r = r.cfg.c_options.Plan_util.cluster

let deadline_of r (a : Workload.arrival) =
  match a.Workload.a_deadline_s with
  | Some _ as d -> d
  | None -> r.cfg.c_overload.ov_deadline_s

let solo_of r (a : Workload.arrival) =
  snd
    (List.find
       (fun ((s : Workload.arrival), _) -> s.Workload.a_id = a.Workload.a_id)
       r.solo)

(* The committed workflows as scheduler items, in commit order. *)
let sched_items r =
  List.rev_map
    (fun eg ->
      {
        Scheduler.it_id = eg.eg_index;
        it_submit_s = eg.eg_admit_s;
        it_jobs = eg.eg_stats.Stats.jobs;
      })
    r.committed

(* Back-to-back baseline: every query solo, sequentially, same cluster —
   the savings denominator, the identity reference, and the Cost_aware
   admission price (solo slot-seconds). Every solo runs with the same
   options on a fresh context, and a fault injector is a pure function
   of its config, so a query repeated in the stream (same rendering)
   reuses its first solo result, stats included. *)
let baseline cfg session (workload : Workload.t) =
  let memo = Hashtbl.create 16 in
  List.map
    (fun (a : Workload.arrival) ->
      let key = To_sparql.analytical a.Workload.a_query in
      match Hashtbl.find_opt memo key with
      | Some res -> (a, res)
      | None ->
        let ctx = Plan_util.context cfg.c_options in
        let res = Engine.execute session ctx a.Workload.a_query in
        Hashtbl.add memo key res;
        (a, res))
    workload.Workload.arrivals

(* The planner's statistics depend only on the input, whose graph never
   changes after [Engine.input_of_graph]; one slot keeps the catalog and
   its fingerprint of the input seen last, matched by identity. *)
let catalog_memo : (Engine.input * (Stats_catalog.t * int64)) option Atomic.t =
  Atomic.make None

let catalog input =
  match Atomic.get catalog_memo with
  | Some (i, c) when i == input -> c
  | Some _ | None ->
    let catalog = Stats_catalog.build (Engine.graph_of_input input) in
    let c = (catalog, Planner.catalog_fingerprint catalog) in
    Atomic.set catalog_memo (Some (input, c));
    c

let start cfg input (workload : Workload.t) =
  let session = Engine.prepare cfg.c_kind input in
  let planner =
    Option.map
      (fun oc ->
        let catalog, catalog_fp = catalog input in
        {
          pl_cfg = oc;
          pl_catalog = catalog;
          pl_catalog_fp = catalog_fp;
          pl_cache = Planner.create_cache ~capacity:oc.oc_cache_capacity;
          pl_defense = Defense.create ~k:oc.oc_defense_k;
          pl_planned = 0;
        })
      cfg.c_optimize
  in
  {
    cfg;
    active = overload_enabled cfg.c_overload || Workload.has_deadlines workload;
    session;
    solo = baseline cfg session workload;
    trace = Trace.create ();
    planner;
    committed = [];
    shed = [];
    batches = [];
    breaker_consec = 0;
    breaker_until = None;
    breaker_trips = 0;
    level = 0;
    level_since = 0.0;
    level_steps = 0;
    time_in_level = Array.make 3 0.0;
  }

let shed_query r b_index admit_s reason (a : Workload.arrival) =
  r.shed <- (a, reason, b_index) :: r.shed;
  Trace.span r.trace
    ~name:("shed-" ^ shed_reason_name reason)
    ~cat:"overload" ~start_s:admit_s ~dur_s:0.0
    [
      ("query", Json.Int a.Workload.a_id);
      ("label", Json.String a.Workload.a_label);
    ]

(* Measured pressure at admission instant [at]: queries still in flight,
   and how long the backlog takes to drain. *)
let pressure r at =
  match sched_items r with
  | [] -> (0, 0.0)
  | its ->
    let s = Scheduler.simulate (cluster r) r.cfg.c_policy its in
    List.fold_left
      (fun (n, d) eg ->
        match Scheduler.placement s eg.eg_index with
        | Some p when p.Scheduler.p_finish_s > at +. eps ->
          ( n + List.length eg.eg_members,
            Float.max d (p.Scheduler.p_finish_s -. at) )
        | Some _ | None -> (n, d))
      (0, 0.0) r.committed

(* The breaker sheds until its cooldown has passed; then it closes and
   its count of consecutive failures starts fresh. *)
let breaker_open r at =
  match r.breaker_until with
  | Some until when at +. eps < until -> true
  | Some _ ->
    r.breaker_until <- None;
    r.breaker_consec <- 0;
    false
  | None -> false

(* End the current ladder level's period at [until]: trace it and add
   it to the level's time. *)
let close_level r ~until args =
  let dur = Float.max 0.0 (until -. r.level_since) in
  Trace.span r.trace
    ~name:(Printf.sprintf "level-%d" r.level)
    ~cat:"overload" ~start_s:r.level_since ~dur_s:dur args;
  r.time_in_level.(r.level) <- r.time_in_level.(r.level) +. dur

(* Step the degradation ladder to the level the measured pressure
   calls for: 2 at twice a threshold, 1 at a threshold, else 0. *)
let step_ladder r at (in_flight, drain_s) =
  let ov = r.cfg.c_overload in
  let over x =
    in_flight >= x * ov.ov_degrade_depth
    || drain_s >= float_of_int x *. ov.ov_degrade_drain_s
  in
  let target = if over 2 then 2 else if over 1 then 1 else 0 in
  if target <> r.level then begin
    close_level r ~until:at [ ("to", Json.Int target) ];
    r.level_steps <- r.level_steps + 1;
    r.level <- target;
    r.level_since <- at
  end

(* Admission selection under a full queue: keep [room] members (in
   arrival order), shed the rest. Drop_tail sheds the latest arrivals;
   Cost_aware the most expensive (solo slot-seconds); Deadline_aware
   keeps the earliest absolute deadlines, shedding no-deadline queries
   first. *)
let select_admitted r room members =
  if room <= 0 then ([], members)
  else if List.length members <= room then (members, [])
  else
    let keyed = List.mapi (fun i a -> (i, a)) members in
    let key (i, (a : Workload.arrival)) =
      match r.cfg.c_overload.ov_shed_policy with
      | Drop_tail -> float_of_int i
      | Cost_aware -> (
        match solo_of r a with
        | Ok (o : Engine.output) -> Stats.slot_seconds o.Engine.stats
        | Error _ -> 0.0)
      | Deadline_aware -> (
        match deadline_of r a with
        | None -> Float.infinity
        | Some d -> a.Workload.a_time_s +. d)
    in
    let ranked = List.stable_sort (fun x y -> compare (key x) (key y)) keyed in
    let keep_idx = List.filteri (fun i _ -> i < room) ranked |> List.map fst in
    let keep, drop = List.partition (fun (i, _) -> List.mem i keep_idx) keyed in
    (List.map snd keep, List.map snd drop)

(* Admission: measure the pressure, close an expired breaker, step the
   ladder, then shed the whole batch while the breaker is open, or the
   overflow past the queue cap. Returns the admitted arrivals. *)
let admit r (b_index, _, admit_s, members) =
  if not r.active then members
  else begin
    let ov = r.cfg.c_overload in
    let in_flight, drain_s = pressure r admit_s in
    let breaker_open = breaker_open r admit_s in
    if ov.ov_degrade then step_ladder r admit_s (in_flight, drain_s);
    if breaker_open then begin
      List.iter (shed_query r b_index admit_s Breaker_open) members;
      []
    end
    else
      match ov.ov_queue_cap with
      | Some cap ->
        let keep, drop = select_admitted r (max 0 (cap - in_flight)) members in
        List.iter (shed_query r b_index admit_s Queue_full) drop;
        keep
      | None -> members
  end

(* Cost-based planning for one executed group. The defense decides
   whether the group plans with the optimizer at all; a [Cooling]
   defense pays one heuristic (unhinted) group and re-arms. Degraded
   batches (level >= 2) already run the broadcast-everything heuristic
   and are never planned. Returns the group's options, the interval an
   optimized singleton's result must fall in, and the planner after the
   decision. *)
let plan r lvl options (g : Batch_exec.group) planner =
  match planner with
  | Some p when lvl < 2 -> (
    match Defense.arm_for_next p.pl_defense with
    | false, defense -> (options, None, Some { p with pl_defense = defense })
    | true, defense ->
      (* A shared group executes, and so plans, the pooled composite
         (hint key -1). Only a singleton's root cardinality has a sound
         predicted interval for the runtime defense to check. *)
      let q, singleton =
        match g.Batch_exec.g_members with
        | [ m ] -> (m.Batch_exec.m_query, true)
        | members ->
          ( {
              Analytical.subqueries =
                List.concat_map
                  (fun (m : Batch_exec.member) -> m.Batch_exec.m_subqueries)
                  members;
              outer_projection = [];
              order_by = [];
              limit = None;
            },
            false )
      in
      let d, _hit =
        Planner.plan_cached ~cache:p.pl_cache ~catalog:p.pl_catalog
          ~catalog_fp:p.pl_catalog_fp ~policy:p.pl_cfg.oc_policy
          ~cluster:(cluster r) q
      in
      ( Planner.apply d options,
        (if singleton then Some d.Planner.d_root else None),
        Some { p with pl_defense = defense; pl_planned = p.pl_planned + 1 } ))
  | planner -> (options, None, planner)

(* Report an optimized singleton's measured cardinality to the defense. *)
let observe check (res : Batch_exec.result) planner =
  match (check, res.Batch_exec.outputs, planner) with
  | Some interval, [ Ok table ], Some p ->
    let escaped = not (Card.contains interval (Table.cardinality table)) in
    Some { p with pl_defense = Defense.observe p.pl_defense ~escaped }
  | _ -> planner

(* Execute admitted members at a degradation level. Level 0 is the
   configured server; level 1 turns cross-query sharing off; level 2
   additionally plans with the broadcast-everything heuristic. Every
   group is planned; a group whose members and planned options equal
   one in [reuse] takes that group's result instead of running again. *)
let execute ?(reuse = []) r lvl members =
  let queries =
    List.map (fun (a : Workload.arrival) -> a.Workload.a_query) members
  in
  let options =
    if lvl >= 2 then Plan_util.degrade_options r.cfg.c_options
    else r.cfg.c_options
  in
  let groups =
    if r.cfg.c_share && lvl = 0 then
      Batch_exec.group_queries r.cfg.c_kind queries
    else Batch_exec.singletons queries
  in
  let planner, executed =
    List.fold_left
      (fun (planner, executed) (g : Batch_exec.group) ->
        let options, check, planner = plan r lvl options g planner in
        let arrivals =
          List.map
            (fun (m : Batch_exec.member) ->
              List.nth members m.Batch_exec.m_index)
            g.Batch_exec.g_members
        in
        let ids =
          List.map (fun (a : Workload.arrival) -> a.Workload.a_id) arrivals
        in
        let res =
          match
            List.find_opt
              (fun rg -> rg.rg_options = options && member_ids rg = ids)
              reuse
          with
          | Some rg -> rg.rg_result
          | None -> Batch_exec.run_group r.session (Plan_util.context options) g
        in
        let rg =
          {
            rg_members = List.combine arrivals res.Batch_exec.outputs;
            rg_options = options;
            rg_result = res;
          }
        in
        (observe check res planner, rg :: executed))
      (r.planner, []) groups
  in
  { ps_groups = List.rev executed; ps_planner = planner }

(* Feasibility refusal (deadline-aware shedding): with the pass's priced
   groups laid on top of everything in flight, would each deadline
   still be met? Queries that cannot make it are refused now (typed
   fate) instead of missing later, and the pass is discarded whole —
   its planning outcome too — for a fresh one over the rest, which
   reuses the results of the groups it left unchanged. *)
let refuse_infeasible r (b_index, _, admit_s, _) lvl admitted pass =
  let prospective i = 1_000_000 + i in
  let s =
    Scheduler.simulate (cluster r) r.cfg.c_policy
      (sched_items r
      @ List.mapi
          (fun i rg ->
            {
              Scheduler.it_id = prospective i;
              it_submit_s = admit_s;
              it_jobs = (group_stats rg).Stats.jobs;
            })
          pass.ps_groups)
  in
  let late i ((a : Workload.arrival), _) =
    let finish =
      match Scheduler.placement s (prospective i) with
      | Some p -> p.Scheduler.p_finish_s
      | None -> admit_s
    in
    match deadline_of r a with
    | Some d -> finish > a.Workload.a_time_s +. d +. eps
    | None -> false
  in
  let infeasible =
    List.concat
      (List.mapi
         (fun i rg -> List.filter (late i) rg.rg_members)
         pass.ps_groups)
    |> List.map (fun ((a : Workload.arrival), _) -> a.Workload.a_id)
  in
  match
    List.partition
      (fun (a : Workload.arrival) -> not (List.mem a.Workload.a_id infeasible))
      admitted
  with
  | _, [] -> pass
  | keep, drop ->
    List.iter (shed_query r b_index admit_s Infeasible) drop;
    execute ~reuse:pass.ps_groups r lvl keep

(* Circuit breaker: K consecutive transient failures (in arrival order)
   open it for a cooldown; deterministic errors and successes reset the
   run. *)
let feed_breaker r admit_s pass =
  match r.cfg.c_overload.ov_breaker_k with
  | Some k when k > 0 ->
    let cooldown = r.cfg.c_overload.ov_breaker_cooldown_s in
    List.concat_map (fun rg -> rg.rg_members) pass.ps_groups
    |> List.sort (fun ((x : Workload.arrival), _) ((y : Workload.arrival), _) ->
           compare x.Workload.a_id y.Workload.a_id)
    |> List.iter (fun (_, out) ->
           match out with
           | Error e when Engine.error_transient e ->
             r.breaker_consec <- r.breaker_consec + 1;
             if r.breaker_consec >= k && r.breaker_until = None then begin
               r.breaker_until <- Some (admit_s +. cooldown);
               r.breaker_trips <- r.breaker_trips + 1;
               r.breaker_consec <- 0;
               Trace.span r.trace ~name:"breaker-open" ~cat:"overload"
                 ~start_s:admit_s ~dur_s:cooldown
                 [ ("consecutive_failures", Json.Int k) ]
             end
           | Error _ | Ok _ -> r.breaker_consec <- 0)
  | Some _ | None -> ()

(* A batch's final pass becomes the run's: its groups join the
   schedule, its planning outcome replaces the planner, and its
   failures feed the circuit breaker. *)
let commit r (b_index, open_s, admit_s, members) lvl pass =
  List.iter
    (fun rg ->
      r.committed <-
        {
          eg_index = List.length r.committed;
          eg_batch = b_index;
          eg_admit_s = admit_s;
          eg_level = lvl;
          eg_members = rg.rg_members;
          eg_stats = group_stats rg;
        }
        :: r.committed)
    pass.ps_groups;
  r.planner <- pass.ps_planner;
  if r.active then feed_breaker r admit_s pass;
  r.batches <-
    {
      b_index;
      b_open_s = open_s;
      b_admit_s = admit_s;
      b_size = List.length members;
      b_group_sizes =
        List.map (fun rg -> List.length rg.rg_members) pass.ps_groups;
    }
    :: r.batches

(* The committed shared workflows contend for the cluster's slots; the
   ladder's last level lasts until the last workflow finishes. *)
let schedule r =
  let sched = Scheduler.simulate (cluster r) r.cfg.c_policy (sched_items r) in
  if r.active && r.cfg.c_overload.ov_degrade then
    close_level r
      ~until:
        (List.fold_left
           (fun acc (p : Scheduler.placement) ->
             Float.max acc p.Scheduler.p_finish_s)
           r.level_since sched.Scheduler.placements)
      [];
  sched

(* One arrival's report line. [out] is [None] for a shed query: it ran
   in no group (-1), and its batch is where it was shed. *)
let query_report r (a : Workload.arrival) ~batch ~group ~size ~queue_s
    ~latency_s ~fate ~checked ~matches out =
  {
    q_id = a.Workload.a_id;
    q_label = a.Workload.a_label;
    q_arrival_s = a.Workload.a_time_s;
    q_batch = batch;
    q_group = group;
    q_group_size = size;
    q_queue_s = queue_s;
    q_latency_s = latency_s;
    q_rows = (match out with Some (Ok t) -> Table.cardinality t | _ -> 0);
    q_deadline_s = deadline_of r a;
    q_fate = fate;
    q_checked = checked;
    q_error = (match out with Some (Error e) -> Some e | _ -> None);
    q_matches_solo = matches;
  }

let executed_reports r sched eg =
  let ov = r.cfg.c_overload in
  let finish, queue =
    match Scheduler.placement sched eg.eg_index with
    | Some p -> (p.Scheduler.p_finish_s, p.Scheduler.p_queue_s)
    | None -> (eg.eg_admit_s, 0.0)
  in
  List.map
    (fun ((a : Workload.arrival), out) ->
      (* Verification sampling: below level 2 every result is checked
         against its solo run; at level 2 only one in [ov_verify_sample]
         is. *)
      let checked =
        eg.eg_level < 2 || ov.ov_verify_sample <= 1
        || a.Workload.a_id mod ov.ov_verify_sample = 0
      in
      let matches =
        (not checked)
        ||
        match (out, solo_of r a) with
        | Ok t, Ok (o : Engine.output) -> Relops.same_results o.Engine.table t
        | Error _, Error _ -> true
        | _ -> false
      in
      let latency_s = Float.max 0.0 (finish -. a.Workload.a_time_s) in
      let fate =
        match (out, deadline_of r a) with
        | Error _, _ -> Failed
        | Ok _, Some d when latency_s > d +. eps -> Deadline_missed
        | Ok _, _ -> Completed
      in
      query_report r a ~batch:eg.eg_batch ~group:eg.eg_index
        ~size:(List.length eg.eg_members)
        ~queue_s:(Float.max 0.0 (eg.eg_admit_s -. a.Workload.a_time_s) +. queue)
        ~latency_s ~fate ~checked ~matches (Some out))
    eg.eg_members

let overload_report r queries =
  let count f = List.length (List.filter f queries) in
  let lat fate =
    List.filter_map
      (fun q -> if q.q_fate = fate then Some q.q_latency_s else None)
      queries
  in
  let completed = count (fun q -> q.q_fate = Completed) in
  let completed_lat = lat Completed in
  let missed_lat = lat Deadline_missed in
  {
    o_completed = completed;
    o_shed_queue = count (fun q -> q.q_fate = Shed Queue_full);
    o_shed_infeasible = count (fun q -> q.q_fate = Shed Infeasible);
    o_shed_breaker = count (fun q -> q.q_fate = Shed Breaker_open);
    o_missed = count (fun q -> q.q_fate = Deadline_missed);
    o_failed = count (fun q -> q.q_fate = Failed);
    o_goodput =
      (match queries with
      | [] -> 0.0
      | _ -> float_of_int completed /. float_of_int (List.length queries));
    o_breaker_trips = r.breaker_trips;
    o_level_steps = r.level_steps;
    o_time_in_level =
      (if r.cfg.c_overload.ov_degrade then
         List.mapi (fun i s -> (i, s)) (Array.to_list r.time_in_level)
       else []);
    o_completed_p50_s = percentile 50.0 completed_lat;
    o_completed_p95_s = percentile 95.0 completed_lat;
    o_completed_p99_s = percentile 99.0 completed_lat;
    o_missed_p50_s = percentile 50.0 missed_lat;
    o_missed_p95_s = percentile 95.0 missed_lat;
    o_missed_p99_s = percentile 99.0 missed_lat;
    o_checked = count (fun q -> q.q_checked);
  }

let optimize_report p =
  {
    p_policy = Cost_model.policy_name p.pl_cfg.oc_policy;
    p_planned = p.pl_planned;
    p_cache = Plan_cache.stats p.pl_cache;
    p_misestimates = Defense.escapes p.pl_defense;
    p_fallbacks = Defense.fallbacks p.pl_defense;
    p_breaker = Defense.state_name (Defense.state p.pl_defense);
  }

let report r (workload : Workload.t) sched =
  let exec_groups = List.rev r.committed in
  let queries =
    List.concat_map (executed_reports r sched) exec_groups
    @ List.rev_map
        (fun ((a : Workload.arrival), reason, batch) ->
          query_report r a ~batch ~group:(-1) ~size:0 ~queue_s:0.0
            ~latency_s:0.0 ~fate:(Shed reason) ~checked:false ~matches:true
            None)
        r.shed
    |> List.sort (fun a b -> compare a.q_id b.q_id)
  in
  let sum_stats f =
    List.fold_left (fun acc eg -> acc + f eg.eg_stats) 0 exec_groups
  in
  let latencies =
    List.filter_map
      (fun q -> match q.q_fate with Shed _ -> None | _ -> Some q.q_latency_s)
      queries
  in
  (* The baseline runs back to back: each query starts when it arrives
     or when the previous one finishes. *)
  let solo_end, solo_latencies, solo_jobs, solo_bytes =
    List.fold_left
      (fun (cursor, lats, jobs, bytes) ((a : Workload.arrival), res) ->
        let dur, j, b =
          match res with
          | Ok (o : Engine.output) ->
            let st = o.Engine.stats in
            (Stats.est_time_s st, Stats.cycles st, Stats.total_input_bytes st)
          | Error _ -> (0.0, 0, 0)
        in
        let finish = Float.max cursor a.Workload.a_time_s +. dur in
        (finish, (finish -. a.Workload.a_time_s) :: lats, jobs + j, bytes + b))
      (0.0, [], 0, 0) r.solo
  in
  let solo_makespan =
    match workload.Workload.arrivals with
    | first :: _ -> Float.max 0.0 (solo_end -. first.Workload.a_time_s)
    | [] -> 0.0
  in
  let jobs = sum_stats Stats.cycles in
  let bytes = sum_stats Stats.total_input_bytes in
  {
    r_kind = r.cfg.c_kind;
    r_window_s = r.cfg.c_window_s;
    r_policy = r.cfg.c_policy;
    r_share = r.cfg.c_share;
    r_queries = queries;
    r_batches = List.rev r.batches;
    r_jobs = jobs;
    r_input_bytes = bytes;
    r_makespan_s = sched.Scheduler.makespan_s;
    r_utilization = sched.Scheduler.utilization;
    r_latency_mean_s = mean latencies;
    r_latency_p50_s = percentile 50.0 latencies;
    r_latency_p95_s = percentile 95.0 latencies;
    r_latency_p99_s = percentile 99.0 latencies;
    r_latency_max_s = List.fold_left Float.max 0.0 latencies;
    r_solo_jobs = solo_jobs;
    r_solo_input_bytes = solo_bytes;
    r_solo_makespan_s = solo_makespan;
    r_solo_latency_p50_s = percentile 50.0 solo_latencies;
    r_solo_latency_p95_s = percentile 95.0 solo_latencies;
    r_solo_latency_p99_s = percentile 99.0 solo_latencies;
    r_jobs_saved = solo_jobs - jobs;
    r_bytes_saved = solo_bytes - bytes;
    r_all_matched = List.for_all (fun q -> q.q_matches_solo) queries;
    r_errors = List.length (List.filter (fun q -> q.q_error <> None) queries);
    r_overload = (if r.active then Some (overload_report r queries) else None);
    r_optimize = Option.map optimize_report r.planner;
    r_trace = r.trace;
  }

(* The run is the stage sequence: the solo baseline (in [start]), then
   per admission batch admit, execute (planning each group), refuse
   what cannot meet its deadline and commit; then schedule everything
   committed and report. *)
let run cfg input (workload : Workload.t) =
  let r = start cfg input workload in
  List.iter
    (fun batch ->
      let admitted = admit r batch in
      (* the ladder's level; 0 unless the ladder is enabled *)
      let lvl = r.level in
      let pass = execute r lvl admitted in
      let pass =
        if
          r.active
          && cfg.c_overload.ov_shed_policy = Deadline_aware
          && pass.ps_groups <> []
        then refuse_infeasible r batch lvl admitted pass
        else pass
      in
      commit r batch lvl pass)
    (batch_arrivals cfg.c_window_s workload.Workload.arrivals);
  report r workload (schedule r)

let pp_group_sizes ppf sizes =
  Fmt.(list ~sep:(any "+") int) ppf sizes

let pp ppf r =
  Fmt.pf ppf
    "@[<v>query server: engine=%s window=%.1fs policy=%s sharing=%s@,"
    (Engine.kind_name r.r_kind) r.r_window_s
    (Scheduler.policy_name r.r_policy)
    (if r.r_share then "on" else "off");
  Fmt.pf ppf "queries: %d in %d batches; group sizes: %a@,"
    (List.length r.r_queries)
    (List.length r.r_batches)
    Fmt.(list ~sep:(any " | ") pp_group_sizes)
    (List.map (fun b -> b.b_group_sizes) r.r_batches);
  Fmt.pf ppf
    "latency: mean %.2fs  p50 %.2fs  p95 %.2fs  p99 %.2fs  max %.2fs@,"
    r.r_latency_mean_s r.r_latency_p50_s r.r_latency_p95_s r.r_latency_p99_s
    r.r_latency_max_s;
  Fmt.pf ppf "cluster: makespan %.2fs  slot utilization %.1f%%@,"
    r.r_makespan_s (100.0 *. r.r_utilization);
  Fmt.pf ppf "server path: %d jobs, %d scan bytes@," r.r_jobs r.r_input_bytes;
  Fmt.pf ppf
    "back-to-back: %d jobs, %d scan bytes, makespan %.2fs, p50 %.2fs@,"
    r.r_solo_jobs r.r_solo_input_bytes r.r_solo_makespan_s
    r.r_solo_latency_p50_s;
  Fmt.pf ppf "saved: %d jobs, %d scan bytes@," r.r_jobs_saved r.r_bytes_saved;
  (match r.r_overload with
  | None -> ()
  | Some o ->
    let n_shed = o.o_shed_queue + o.o_shed_infeasible + o.o_shed_breaker in
    Fmt.pf ppf
      "fates: %d completed, %d missed, %d shed (%d queue-full, %d \
       infeasible, %d breaker), %d failed@,"
      o.o_completed o.o_missed n_shed o.o_shed_queue o.o_shed_infeasible
      o.o_shed_breaker o.o_failed;
    Fmt.pf ppf "goodput: %.1f%% of %d arrivals@," (100.0 *. o.o_goodput)
      (List.length r.r_queries);
    if o.o_completed > 0 then
      Fmt.pf ppf "completed latency: p50 %.2fs  p95 %.2fs  p99 %.2fs@,"
        o.o_completed_p50_s o.o_completed_p95_s o.o_completed_p99_s;
    if o.o_missed > 0 then
      Fmt.pf ppf "missed latency: p50 %.2fs  p95 %.2fs  p99 %.2fs@,"
        o.o_missed_p50_s o.o_missed_p95_s o.o_missed_p99_s;
    (match o.o_time_in_level with
    | [] -> ()
    | levels ->
      Fmt.pf ppf "degradation: %d level steps; time in levels %a@,"
        o.o_level_steps
        Fmt.(
          list ~sep:(any "  ") (fun ppf (l, s) -> pf ppf "L%d=%.1fs" l s))
        levels);
    if o.o_breaker_trips > 0 then
      Fmt.pf ppf "breaker: %d trip%s@," o.o_breaker_trips
        (if o.o_breaker_trips = 1 then "" else "s");
    Fmt.pf ppf "verified: %d of %d results checked against solo@,"
      o.o_checked (List.length r.r_queries));
  (match r.r_optimize with
  | None -> ()
  | Some p ->
    Fmt.pf ppf "optimizer: policy %s, %d group(s) planned; cache: %a@,"
      p.p_policy p.p_planned Plan_cache.pp_stats p.p_cache;
    Fmt.pf ppf
      "optimizer defense: %d misestimate(s), %d fallback(s), breaker %s@,"
      p.p_misestimates p.p_fallbacks p.p_breaker);
  if r.r_errors > 0 then Fmt.pf ppf "errors: %d@," r.r_errors;
  Fmt.pf ppf "results: %s@]"
    (if r.r_all_matched then
       Printf.sprintf "all %d match solo runs" (List.length r.r_queries)
     else "DIVERGED from solo runs")

let pp_detail ppf r =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun q ->
      Fmt.pf ppf
        "q%-3d %-14s arr %7.2fs  batch %d  group %d(x%d)  queue %6.2fs  \
         latency %7.2fs  rows %4d  %s@,"
        q.q_id q.q_label q.q_arrival_s q.q_batch q.q_group q.q_group_size
        q.q_queue_s q.q_latency_s q.q_rows
        (match q.q_fate with
        | Shed reason -> "SHED (" ^ shed_reason_name reason ^ ")"
        | Failed | Completed | Deadline_missed -> (
          match q.q_error with
          | Some e -> "error: " ^ Engine.error_message e
          | None ->
            let base =
              if not q.q_matches_solo then "DIVERGED"
              else if q.q_checked then "ok"
              else "ok (unchecked)"
            in
            if q.q_fate = Deadline_missed then base ^ " MISSED" else base)))
    r.r_queries;
  Fmt.pf ppf "%a@]" pp r

let query_to_json ~active q =
  Json.Obj
    ([
       ("id", Json.Int q.q_id);
       ("label", Json.String q.q_label);
       ("arrival_s", Json.Float q.q_arrival_s);
       ("batch", Json.Int q.q_batch);
       ("group", Json.Int q.q_group);
       ("group_size", Json.Int q.q_group_size);
       ("queue_s", Json.Float q.q_queue_s);
       ("latency_s", Json.Float q.q_latency_s);
       ("rows", Json.Int q.q_rows);
       ( "error",
         match q.q_error with
         | None -> Json.Null
         | Some e -> Json.String (Engine.error_message e) );
       ("matches_solo", Json.Bool q.q_matches_solo);
     ]
    @
    if active then
      [
        ( "deadline_s",
          match q.q_deadline_s with
          | None -> Json.Null
          | Some d -> Json.Float d );
        ("fate", Json.String (fate_name q.q_fate));
        ("checked", Json.Bool q.q_checked);
      ]
    else [])

let batch_to_json b =
  Json.Obj
    [
      ("index", Json.Int b.b_index);
      ("open_s", Json.Float b.b_open_s);
      ("admit_s", Json.Float b.b_admit_s);
      ("queries", Json.Int b.b_size);
      ("group_sizes", Json.List (List.map (fun n -> Json.Int n) b.b_group_sizes));
    ]

let overload_to_json o =
  Json.Obj
    [
      ("completed", Json.Int o.o_completed);
      ("shed", Json.Int (o.o_shed_queue + o.o_shed_infeasible + o.o_shed_breaker));
      ("shed_queue_full", Json.Int o.o_shed_queue);
      ("shed_infeasible", Json.Int o.o_shed_infeasible);
      ("shed_breaker", Json.Int o.o_shed_breaker);
      ("missed", Json.Int o.o_missed);
      ("failed", Json.Int o.o_failed);
      ("goodput", Json.Float o.o_goodput);
      ("breaker_trips", Json.Int o.o_breaker_trips);
      ("level_steps", Json.Int o.o_level_steps);
      ( "time_in_level_s",
        Json.List
          (List.map (fun (_, s) -> Json.Float s) o.o_time_in_level) );
      ( "completed_latency_s",
        Json.Obj
          [
            ("p50", Json.Float o.o_completed_p50_s);
            ("p95", Json.Float o.o_completed_p95_s);
            ("p99", Json.Float o.o_completed_p99_s);
          ] );
      ( "missed_latency_s",
        Json.Obj
          [
            ("p50", Json.Float o.o_missed_p50_s);
            ("p95", Json.Float o.o_missed_p95_s);
            ("p99", Json.Float o.o_missed_p99_s);
          ] );
      ("checked", Json.Int o.o_checked);
    ]

let optimize_to_json p =
  Json.Obj
    [
      ("policy", Json.String p.p_policy);
      ("planned", Json.Int p.p_planned);
      ("cache", Plan_cache.stats_to_json p.p_cache);
      ("misestimates", Json.Int p.p_misestimates);
      ("fallbacks", Json.Int p.p_fallbacks);
      ("breaker", Json.String p.p_breaker);
    ]

let to_json r =
  let active = r.r_overload <> None in
  Json.Obj
    ([
       ("engine", Json.String (Engine.kind_name r.r_kind));
       ("window_s", Json.Float r.r_window_s);
       ("policy", Json.String (Scheduler.policy_name r.r_policy));
       ("sharing", Json.Bool r.r_share);
       ("queries", Json.List (List.map (query_to_json ~active) r.r_queries));
       ("batches", Json.List (List.map batch_to_json r.r_batches));
       ("jobs", Json.Int r.r_jobs);
       ("input_bytes", Json.Int r.r_input_bytes);
       ("makespan_s", Json.Float r.r_makespan_s);
       ("utilization", Json.Float r.r_utilization);
       ( "latency_s",
         Json.Obj
           [
             ("mean", Json.Float r.r_latency_mean_s);
             ("p50", Json.Float r.r_latency_p50_s);
             ("p95", Json.Float r.r_latency_p95_s);
             ("p99", Json.Float r.r_latency_p99_s);
             ("max", Json.Float r.r_latency_max_s);
           ] );
       ( "back_to_back",
         Json.Obj
           [
             ("jobs", Json.Int r.r_solo_jobs);
             ("input_bytes", Json.Int r.r_solo_input_bytes);
             ("makespan_s", Json.Float r.r_solo_makespan_s);
             ("latency_p50_s", Json.Float r.r_solo_latency_p50_s);
             ("latency_p95_s", Json.Float r.r_solo_latency_p95_s);
             ("latency_p99_s", Json.Float r.r_solo_latency_p99_s);
           ] );
       ("jobs_saved", Json.Int r.r_jobs_saved);
       ("bytes_saved", Json.Int r.r_bytes_saved);
       ("all_matched", Json.Bool r.r_all_matched);
       ("errors", Json.Int r.r_errors);
     ]
    @ (match r.r_overload with
      | None -> []
      | Some o -> [ ("overload", overload_to_json o) ])
    @
    match r.r_optimize with
    | None -> []
    | Some p -> [ ("optimize", optimize_to_json p) ])
