type policy = Fifo | Fair

let policy_name = function Fifo -> "fifo" | Fair -> "fair"

let policy_of_string = function
  | "fifo" -> Some Fifo
  | "fair" -> Some Fair
  | _ -> None

type item = { it_id : int; it_submit_s : float; it_jobs : Stats.job list }

type placement = {
  p_id : int;
  p_submit_s : float;
  p_start_s : float;
  p_finish_s : float;
  p_queue_s : float;
  p_slot_seconds : float;
}

type t = {
  placements : placement list;
  makespan_s : float;
  busy_slot_seconds : float;
  capacity_slot_seconds : float;
  utilization : float;
}

let eps = 1e-9

(* A workflow in flight: its jobs collapse to (slot demand, remaining
   dedicated seconds) pairs — everything else about a job was priced
   before scheduling and does not move under contention. *)
type state = {
  st_id : int;
  st_submit : float;
  st_exec : float;
  st_slot_seconds : float;
  mutable st_jobs : (float * float) list;
  mutable st_start : float option;
  mutable st_finish : float option;
}

(* FIFO: walk the queue in submission order, the head of each workflow
   grabbing as much of its demand as the pool still holds. *)
let grant_fifo pool active =
  let left = ref pool in
  List.map
    (fun (st, demand) ->
      let n = Float.min demand !left in
      left := !left -. n;
      (st, demand, n))
    active

(* Max-min fairness with caps: split the leftover pool evenly among the
   still-hungry, peel off everyone whose demand fits under the even
   share, repeat. Terminates because each round either caps somebody or
   settles the rest at the share. *)
let grant_fair pool active =
  let rec fill left xs =
    match xs with
    | [] -> []
    | _ ->
      let share = left /. float_of_int (List.length xs) in
      let capped, hungry =
        List.partition (fun (_, demand) -> demand <= share +. eps) xs
      in
      if capped = [] then
        List.map (fun (st, demand) -> (st, demand, share)) xs
      else
        let used =
          List.fold_left (fun acc (_, d) -> acc +. d) 0.0 capped
        in
        List.map (fun (st, demand) -> (st, demand, demand)) capped
        @ fill (left -. used) hungry
  in
  fill pool active

let simulate cluster policy items =
  let pool_slots = max 1 (Cluster.map_slots cluster) in
  let pool = float_of_int pool_slots in
  let states =
    List.map
      (fun it ->
        let jobs =
          List.map
            (fun (j : Stats.job) ->
              (float_of_int (min (Stats.job_slots j) pool_slots),
               j.Stats.est_time_s))
            it.it_jobs
        in
        {
          st_id = it.it_id;
          st_submit = it.it_submit_s;
          st_exec =
            List.fold_left (fun acc (_, r) -> acc +. r) 0.0 jobs;
          st_slot_seconds =
            List.fold_left (fun acc (d, r) -> acc +. (d *. r)) 0.0 jobs;
          st_jobs = jobs;
          st_start = None;
          st_finish = None;
        })
      (List.sort
         (fun a b ->
           match compare a.it_submit_s b.it_submit_s with
           | 0 -> compare a.it_id b.it_id
           | c -> c)
         items)
  in
  let unfinished () = List.filter (fun s -> s.st_finish = None) states in
  let now = ref (match states with [] -> 0.0 | s :: _ -> s.st_submit) in
  let drain () =
    (* Retire zero-remaining head jobs (and empty workflows) at the
       current instant before handing out slots. *)
    List.iter
      (fun s ->
        if s.st_finish = None && s.st_submit <= !now +. eps then begin
          let rec pop () =
            match s.st_jobs with
            | (_, r) :: rest when r <= eps ->
              if s.st_start = None then s.st_start <- Some !now;
              s.st_jobs <- rest;
              pop ()
            | _ -> ()
          in
          pop ();
          if s.st_jobs = [] then begin
            if s.st_start = None then s.st_start <- Some !now;
            s.st_finish <- Some !now
          end
        end)
      states
  in
  let tick () =
    match unfinished () with
    | [] -> ()
    | pending ->
      let active, waiting =
        List.partition (fun s -> s.st_submit <= !now +. eps) pending
      in
      (match active with
      | [] ->
        (* Idle gap: jump to the next admission. *)
        now :=
          List.fold_left
            (fun acc s -> Float.min acc s.st_submit)
            Float.infinity waiting
      | _ ->
        let heads =
          List.map (fun s -> (s, fst (List.hd s.st_jobs))) active
        in
        let grants =
          match policy with
          | Fifo -> grant_fifo pool heads
          | Fair -> grant_fair pool heads
        in
        List.iter
          (fun (s, _, n) ->
            if n > eps && s.st_start = None then s.st_start <- Some !now)
          grants;
        (* Fluid advance to the next event: some granted head finishes
           (remaining ÷ rate, rate = granted/demand) or a new workflow
           arrives. Every candidate below is strictly positive, so the
           clock always moves. *)
        let dt =
          List.fold_left
            (fun acc (s, demand, n) ->
              if n <= eps then acc
              else
                let r = snd (List.hd s.st_jobs) in
                Float.min acc (r *. demand /. n))
            Float.infinity grants
        in
        let dt =
          List.fold_left
            (fun acc s -> Float.min acc (s.st_submit -. !now))
            dt waiting
        in
        List.iter
          (fun (s, demand, n) ->
            if n > eps then
              match s.st_jobs with
              | (d, r) :: rest ->
                s.st_jobs <- (d, r -. (dt *. n /. demand)) :: rest
              | [] -> ())
          grants;
        now := !now +. dt)
  in
  drain ();
  while unfinished () <> [] do
    tick ();
    drain ()
  done;
  let placements =
    List.map
      (fun s ->
        let finish = Option.value s.st_finish ~default:s.st_submit in
        let start = Option.value s.st_start ~default:s.st_submit in
        {
          p_id = s.st_id;
          p_submit_s = s.st_submit;
          p_start_s = start;
          p_finish_s = finish;
          p_queue_s = Float.max 0.0 (finish -. s.st_submit -. s.st_exec);
          p_slot_seconds = s.st_slot_seconds;
        })
      states
  in
  let busy =
    List.fold_left (fun acc p -> acc +. p.p_slot_seconds) 0.0 placements
  in
  let makespan =
    match placements with
    | [] -> 0.0
    | first :: _ ->
      let last_finish =
        List.fold_left
          (fun acc p -> Float.max acc p.p_finish_s)
          first.p_finish_s placements
      in
      Float.max 0.0 (last_finish -. first.p_submit_s)
  in
  let capacity = pool *. makespan in
  {
    placements;
    makespan_s = makespan;
    busy_slot_seconds = busy;
    capacity_slot_seconds = capacity;
    utilization = (if capacity > eps then busy /. capacity else 0.0);
  }

let placement t id = List.find_opt (fun p -> p.p_id = id) t.placements
