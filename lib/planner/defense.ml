type state = Armed | Cooling | Off

type t = {
  k : int;
  st : state;
  consecutive : int;
  escapes : int;
  fallbacks : int;
}

let create ~k =
  if k < 1 then invalid_arg "Defense.create: k must be >= 1";
  { k; st = Armed; consecutive = 0; escapes = 0; fallbacks = 0 }

let state t = t.st
let escapes t = t.escapes
let fallbacks t = t.fallbacks
let tripped t = t.st = Off

let arm_for_next t =
  match t.st with
  | Armed -> (true, t)
  | Off -> (false, t)
  | Cooling ->
    (* One heuristic query pays the fallback, then the optimizer
       re-arms: a single misestimate costs one query, only a streak
       trips the breaker. *)
    (false, { t with st = Armed; fallbacks = t.fallbacks + 1 })

let observe t ~escaped =
  match t.st with
  | Off | Cooling -> t
  | Armed ->
    if escaped then
      let consecutive = t.consecutive + 1 in
      {
        t with
        st = (if consecutive >= t.k then Off else Cooling);
        consecutive;
        escapes = t.escapes + 1;
      }
    else { t with consecutive = 0 }

let state_name = function
  | Armed -> "armed"
  | Cooling -> "cooling"
  | Off -> "off"
