(** Runtime misestimate defense: per-session optimizer circuit breaker.

    The caller compares each optimized run's measured cardinality
    against the predicted interval and reports the outcome with
    {!observe}. An escape puts the breaker in [Cooling]: the next query
    runs on the heuristic (pre-optimizer) plan via the degradation
    machinery, then the optimizer re-arms. [k] {e consecutive} escapes
    trip the breaker to [Off] permanently for the session — a broken
    catalog can never make answers slower than the heuristic baseline
    indefinitely. Clean optimized runs reset the consecutive count.
    A [t] is immutable: each step returns the next value. *)

type state = Armed | Cooling | Off

type t

(** [create ~k] starts [Armed]; [k] consecutive misestimates trip it.
    @raise Invalid_argument when [k < 1]. *)
val create : k:int -> t

val state : t -> state

(** Total misestimate escapes observed. *)
val escapes : t -> int

(** Heuristic fallback queries actually taken (each [Cooling] →
    [Armed] transition). *)
val fallbacks : t -> int

(** The breaker is [Off]: optimizer disabled for the session. *)
val tripped : t -> bool

(** [arm_for_next t] decides the next query's planning mode: [true] —
    plan with the optimizer; [false] — use the heuristic plan — and
    returns the defense after the decision. Consuming a [Cooling] state
    counts a fallback and re-arms. *)
val arm_for_next : t -> bool * t

(** [observe t ~escaped] is the defense after the outcome of an
    {e optimized} run (callers must not report heuristic runs). An
    escape increments the counters and cools (or trips) the breaker; a
    clean run resets the consecutive streak. *)
val observe : t -> escaped:bool -> t

val state_name : state -> string
