(** The [key=value] spec format shared by the simulated cluster's CLI
    knobs ([--faults], [--mem], [--checkpoint]).

    A spec is a comma-separated list of [key=value] pairs. Pairs, keys and
    values are trimmed; empty pairs are skipped; later pairs override
    earlier ones; unspecified keys keep the caller's default. Every
    diagnostic is one line prefixed with the flag name, e.g.
    [--mem: heap expects a size (bytes, or with a k/m/g suffix), got "x"]. *)

(** A field sets one key of a ['c] config from its value text; [Error]
    carries what the value should have been (["an integer"]). *)
type 'c field = 'c -> string -> ('c, string) result

(** An integer. *)
val int : ('c -> int -> 'c) -> 'c field

(** A float. *)
val float : ('c -> float -> 'c) -> 'c field

(** A non-negative byte size: plain bytes, or with a [k]/[m]/[g] suffix
    in either case (binary units). *)
val bytes : ('c -> int -> 'c) -> 'c field

(** One of the listed words; [expects] names them in diagnostics
    (["on or off"]). *)
val choice : expects:string -> (string * 'a) list -> ('c -> 'a -> 'c) -> 'c field

(** [parse ~flag ?bare ~check fields default spec] folds [spec]'s pairs
    over [default] through the [fields] table (keyed by name), then
    validates the result with [check] (a module's [create]), whose
    [Invalid_argument] message becomes the error. A pair without [=] must
    be one of the [bare] words. *)
val parse :
  flag:string ->
  ?bare:(string * ('c -> 'c)) list ->
  check:('c -> 'c) ->
  (string * 'c field) list ->
  'c ->
  string ->
  ('c, string) result

(** A byte count in the largest binary unit that divides it exactly
    ([64m], [512k], [4096]) — readable back by {!bytes}. *)
val pp_bytes : int Fmt.t
