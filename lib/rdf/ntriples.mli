(** N-Triples serialization and parsing.

    Covers the subset emitted by {!Term.to_ntriples}: IRIs, blank nodes,
    plain strings, and typed literals with the XSD datatypes this library
    produces.

    Real datasets are dirty, so parsing supports three read modes:
    [Strict] (any malformed line fails the load — the historical
    behaviour), [Skip budget] (up to [budget] malformed lines are
    quarantined and the rest of the document loads), and [Quarantine]
    (every malformed line is quarantined). Quarantined lines come back
    with located errors — 1-based line and column — so corrupt records
    can be reported precisely and repaired. *)

val triple_to_line : Triple.t -> string

(** A parse error located at a 1-based line and column. Columns are
    relative to the trimmed line, matching the historical string
    errors. *)
type located_error = { l_line : int; l_col : int; l_reason : string }

(** ["line %d: col %d: %s"] — the exact format the string-returning
    shims ({!parse_string}, {!read_file}) have always reported. *)
val string_of_error : located_error -> string

val pp_error : located_error Fmt.t

(** [parse_line_located ~line s] parses one N-Triples line, tagging any
    error with [line]. Blank lines and [#] comments yield [Ok None]. *)
val parse_line_located :
  line:int -> string -> (Triple.t option, located_error) result

(** [parse_line s] parses one N-Triples line. Blank lines and [#] comments
    yield [Ok None]. Errors are rendered ["col %d: %s"] (shim over
    {!parse_line_located}). *)
val parse_line : string -> (Triple.t option, string) result

(** How to treat malformed lines in a whole-document load. *)
type mode =
  | Strict  (** fail on the first malformed line *)
  | Skip of int  (** quarantine up to this many lines, then fail *)
  | Quarantine  (** quarantine every malformed line *)

(** Parse a CLI [--dirty-input] mode: [strict], [skip] (budget 100),
    [skip=N], or [quarantine]. *)
val parse_mode : string -> (mode, string) result

(** A malformed line set aside by [Skip]/[Quarantine]: its trimmed text
    and the located parse error. *)
type quarantined = { q_text : string; q_error : located_error }

(** One quarantine-report entry: ["line %d, col %d: %s: %S"]. *)
val pp_quarantined : quarantined Fmt.t

type load = {
  triples : Triple.t list;  (** well-formed lines, in document order *)
  quarantined : quarantined list;  (** malformed lines, in document order *)
}

(** [parse_string_mode mode s] parses an entire N-Triples document under
    [mode]. [Error] carries the first malformed line beyond the mode's
    budget ([Strict] fails on the first, [Skip n] on the [n+1]-th). *)
val parse_string_mode : mode -> string -> (load, located_error) result

(** [parse_string s] parses an entire N-Triples document, stopping at
    the first malformed line (shim: [Strict] with string errors). *)
val parse_string : string -> (Triple.t list, string) result

val write_file : string -> Triple.t list -> unit

val read_file_mode : mode -> string -> (load, located_error) result

val read_file : string -> (Triple.t list, string) result
