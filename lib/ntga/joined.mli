(** Joined (annotated) triplegroups: the result of joining triplegroups
    from different star equivalence classes. Each part is tagged with the
    star index it matched in the (composite) graph pattern. *)

open Rapida_rdf

(** Private so that [size] always holds {!size_bytes}: {!of_tg} and
    {!join} set it, which makes pricing a joined triplegroup O(1). *)
type t = private {
  parts : (int * Triplegroup.t) list;  (** sorted by star index *)
  size : int;
}

(** [empty] has no parts; [join empty t] is [t]. *)
val empty : t

val of_tg : int -> Triplegroup.t -> t

(** [join a b] concatenates the parts of two joined triplegroups.
    @raise Invalid_argument if a star index occurs in both. *)
val join : t -> t -> t

(** [part t i] is the triplegroup matched at star [i], if present. *)
val part : t -> int -> Triplegroup.t option

(** [has_prop t p] tests whether any part contains property [p]. *)
val has_prop : t -> Term.t -> bool

(** Serialized size estimate: a 4-byte header plus each part's
    {!Triplegroup.size_bytes}. *)
val size_bytes : t -> int
val pp : t Fmt.t
