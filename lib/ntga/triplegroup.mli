(** Triplegroups: the unit of the Nested TripleGroup Algebra (NTGA).

    A subject triplegroup is the set of triples sharing a subject — the
    denormalized "star" representation that lets NTGA evaluate all star
    joins of a query concurrently and represent intermediate results
    compactly (one triplegroup stands for the cross product of its
    multi-valued properties). *)

open Rapida_rdf

(** Private so that every triplegroup is built through {!make}, which
    leaves [size] unset; {!size_bytes} fills it on first use. *)
type t = private {
  subject : Term.t;
  triples : Triple.t list;
  mutable size : int;  (** memo of {!size_bytes}; [-1] until first read *)
}

val make : Term.t -> Triple.t list -> t

(** [props tg] is the sorted set of distinct properties in [tg]. *)
val props : t -> Term.t list

(** [has_prop tg p] tests property membership. *)
val has_prop : t -> Term.t -> bool

(** [objects_of tg p] is the object values of property [p] in order. *)
val objects_of : t -> Term.t -> Term.t list

(** [project tg props] keeps only triples whose property is in [props]. *)
val project : t -> Term.t list -> t

(** [union a b] merges two triplegroups with the same subject, dropping
    duplicate triples.
    @raise Invalid_argument if the subjects differ. *)
val union : t -> t -> t

(** [of_graph g] is all subject triplegroups of a graph. *)
val of_graph : Graph.t -> t list

(** Serialized size estimate for MapReduce cost accounting: 4 bytes of
    header plus {!Rapida_rdf.Triple.size_bytes} of each triple. Computed
    on first use and memoized in the triplegroup, so pricing the same
    triplegroup again (a stored one is read by every query) is O(1). *)
val size_bytes : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : t Fmt.t
