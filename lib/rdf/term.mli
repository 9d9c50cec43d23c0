(** RDF terms: IRIs, literals, and blank nodes.

    Terms are the atomic values of the RDF data model. Literals carry a
    lexical form plus a coarse datatype tag that is sufficient for the
    aggregation functions of SPARQL analytical queries (numeric SUM / AVG /
    MIN / MAX over integers and decimals, COUNT over anything). *)

(** Coarse literal datatypes. [Dstring] covers plain and language-tagged
    strings; [Dint] and [Ddecimal] cover the XSD numeric types used by the
    benchmark workloads; [Ddate] keeps dates ordered lexicographically. *)
type datatype = Dstring | Dint | Ddecimal | Dboolean | Ddate

type literal = { lex : string; datatype : datatype }

(** Terms are hash-consed: the constructors below return the one block
    held for each distinct term in a process-global weak table, so equal
    terms are physically equal. The type is [private] so that no other
    block can be built; matching on it is unrestricted. The table is not
    domain-safe. *)
type t = private
  | Iri of string
  | Literal of literal
  | Bnode of string

(** [compare] orders IRIs before literals before blank nodes, literals
    by datatype then lexical form. It returns [0] exactly when [==]. *)
val compare : t -> t -> int

(** [equal a b] is [a == b], the same relation as [compare a b = 0]. *)
val equal : t -> t -> bool

(** [hash] is structural, so it does not depend on addresses. *)
val hash : t -> int

(** {1 Constructors} *)

val iri : string -> t
val str : string -> t
val int : int -> t
val decimal : float -> t
val boolean : bool -> t
val date : string -> t
val bnode : string -> t

(** [literal lex datatype] is the literal with that lexical form and tag. *)
val literal : string -> datatype -> t

(** [typed lex datatype_iri] builds a literal from a lexical form and an
    XSD datatype IRI; unknown datatypes default to plain strings. *)
val typed : string -> string -> t

(** [datatype_of_iri iri] maps an XSD datatype IRI to the coarse tag. *)
val datatype_of_iri : string -> datatype option

(** {1 Accessors} *)

(** [as_number t] is the numeric value of a literal term, if any. Integer
    and decimal literals (and numeric-looking strings) convert; everything
    else is [None]. *)
val as_number : t -> float option

(** [as_int t] is [as_number t] truncated to an integer. *)
val as_int : t -> int option

(** [lexical t] is the lexical form: the IRI text, the literal's lexical
    form, or the blank-node label. *)
val lexical : t -> string

val is_iri : t -> bool

(** {1 Printing} *)

(** [pp] prints a compact human-readable form ([<iri>], ["lit"], [_:b]). *)
val pp : t Fmt.t

val to_string : t -> string

(** [to_ntriples t] is the canonical N-Triples serialization of [t]. *)
val to_ntriples : t -> string
