(** Vertical partitioning (Abadi et al.) of an RDF graph into relational
    tables: one two-column (s, o) table per property, with [rdf:type]
    triples further partitioned by object into one-column subject tables —
    the pre-processing the paper applies for its Hive baselines. *)

open Rapida_rdf

type t

(** [of_graph g] partitions the graph. *)
val of_graph : Graph.t -> t

(** [property_table store p] is the (s, o) table for property [p]; empty
    when the property is absent. For [rdf:type] use {!type_table}. *)
val property_table : t -> Term.t -> Table.t

(** [type_table store class_] is the one-column table of subjects of type
    [class_]. *)
val type_table : t -> Term.t -> Table.t

(** Every (property, (s, o) table) partition except [rdf:type]. *)
val property_partitions : t -> (Term.t * Table.t) list

(** Every (class, (s) table) partition of the [rdf:type] triples. *)
val type_partitions : t -> (Term.t * Table.t) list

(** [stats store] is (number of partitions, total bytes). *)
val stats : t -> int * int

val pp : t Fmt.t
