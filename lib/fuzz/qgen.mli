(** Seeded generator of random analytical queries.

    Queries are drawn from the analytical fragment the engines accept:
    star-shaped basic graph patterns (chained through link predicates so
    multi-star joins stay connected), numeric FILTERs, GROUP BY (including
    the empty GROUP BY ALL), COUNT/SUM/AVG/MIN/MAX aggregates, HAVING,
    grouping-sets-style multi-subquery queries, and outer ORDER BY/LIMIT.

    Generation is biased by a {!Rapida_analysis.Stats_catalog} built from
    the target graph: predicates, classes, and filter thresholds are drawn
    from what the data actually contains ({!Hitting}), so most queries
    return rows and the differential oracle compares non-trivial results.
    {!Adversarial} mode deliberately misses — unknown predicates and
    classes, thresholds outside every literal range — to exercise the
    empty-result and statically-empty paths. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast

type mode = Hitting | Adversarial

(** The generator's view of a dataset: predicate/class vocabulary with
    statistics, numeric ranges for threshold placement, and the
    predicate-to-predicate link map used to chain stars. *)
type env

val env_of_graph : Graph.t -> Rapida_analysis.Stats_catalog.t -> env

(** [generate rng env ~mode] draws one random analytical query. The
    result parses back through {!Rapida_sparql.To_sparql} and, except
    for a small adversarial tail, passes
    {!Rapida_sparql.Analytical.of_query}. *)
val generate : Rapida_datagen.Prng.t -> env -> mode:mode -> Ast.query

(** [shape q] is a coarse label of the query's dominant feature —
    ["gsets"], ["join"], ["having"], ["filter"], ["order"], or ["star"] —
    used to name corpus entries and bucket coverage counts. *)
val shape : Ast.query -> string

(** [random_bytes rng ~max_len] is an arbitrary byte string for the
    robustness oracle's parser fuzzing. *)
val random_bytes : Rapida_datagen.Prng.t -> max_len:int -> string

(** [mutate_text rng s] applies one random byte-level mutation (flip,
    insert, delete, truncate, duplicate) to [s]. *)
val mutate_text : Rapida_datagen.Prng.t -> string -> string
