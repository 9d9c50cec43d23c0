(** Robust cost-based planner: interval-aware join enumeration, a
    self-invalidating plan cache, and the decision record front ends
    render.

    [plan] enumerates star-join orders for every multi-star unit of an
    analytical query — each subquery, plus the composite (MQO) pattern
    when it applies — costed by {!Cost_model} over [Card_analysis]
    intervals and selected under a robustness {!Cost_model.policy}.
    Every enumerated order is checked with
    [Plan_verify.verify_join_order] before it can execute; a rejected
    order falls back to the verified heuristic plan, never an abort.
    The resulting hints travel to the engines as
    [Plan_util.options.join_orders] (see {!apply}); with no hints
    installed execution is byte-identical to the heuristic planner. *)

module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Card = Rapida_analysis.Interval.Card
module Stats_catalog = Rapida_analysis.Stats_catalog
module Cluster = Rapida_mapred.Cluster

(** {1 Fingerprints} *)

(** FNV-1a 64-bit hash (exposed for tests). *)
val fnv1a64 : string -> int64

(** [shape_fingerprint policy q] hashes the canonical [To_sparql]
    rendering of [q] together with the policy name — queries that
    re-render identically share a cache entry per policy. *)
val shape_fingerprint : Cost_model.policy -> Analytical.t -> int64

(** [catalog_fingerprint cat] hashes the catalog's canonical JSON: any
    statistics change yields a new fingerprint and invalidates every
    cached plan derived from the old one. *)
val catalog_fingerprint : Stats_catalog.t -> int64

val fingerprint_hex : int64 -> string

(** {1 Heuristic order} *)

(** [heuristic_order ~star_ids ~edges] is the star visit order the
    pre-optimizer greedy edge ordering produces ([[]] when the pattern
    is disconnected) — the baseline plans are compared against and the
    misestimate-defense fallback. *)
val heuristic_order : star_ids:int list -> edges:Star.edge list -> int list

(** {1 Decisions} *)

type unit_decision = {
  u_key : int;  (** subquery id, or [-1] for the composite pattern *)
  u_label : string;
  u_order : int list;  (** the order that will execute *)
  u_cost : Cost_model.scenario;
  u_heuristic : Join_enum.candidate option;
  u_candidates : Join_enum.candidate list;
  u_exhaustive : bool;
  u_verified : bool;
      (** the enumerated order passed [Plan_verify]; when [false],
          [u_order] is the heuristic fallback and no hint is emitted *)
}

type decision = {
  d_policy : Cost_model.policy;
  d_units : unit_decision list;
  d_join_orders : (int * int list) list;  (** verified hints only *)
  d_root : Card.t;
      (** the analyzer's sound root interval — what the runtime
          misestimate defense compares measured cardinality against *)
}

val join_orders : decision -> (int * int list) list

(** [plan ?policy ?cluster catalog q] enumerates and selects join
    orders for [q]. Defaults: [Worst_case] policy (minimize the
    upper-bound cost), {!Cluster.default}. Units the enumerator cannot
    handle (single star, disconnected, >{!Join_enum.max_stars} stars)
    are simply absent — their plans stay heuristic. *)
val plan :
  ?policy:Cost_model.policy ->
  ?cluster:Cluster.t ->
  Stats_catalog.t ->
  Analytical.t ->
  decision

(** [apply d options] arms [options] with the decision: installs [d]'s
    verified join-order hints. *)
val apply :
  decision -> Rapida_core.Plan_util.options -> Rapida_core.Plan_util.options

(** {1 Cached planning} *)

type cache = decision Plan_cache.t

val create_cache : capacity:int -> cache

(** [plan_cached ~cache ~catalog ~catalog_fp ?policy ?cluster q] returns
    the cached decision for [q]'s shape fingerprint when it was derived
    under [catalog_fp] — a [`Hit] runs no enumeration at all — and
    plans + caches otherwise. [catalog_fp] must be
    [catalog_fingerprint catalog] (passed in so servers hash the
    catalog once, not per query). *)
val plan_cached :
  cache:cache ->
  catalog:Stats_catalog.t ->
  catalog_fp:int64 ->
  ?policy:Cost_model.policy ->
  ?cluster:Cluster.t ->
  Analytical.t ->
  decision * [ `Hit | `Miss ]

(** {1 Rendering} *)

val pp_decision : decision Fmt.t
val decision_to_json : decision -> Rapida_mapred.Json.t
