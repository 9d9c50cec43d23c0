(** NTGA physical operators over the MapReduce simulator (paper §4,
    Algorithms 1–3).

    [join_cycle] is one MR cycle combining map-side triplegroup filtering
    (TG_OptGrpFilter pipelined into the map phase, Algorithm 1) with the
    reduce-side TG_AlphaJoin (Algorithm 2). [agg_cycle] is the TG_AgJ
    operator (Algorithm 3): several independent Agg-Joins evaluated in the
    same cycle, with hash-based partial aggregation standing in for the
    per-mapper combiner. *)

module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Triplegroup = Rapida_ntga.Triplegroup
module Joined = Rapida_ntga.Joined
module Ops = Rapida_ntga.Ops
module Workflow = Rapida_mapred.Workflow
module Table = Rapida_relational.Table

(** One side of a triplegroup join: either raw triplegroups refined
    map-side (group filter + projection; [None] = filtered out) and tagged
    with the star index they match, or the joined output of a previous
    cycle. *)
type source =
  | Tgs of {
      tgs : Triplegroup.t list;
      refine : Triplegroup.t -> Triplegroup.t option;
      star : int;
    }
  | Pre of Joined.t list

(** [refined source] is what [source] contributes to a cycle's map
    phase: each raw triplegroup refined and tagged with its star index
    (those refined away dropped), or the previous cycle's output as is. *)
val refined : source -> Joined.t list

(** [join_cycle wf ~name ~left ~right ~left_key ~right_key ~keep] runs one
    MR cycle joining the two sources on their key values, keeping only
    combined triplegroups for which [keep] holds (the α-condition test). *)
val join_cycle :
  Workflow.t -> name:string -> left:source -> right:source ->
  left_key:Ops.join_key -> right_key:Ops.join_key ->
  keep:(Joined.t -> bool) -> Joined.t list

(** One Agg-Join of a multi-aggregation cycle, with its star patterns
    compiled for the implicit n-split of Algorithm 3. *)
type agj

(** [agj ~id ~stars ~filters ~group_by ~aggregates ~alpha] compiles one
    Agg-Join. [stars] maps joined-part indexes to the original star
    patterns whose bindings drive the grouping; [filters] are evaluated
    on every binding; [alpha] drops joined triplegroups that do not match
    the Agg-Join's pattern. *)
val agj :
  id:int -> stars:(int * Star.t) list -> filters:Ast.expr list ->
  group_by:Ast.var list -> aggregates:Analytical.aggregate list ->
  alpha:(Joined.t -> bool) -> agj

(** [agg_cycle wf ~name ~combiner ~input agjs] evaluates all Agg-Joins
    over the same detail input in a single MR cycle and returns one
    result table per Agg-Join (schema: group variables then aggregate
    outputs), in [agjs] order. [combiner] enables the per-mapper
    hash-based partial aggregation of Algorithm 3. *)
val agg_cycle :
  Workflow.t -> name:string -> combiner:bool -> input:Joined.t list ->
  agj list -> Table.t list
