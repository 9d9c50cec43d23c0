(** Hive-style relational physical operators over the MapReduce
    simulator. Each call runs one MR cycle on the given workflow (map-only
    for map-side joins) and returns the result table.

    These mirror how Hive compiles a star-join + aggregation query:
    repartition joins shuffle both inputs on the join key; map-joins
    broadcast a small table and stream the big one in a map-only cycle;
    GROUP BY shuffles partial aggregation states computed map-side (the
    combiner / hash-aggregation optimization). *)

val repartition_join :
  Rapida_mapred.Workflow.t -> name:string -> Table.t -> Table.t -> Table.t

(** [map_join wf ~name ~big ~small] broadcasts [small] to all mappers.
    [small] must be the right side of the natural join. The broadcast
    table's hash index ({!Relops.hash_probe}) is built once per join,
    like Hive's per-task MapJoin hash table, and every [big] row probes
    it; that single broadcast is what the cost model prices. The rows
    and their order are those of {!Relops.hash_join}. *)
val map_join :
  Rapida_mapred.Workflow.t ->
  name:string -> big:Table.t -> small:Table.t -> unit -> Table.t

val group_aggregate :
  Rapida_mapred.Workflow.t ->
  name:string -> keys:string list -> aggs:Relops.agg_spec list ->
  Table.t -> Table.t

(** [distinct_project wf ~name ~cols t] is SELECT DISTINCT cols — one MR
    cycle. *)
val distinct_project :
  Rapida_mapred.Workflow.t -> name:string -> cols:string list -> Table.t ->
  Table.t
