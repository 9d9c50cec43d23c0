(** Engine dispatch: the four evaluation strategies the paper compares,
    behind one prepared-session interface.

    The entry point is prepare-once / execute-many: {!prepare} binds an
    engine kind to a dataset (forcing the storage layout that engine
    reads — vertically partitioned tables for the Hive kinds, the
    triplegroup store for the NTGA kinds — exactly once), and {!execute}
    evaluates any number of queries against the prepared session. This is
    the shape a query server needs: storage preparation is paid per
    dataset, not per query, and every per-query knob travels in the
    {!Rapida_mapred.Exec_ctx} passed to each execution.

    Every execution goes through an execution context
    ({!Rapida_mapred.Exec_ctx}): the context picks the cluster model and
    planner options, and collects the per-phase trace as the simulated
    jobs execute; the output's {!Rapida_mapred.Stats} holds their counts. Create a fresh context per query run (e.g.
    with {!Plan_util.context}) so the telemetry attributes to a single
    execution. *)

open Rapida_rdf
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Trace = Rapida_mapred.Trace
module Workflow = Rapida_mapred.Workflow

type kind = Hive_naive | Hive_mqo | Rapid_plus | Rapid_analytics

val all_kinds : kind list
val kind_name : kind -> string
val kind_of_string : string -> kind option

(** Prepared inputs: both storage layouts are built lazily from the graph
    so a benchmark can prepare once and run many queries. *)
type input

val input_of_graph : Graph.t -> input
val graph_of_input : input -> Graph.t

(** The prepared storage layouts, forcing them on first use: the
    vertically partitioned tables the Hive engines scan, and the
    triplegroup store the NTGA engines scan. Exposed for {!Batch_exec},
    which runs the engines' shared composite plans directly. *)
val input_vp : input -> Rapida_relational.Vp_store.t

val input_tg_store : input -> Rapida_ntga.Tg_store.t

type output = {
  table : Table.t;
  stats : Stats.t;
  trace : Trace.t;  (** the context's trace, one span per simulated phase *)
}

(** Why an execution failed. The payloads carry everything the old
    stringly errors flattened away:

    - [Parse_error]: the query text is outside the grammar or the
      analytical fragment ({!execute_sparql} only). A usage error — the
      CLI maps it to exit code 2.
    - [Plan_rejected]: the engine produced no plan for this (parsed)
      query — an unbound property, a filter over variables the pattern
      never binds, a disconnected join graph. Deterministic: retrying
      the same query cannot succeed.
    - [Job_failed]: a simulated workflow ran out of whole-job
      resubmissions and aborted (the {!Workflow.Aborted} payload). *)
type error =
  | Parse_error of string
  | Plan_rejected of string
  | Job_failed of Workflow.abort

val pp_error : error Fmt.t

(** [error_message e] is the one-line rendering of [e]. *)
val error_message : error -> string

(** [error_exit_code e] maps an error onto the CLI's exit-code
    convention, in one place: 2 (usage) for {!Parse_error}, 1 (runtime
    failure) for everything else. *)
val error_exit_code : error -> int

(** [error_transient e] is true when retrying the same query later could
    plausibly succeed — only {!Job_failed}, whose fault fates are drawn
    per attempt. [Parse_error] and [Plan_rejected] are deterministic
    properties of the query and plan; a circuit breaker must not trip on
    them. *)
val error_transient : error -> bool

(** An engine kind bound to a prepared dataset. Sessions are immutable
    and cheap to copy around; the expensive part — forcing the storage
    layout the kind scans — happens once in {!prepare}. *)
type session

(** [prepare kind input] builds the session and forces the storage
    layout [kind] scans. *)
val prepare : kind -> input -> session

val session_kind : session -> kind
val session_input : session -> input

(** [guard f] runs one engine evaluation [f ()] behind the engines' one
    error boundary: {!Workflow.Aborted} becomes [Job_failed], and
    [Failure] or [Invalid_argument] (no plan for the query) becomes
    [Plan_rejected]. Used by {!execute} and by {!Batch_exec}'s shared
    plans. *)
val guard : (unit -> 'a) -> ('a, error) result

(** [execute session ctx query] evaluates an analytical query with the
    session's engine, recording telemetry into [ctx]. *)
val execute :
  session -> Exec_ctx.t -> Analytical.t -> (output, error) result

(** [execute_sparql session ctx src] parses and executes. *)
val execute_sparql :
  session -> Exec_ctx.t -> string -> (output, error) result
