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
    planner options, and collects the per-phase trace and counters as the
    simulated jobs execute. Create a fresh context per query run (e.g.
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
      resubmissions and aborted (the {!Workflow.Aborted} payload).
    - [Verify_failed]: the session's static plan verifier rejected the
      run ({!Exec_ctx.verify_plans} was set and the verifier returned
      problems). *)
type error =
  | Parse_error of string
  | Plan_rejected of string
  | Job_failed of Workflow.abort
  | Verify_failed of { kind : kind; problems : string list }

val pp_error : error Fmt.t

(** [error_message e] is the one-line rendering of [e]. *)
val error_message : error -> string

(** [error_exit_code e] maps an error onto the CLI's exit-code
    convention, in one place: 2 (usage) for {!Parse_error}, 1 (runtime
    failure) for everything else. *)
val error_exit_code : error -> int

(** [error_transient e] is true when retrying the same query later could
    plausibly succeed — only {!Job_failed}, whose fault fates are drawn
    per attempt. [Parse_error], [Plan_rejected], and [Verify_failed] are
    deterministic properties of the query and plan; a circuit breaker
    must not trip on them. *)
val error_transient : error -> bool

(** A verifier re-checks a finished run: [f kind query table] returns
    human-readable problems; a non-empty list fails the execution with
    {!Verify_failed}. Consulted only when the execution's context has
    {!Exec_ctx.verify_plans} set. *)
type verifier = kind -> Analytical.t -> Table.t -> string list

(** An engine kind bound to a prepared dataset. Sessions are immutable
    and cheap to copy around; the expensive part — forcing the storage
    layout the kind scans — happens once in {!prepare}. Each session
    carries its own plan-verifier hook, so concurrent sessions (a query
    server running many queries with different [verify_plans] settings)
    can never race on, or cross-contaminate through, process-global
    state. *)
type session

(** [prepare ?verifier kind input] builds the session: forces the
    storage layout [kind] scans and captures the verifier — [?verifier]
    when given, otherwise the process default registered by
    {!set_default_verifier} (the accept-everything verifier until
    [Rapida_analysis.Plan_verify.install_engine_hook] runs). *)
val prepare : ?verifier:verifier -> kind -> input -> session

val session_kind : session -> kind
val session_input : session -> input

(** The verifier this session captured at {!prepare} time. Exposed so
    {!Batch_exec} can verify shared-plan members exactly as {!execute}
    verifies solo runs. *)
val session_verifier : session -> verifier

(** [guard f] runs one engine evaluation [f ()] behind the engines' one
    error boundary: {!Workflow.Aborted} becomes [Job_failed], and
    [Failure] or [Invalid_argument] (no plan for the query) becomes
    [Plan_rejected]. Used by {!execute} and by {!Batch_exec}'s shared
    plans. *)
val guard : (unit -> 'a) -> ('a, error) result

(** [execute session ctx query] evaluates an analytical query with the
    session's engine, recording telemetry into [ctx]. When the context
    has [verify_plans] set, the session's verifier re-checks the
    optimizer invariants and result schema after the run — out of band,
    so cost-model outputs are unchanged. *)
val execute :
  session -> Exec_ctx.t -> Analytical.t -> (output, error) result

(** [execute_sparql session ctx src] parses and executes. *)
val execute_sparql :
  session -> Exec_ctx.t -> string -> (output, error) result

(** [set_default_verifier f] registers the verifier that {!prepare}
    captures when none is passed explicitly. Registered by
    [Rapida_analysis.Plan_verify.install_engine_hook] — a registry,
    rather than a direct call, because the analysis library depends on
    this one. Affects only sessions prepared {e after} the call;
    existing sessions keep the verifier they captured. *)
val set_default_verifier : verifier -> unit
