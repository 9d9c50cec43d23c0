open Rapida_rdf
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Vp_store = Rapida_relational.Vp_store
module Tg_store = Rapida_ntga.Tg_store
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Trace = Rapida_mapred.Trace
module Workflow = Rapida_mapred.Workflow

type kind = Hive_naive | Hive_mqo | Rapid_plus | Rapid_analytics

let all_kinds = [ Hive_naive; Hive_mqo; Rapid_plus; Rapid_analytics ]

let kind_name = function
  | Hive_naive -> "hive-naive"
  | Hive_mqo -> "hive-mqo"
  | Rapid_plus -> "rapid-plus"
  | Rapid_analytics -> "rapid-analytics"

let kind_of_string = function
  | "hive-naive" | "hive" -> Some Hive_naive
  | "hive-mqo" | "mqo" -> Some Hive_mqo
  | "rapid-plus" | "rapid+" -> Some Rapid_plus
  | "rapid-analytics" | "ra" -> Some Rapid_analytics
  | _ -> None

type input = {
  graph : Graph.t;
  tg_store : Tg_store.t Lazy.t;
  vp : Vp_store.t Lazy.t;
}

let input_of_graph graph =
  {
    graph;
    tg_store = lazy (Tg_store.of_graph graph);
    vp = lazy (Vp_store.of_graph graph);
  }

let graph_of_input input = input.graph
let input_vp input = Lazy.force input.vp
let input_tg_store input = Lazy.force input.tg_store

type output = { table : Table.t; stats : Stats.t; trace : Trace.t }

type error =
  | Parse_error of string
  | Plan_rejected of string
  | Job_failed of Workflow.abort

let error_message = function
  | Parse_error msg -> msg
  | Plan_rejected msg -> msg
  | Job_failed abort -> Fmt.str "%a" Workflow.pp_abort abort

let pp_error ppf e = Fmt.string ppf (error_message e)

(* Parse errors are what the user typed — a usage error (exit 2, like an
   unreadable file); everything after a successful parse is a runtime
   failure (exit 1). *)
let error_exit_code = function Parse_error _ -> 2 | _ -> 1
let error_transient = function Job_failed _ -> true | _ -> false

type session = { s_kind : kind; s_input : input }

let prepare kind input =
  (* Force the storage layout this engine kind scans, so every later
     [execute] starts from prepared storage. *)
  (match kind with
  | Hive_naive | Hive_mqo -> ignore (Lazy.force input.vp)
  | Rapid_plus | Rapid_analytics -> ignore (Lazy.force input.tg_store));
  { s_kind = kind; s_input = input }

let session_kind s = s.s_kind
let session_input s = s.s_input

(* The one error boundary of an engine run: a workflow that exhausts its
   whole-job retries, and a query the engine has no plan for, surface as
   structured errors, never as escaping exceptions. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Workflow.Aborted a -> Error (Job_failed a)
  | exception (Failure msg | Invalid_argument msg) -> Error (Plan_rejected msg)

let execute session ctx query =
  let { s_kind = kind; s_input = input } = session in
  let run () =
    match kind with
    | Hive_naive -> Hive_naive.run ctx (Lazy.force input.vp) query
    | Hive_mqo -> Hive_mqo.run ctx (Lazy.force input.vp) query
    | Rapid_plus -> Rapid_plus.run ctx (Lazy.force input.tg_store) query
    | Rapid_analytics ->
      Rapid_analytics.run ctx (Lazy.force input.tg_store) query
  in
  Result.map
    (fun (table, stats) -> { table; stats; trace = Exec_ctx.trace ctx })
    (guard run)

let execute_sparql session ctx src =
  match Analytical.parse src with
  | Error msg -> Error (Parse_error msg)
  | Ok query -> execute session ctx query
