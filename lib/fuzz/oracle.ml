open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Parser = Rapida_sparql.Parser
module Analytical = Rapida_sparql.Analytical
module To_sparql = Rapida_sparql.To_sparql
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Ref_engine = Rapida_ref.Ref_engine
module Stats_catalog = Rapida_analysis.Stats_catalog
module Card_analysis = Rapida_analysis.Card_analysis
module Interval = Rapida_analysis.Interval
module Plan_verify = Rapida_analysis.Plan_verify
module Diagnostic = Rapida_analysis.Diagnostic
module Prng = Rapida_datagen.Prng
module Planner = Rapida_planner.Planner
module Cost_model = Rapida_planner.Cost_model

type name = Differential | Metamorphic | Analyzer | Robustness

let all = [ Differential; Metamorphic; Analyzer; Robustness ]

let name_to_string = function
  | Differential -> "differential"
  | Metamorphic -> "metamorphic"
  | Analyzer -> "analyzer"
  | Robustness -> "robustness"

let name_of_string = function
  | "differential" -> Some Differential
  | "metamorphic" -> Some Metamorphic
  | "analyzer" -> Some Analyzer
  | "robustness" -> Some Robustness
  | _ -> None

type verdict = Pass | Skip of string | Violation of string

type env = {
  graph : Graph.t;
  catalog : Stats_catalog.t;
  input : Engine.input;
  sessions : (Engine.kind * Engine.session) list;
  base_options : Plan_util.options;
  knobs : Knobs.t list;
  break_table : (Engine.kind * (Table.t -> Table.t)) option;
}

let make_env ?break_table ?(knobs = []) graph =
  let input = Engine.input_of_graph graph in
  let sessions =
    List.map (fun kind -> (kind, Engine.prepare kind input)) Engine.all_kinds
  in
  {
    graph;
    catalog = Stats_catalog.build graph;
    input;
    sessions;
    base_options = Plan_util.default_options;
    knobs;
    break_table;
  }

let env_catalog env = env.catalog

type case = { c_text : string; c_query : Ast.query option }

let case_of_query q = { c_text = To_sparql.query q; c_query = Some q }

let case_of_text text =
  { c_text = text; c_query = Result.to_option (Parser.parse text) }

(* Run one engine on an analytical query and check the finished run
   with [Plan_verify.check_run]: a run that fails the check is that
   engine's failure ([`Unverified]). The break hook then perturbs the
   matched kind's result table (test-only fault injection into the
   engine layer itself). [?optimize] arms the cost-based planner: the
   query is enumerated against the env's catalog under the policy and
   the verified join-order hints ride into the context. *)
let exec ?optimize env kind options aq =
  let options =
    match optimize with
    | None -> options
    | Some policy ->
      let d =
        Planner.plan ~policy ~cluster:options.Plan_util.cluster env.catalog aq
      in
      Planner.apply d options
  in
  let ctx = Plan_util.context options in
  match Engine.execute (List.assoc kind env.sessions) ctx aq with
  | Error e -> Error (`Engine e)
  | Ok { Engine.table; _ } -> (
    match (Plan_verify.check_run kind aq table, env.break_table) with
    | Some msg, _ -> Error (`Unverified msg)
    | None, Some (k, f) when k = kind -> Ok (f table)
    | None, _ -> Ok table)

let failure_message = function
  | `Engine e -> Engine.error_message e
  | `Unverified msg -> msg

let analytical_of_case case =
  match case.c_query with
  | None -> Error "query text does not parse"
  | Some q -> (
    match Analytical.of_query q with
    | Ok aq -> Ok aq
    | Error e -> Error ("not analytical: " ^ e))

let reference env aq =
  match Ref_engine.run env.graph aq with
  | table -> Ok table
  | exception exn ->
    Error (Printf.sprintf "reference evaluator raised %s" (Printexc.to_string exn))

(* --- differential ------------------------------------------------------- *)

let check_differential env case =
  match analytical_of_case case with
  | Error reason -> Skip reason
  | Ok aq -> (
    match reference env aq with
    | Error v -> Violation v
    | Ok expected -> (
      (* Every engine runs twice: heuristic plans, and with the
         cost-based join enumeration armed — both must agree with the
         reference row-for-row. *)
      let modes = [ (None, ""); (Some Cost_model.Worst_case, "+optimize") ] in
      let outcomes =
        List.concat_map
          (fun (optimize, tag) ->
            List.map
              (fun kind ->
                let name = Engine.kind_name kind ^ tag in
                match exec ?optimize env kind env.base_options aq with
                | Ok table -> (name, `Table table)
                | Error (`Engine (Engine.Plan_rejected r)) ->
                  (name, `Rejected r)
                | Error e -> (name, `Failed (failure_message e))
                | exception exn -> (name, `Failed (Printexc.to_string exn)))
              Engine.all_kinds)
          modes
      in
      let failed =
        List.filter_map
          (function k, `Failed m -> Some (k, m) | _ -> None)
          outcomes
      in
      let rejected =
        List.filter_map
          (function k, `Rejected r -> Some (k, r) | _ -> None)
          outcomes
      in
      let succeeded =
        List.filter_map
          (function k, `Table t -> Some (k, t) | _ -> None)
          outcomes
      in
      match (failed, rejected, succeeded) with
      | (k, m) :: _, _, _ -> Violation (Printf.sprintf "%s failed: %s" k m)
      | [], _ :: _, [] -> Skip "all engines rejected the plan"
      | [], (k, r) :: _, (k', _) :: _ ->
        Violation
          (Printf.sprintf "%s rejected (%s) but %s accepted" k r k')
      | [], [], succeeded -> (
        match
          List.find_opt
            (fun (_, table) -> not (Relops.same_results table expected))
            succeeded
        with
        | Some (k, table) ->
          Violation
            (Printf.sprintf "%s disagrees with reference (%d rows vs %d)" k
               (Table.cardinality table)
               (Table.cardinality expected))
        | None -> Pass)))

(* --- metamorphic -------------------------------------------------------- *)

let rotate_kind seed i =
  List.nth Engine.all_kinds ((abs (seed + i)) mod List.length Engine.all_kinds)

let check_metamorphic env ~seed rng case =
  match analytical_of_case case with
  | Error reason -> Skip reason
  | Ok aq -> (
    match reference env aq with
    | Error v -> Violation v
    | Ok expected ->
      let violation = ref None in
      let note v = if !violation = None then violation := Some v in
      (* optimizer invariance: every robustness policy must pick an
         answer-preserving join order (the optimizer-off baseline is the
         reference comparison itself) *)
      List.iteri
        (fun i policy ->
          if !violation = None then
            let kind = rotate_kind seed i in
            match exec ~optimize:policy env kind env.base_options aq with
            | Ok table ->
              if not (Relops.same_results table expected) then
                note
                  (Printf.sprintf "%s under --opt-policy %s changed the answer"
                     (Engine.kind_name kind)
                     (Cost_model.policy_name policy))
            | Error (`Engine (Engine.Plan_rejected _)) -> ()
            | Error e ->
              note
                (Printf.sprintf "%s under --opt-policy %s failed: %s"
                   (Engine.kind_name kind)
                   (Cost_model.policy_name policy)
                   (failure_message e))
            | exception exn ->
              note
                (Printf.sprintf "%s under --opt-policy %s raised %s"
                   (Engine.kind_name kind)
                   (Cost_model.policy_name policy)
                   (Printexc.to_string exn)))
        Cost_model.all_policies;
      (* knob invariance: one (rotating) engine per configuration *)
      List.iteri
        (fun i (k : Knobs.t) ->
          if !violation = None then
            let kind = rotate_kind seed i in
            match exec ?optimize:k.Knobs.k_optimize env kind k.k_options aq with
            | Ok table ->
              if not (Relops.same_results table expected) then
                note
                  (Printf.sprintf "%s under %s changed the answer"
                     (Engine.kind_name kind) k.k_label)
            (* transient under faults *)
            | Error (`Engine (Engine.Job_failed _)) -> ()
            | Error (`Engine (Engine.Plan_rejected _)) -> ()
            | Error e ->
              note
                (Printf.sprintf "%s under %s failed: %s" (Engine.kind_name kind)
                   k.k_label (failure_message e))
            | exception exn ->
              note
                (Printf.sprintf "%s under %s raised %s" (Engine.kind_name kind)
                   k.k_label (Printexc.to_string exn)))
        env.knobs;
      (* rewrite invariance: reference + one engine on the rewritten query *)
      (match case.c_query with
      | None -> ()
      | Some q ->
        List.iteri
          (fun i rw ->
            if !violation = None then
              match Rewrite.apply rng rw q with
              | Error reason -> note (Rewrite.name rw ^ ": " ^ reason)
              | Ok q' -> (
                match Analytical.of_query q' with
                | Error e ->
                  note
                    (Printf.sprintf "%s: rewritten query left the fragment: %s"
                       (Rewrite.name rw) e)
                | Ok aq' -> (
                  (match reference env aq' with
                  | Error v -> note (Rewrite.name rw ^ ": " ^ v)
                  | Ok table ->
                    if not (Relops.same_results table expected) then
                      note
                        (Printf.sprintf "%s changed the reference answer"
                           (Rewrite.name rw)));
                  if !violation = None then
                    let kind = rotate_kind seed (i + 1) in
                    match exec env kind env.base_options aq' with
                    | Ok table ->
                      if not (Relops.same_results table expected) then
                        note
                          (Printf.sprintf "%s changed %s's answer"
                             (Rewrite.name rw) (Engine.kind_name kind))
                    | Error (`Engine (Engine.Plan_rejected _)) -> ()
                    | Error e ->
                      note
                        (Printf.sprintf "%s: %s failed: %s" (Rewrite.name rw)
                           (Engine.kind_name kind) (failure_message e))
                    | exception exn ->
                      note
                        (Printf.sprintf "%s: %s raised %s" (Rewrite.name rw)
                           (Engine.kind_name kind) (Printexc.to_string exn)))))
          Rewrite.all);
      (match !violation with Some v -> Violation v | None -> Pass))

(* --- analyzer soundness ------------------------------------------------- *)

let check_analyzer env case =
  match analytical_of_case case with
  | Error reason -> Skip reason
  | Ok aq -> (
    match
      let t = Card_analysis.analyze env.catalog aq in
      let m = Card_analysis.measure env.graph t in
      Card_analysis.measured_list m
    with
    | exception exn ->
      Violation (Printf.sprintf "analyzer raised %s" (Printexc.to_string exn))
    | measured -> (
      match
        List.find_opt
          (fun ((node : Card_analysis.node), actual) ->
            not (Interval.Card.contains node.card actual))
          measured
      with
      | Some (node, actual) ->
        Violation
          (Fmt.str "node %d (%s): interval %a misses measured %d" node.id
             node.label Interval.Card.pp node.card actual)
      | None -> Pass))

(* --- total robustness --------------------------------------------------- *)

let preview s =
  let s = if String.length s > 60 then String.sub s 0 60 ^ "..." else s in
  String.escaped s

let parses_without_raising text =
  match Parser.parse text with
  | Ok q -> (
    match Analytical.of_query q with
    | Ok _ | Error _ -> Ok ()
    | exception exn -> Error ("normalizer raised " ^ Printexc.to_string exn))
  | Error _ -> Ok ()
  | exception exn -> Error ("parser raised " ^ Printexc.to_string exn)

let check_robustness rng case =
  let inputs =
    case.c_text
    :: List.init 4 (fun _ -> Qgen.mutate_text rng case.c_text)
    @ List.init 2 (fun _ -> Qgen.random_bytes rng ~max_len:64)
  in
  let violation =
    List.find_map
      (fun text ->
        match parses_without_raising text with
        | Ok () -> None
        | Error reason ->
          Some (Printf.sprintf "%s on input \"%s\"" reason (preview text)))
      inputs
  in
  match violation with
  | Some v -> Violation v
  | None -> (
    (* accepted plans must verify clean *)
    match analytical_of_case case with
    | Error _ -> Pass
    | Ok aq -> (
      match Plan_verify.verify_query aq with
      | exception exn ->
        Violation
          (Printf.sprintf "plan verifier raised %s" (Printexc.to_string exn))
      | diags ->
        if Diagnostic.has_errors diags then
          Violation
            (Fmt.str "plan verifier rejected an accepted query: %a"
               (Fmt.list ~sep:Fmt.comma Diagnostic.pp)
               (List.filter Diagnostic.is_error diags))
        else Pass))

let check env ~seed name case =
  let rng = Prng.create ~seed:(seed lxor (Hashtbl.hash (name_to_string name) lor 1)) in
  match name with
  | Differential -> check_differential env case
  | Metamorphic -> check_metamorphic env ~seed rng case
  | Analyzer -> check_analyzer env case
  | Robustness -> check_robustness rng case
