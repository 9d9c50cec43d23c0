(** The fuzzer's oracle stack.

    Four oracle families, each a predicate over a generated case:

    - {!Differential}: all four engines and the reference evaluator
      produce byte-identical result tables (up to canonical row/column
      order), and engines agree on plan rejection.
    - {!Metamorphic}: answers are invariant under every knob
      configuration (faults, memory, checkpoints, planner knobs) and
      under semantics-preserving rewrites ({!Rewrite}).
    - {!Analyzer}: every {!Rapida_analysis.Card_analysis} interval
      brackets the measured cardinality of its plan node.
    - {!Robustness}: the lexer/parser/normalizer never raise on the
      query text, on byte-level mutants of it, or on arbitrary byte
      strings; and {!Rapida_analysis.Plan_verify} reports no
      error-severity diagnostic on any accepted query.

    Checks are deterministic given the case [seed]: the same seed
    replays the same knob rotation, rewrite permutations, and byte
    mutations — which is what lets the shrinker re-run a failing check
    verbatim. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Engine = Rapida_core.Engine
module Table = Rapida_relational.Table

type name = Differential | Metamorphic | Analyzer | Robustness

val all : name list

val name_to_string : name -> string

val name_of_string : string -> name option

type verdict =
  | Pass
  | Skip of string  (** case out of the oracle's scope (e.g. not analytical) *)
  | Violation of string

(** Prepared oracle context: the dataset, its statistics catalog, one
    prepared session per engine kind, and the knob configurations the
    metamorphic oracle sweeps. [break_table] post-processes the named
    engine's result tables — the test-only mutation that proves a broken
    engine is caught and shrunk. *)
type env

val make_env :
  ?break_table:Engine.kind * (Table.t -> Table.t) ->
  ?knobs:Knobs.t list ->
  Graph.t ->
  env

val env_catalog : env -> Rapida_analysis.Stats_catalog.t

(** One case under test: the rendered query text plus, when it parsed,
    the AST. *)
type case = { c_text : string; c_query : Ast.query option }

val case_of_query : Ast.query -> case

val case_of_text : string -> case

(** [check env ~seed name case] runs one oracle family on one case. *)
val check : env -> seed:int -> name -> case -> verdict
