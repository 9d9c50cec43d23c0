(* E-commerce business-intelligence scenario (the BSBM BI use case that
   motivates the paper's running example): generate a product/offer/vendor
   dataset and compare, across all four engines, the price-per-feature vs
   price-per-country analyses MG1 and MG3.

     dune exec examples/ecommerce_analytics.exe *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Experiment = Rapida_harness.Experiment
module Report = Rapida_harness.Report

let () =
  let graph = Rapida_datagen.Bsbm.(generate (config ~products:300 ())) in
  Fmt.pr "generated BSBM-like dataset: %d triples@."
    (Rapida_rdf.Graph.size graph);
  let input = Engine.input_of_graph graph in
  let options =
    Plan_util.make
      ~cluster:(Rapida_mapred.Cluster.scaled_down ~factor:1.0e5)
      ~map_join_threshold:(24 * 1024) ()
  in
  let runs =
    List.map
      (Experiment.run_query options ~label:"bsbm-example" input)
      [ Catalog.find_exn "MG1"; Catalog.find_exn "MG3" ]
  in
  Fmt.pr "%a"
    (Report.pp_comparison
       ~title:"Average price per feature / per country-feature"
       ~engines:Engine.all_kinds)
    runs;
  Fmt.pr "%a"
    (Report.pp_cycles ~title:"MapReduce cycles" ~engines:Engine.all_kinds)
    runs;
  Fmt.pr "%a" Report.pp_verification runs;
  (* Peek at the actual answer: top rows of the MG1 result. *)
  match
    Engine.execute
      (Engine.prepare Engine.Rapid_analytics input)
      (Plan_util.context options)
      (Catalog.parse (Catalog.find_exn "MG1"))
  with
  | Error e -> prerr_endline (Engine.error_message e)
  | Ok { table; _ } ->
    let module Table = Rapida_relational.Table in
    let preview = { table with Table.rows = List.filteri (fun i _ -> i < 5) table.Table.rows } in
    Fmt.pr "@.sample of MG1 result (%d rows total):@.%a@."
      (Table.cardinality table) Table.pp preview
