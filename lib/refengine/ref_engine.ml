open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Binding = Rapida_sparql.Binding
module Aggregate = Rapida_sparql.Aggregate
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops

(* Candidate triples for a pattern under a binding: prefer the subject
   index, then the property index, else scan. *)
let candidates g (tp : Ast.triple_pattern) binding =
  let subject =
    match tp.tp_s with
    | Ast.Nterm t -> Some t
    | Ast.Nvar v -> Binding.lookup binding v
  in
  match subject with
  | Some s -> Graph.by_subject g s
  | None -> (
    match tp.tp_p with
    | Ast.Nterm p -> Graph.by_property g p
    | Ast.Nvar v -> (
      match Binding.lookup binding v with
      | Some p -> Graph.by_property g p
      | None -> Graph.triples g))

let eval_bgp g bgp =
  let rec go bindings = function
    | [] -> bindings
    | tp :: rest ->
      let extended =
        List.concat_map
          (fun b ->
            List.filter_map
              (fun triple -> Binding.match_triple tp triple b)
              (candidates g tp b))
          bindings
      in
      if extended = [] then [] else go extended rest
  in
  go [ Binding.empty ] bgp

let eval_subquery g (sq : Analytical.subquery) =
  let bindings = eval_bgp g sq.bgp in
  let bindings =
    List.filter
      (fun b -> List.for_all (Binding.eval_filter b) sq.filters)
      bindings
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun b ->
      let key = List.map (fun v -> Binding.lookup b v) sq.group_by in
      let states =
        match Hashtbl.find_opt groups key with
        | Some states -> states
        | None ->
          let states =
            List.map
              (fun (a : Analytical.aggregate) ->
                ref (Aggregate.init a.func ~distinct:a.distinct))
              sq.aggregates
          in
          Hashtbl.add groups key states;
          order := key :: !order;
          states
      in
      List.iter2
        (fun state (a : Analytical.aggregate) ->
          let v =
            match a.arg with
            | None -> Some (Term.int 1) (* count-star *)
            | Some var -> Binding.lookup b var
          in
          state := Aggregate.add !state v)
        states sq.aggregates)
    bindings;
  let schema = Analytical.output_columns sq in
  let rows =
    if sq.group_by = [] && Hashtbl.length groups = 0 then
      [ Array.of_list
          (List.map
             (fun (a : Analytical.aggregate) ->
               Aggregate.finish (Aggregate.init a.func ~distinct:a.distinct))
             sq.aggregates) ]
    else
      List.rev_map
        (fun key ->
          let states = Hashtbl.find groups key in
          Array.of_list (key @ List.map (fun s -> Aggregate.finish !s) states))
        !order
  in
  let table = Table.make ~name:(Printf.sprintf "sq%d" sq.sq_id) ~schema rows in
  (* HAVING filters the computed groups. *)
  match sq.having with
  | [] -> table
  | having ->
    Relops.filter
      (fun row ->
        let b =
          List.fold_left
            (fun (b, i) col ->
              let b =
                match row.(i) with
                | Some v -> Binding.bind b col v
                | None -> b
              in
              (b, i + 1))
            (Binding.empty, 0) table.Table.schema
          |> fst
        in
        List.for_all (Binding.eval_filter b) having)
      table

let run g (q : Analytical.t) =
  let tables = List.map (eval_subquery g) q.subqueries in
  match tables with
  | [] -> invalid_arg "Ref_engine.run: no subqueries"
  | first :: rest ->
    let joined =
      List.fold_left
        (fun acc t -> Relops.hash_join ~name:"joined" acc t)
        first rest
    in
    Relops.project_exprs ~name:"result" q.outer_projection joined
    |> Relops.order_limit ~order_by:q.Analytical.order_by
         ~limit:q.Analytical.limit

let run_sparql g src =
  Result.map (run g) (Rapida_sparql.Analytical.parse src)
