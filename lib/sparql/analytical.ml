type aggregate = {
  func : Ast.agg_func;
  arg : Ast.var option;
  distinct : bool;
  out : Ast.var;
}

type subquery = {
  sq_id : int;
  bgp : Ast.triple_pattern list;
  stars : Star.t list;
  edges : Star.edge list;
  filters : Ast.expr list;
  group_by : Ast.var list;
  aggregates : aggregate list;
  having : Ast.expr list;
}

type t = {
  subqueries : subquery list;
  outer_projection : Ast.sel_item list;
  order_by : Ast.order list;
  limit : int option;
}

let ( let* ) = Result.bind

let classify_where where =
  let rec go triples filters subs = function
    | [] -> Ok (List.rev triples, List.rev filters, List.rev subs)
    | Ast.Ptriple tp :: rest -> go (tp :: triples) filters subs rest
    | Ast.Pfilter e :: rest -> go triples (e :: filters) subs rest
    | Ast.Psub s :: rest -> go triples filters (s :: subs) rest
    | Ast.Poptional _ :: _ ->
      Error "OPTIONAL is not supported in analytical queries"
  in
  go [] [] [] where

let aggregate_of_expr out = function
  | Ast.Eagg (func, None, distinct) -> Ok { func; arg = None; distinct; out }
  | Ast.Eagg (func, Some (Ast.Evar v), distinct) ->
    Ok { func; arg = Some v; distinct; out }
  | Ast.Eagg (_, Some _, _) ->
    Error "aggregate arguments must be plain variables"
  | _ -> Error "subquery projections must be variables or aggregates"

let subquery_of_select sq_id (s : Ast.select) =
  let* () =
    if s.order_by <> [] || s.limit <> None then
      Error "ORDER BY / LIMIT are only supported on the outer SELECT"
    else Ok ()
  in
  let* triples, filters, subs = classify_where s.where in
  if subs <> [] then Error "nested subqueries deeper than one level"
  else if triples = [] then Error "subquery has no triple patterns"
  else
    let rec collect aggs = function
      | [] -> Ok (List.rev aggs)
      | Ast.Svar v :: rest ->
        if List.mem v s.group_by then collect aggs rest
        else
          Error
            (Printf.sprintf "projected variable ?%s is not in GROUP BY" v)
      | Ast.Sexpr (e, out) :: rest ->
        let* agg = aggregate_of_expr out e in
        collect (agg :: aggs) rest
    in
    let* aggregates = collect [] s.projection in
    if aggregates = [] then Error "subquery has no aggregates"
    else
      let stars = Star.decompose triples in
      let edges = Star.edges stars in
      let bgp_vars =
        List.concat_map Ast.pattern_vars triples |> List.sort_uniq compare
      in
      let missing =
        List.filter (fun v -> not (List.mem v bgp_vars)) s.group_by
      in
      if missing <> [] then
        Error
          (Printf.sprintf "GROUP BY variable ?%s not bound by the pattern"
             (List.hd missing))
      else
        let outputs =
          s.group_by @ List.map (fun (a : aggregate) -> a.out) aggregates
        in
        let bad_having =
          List.concat_map Ast.expr_vars s.having
          |> List.filter (fun v -> not (List.mem v outputs))
        in
        if bad_having <> [] then
          Error
            (Printf.sprintf
               "HAVING variable ?%s is neither grouped nor an aggregate                 output"
               (List.hd bad_having))
        else
          Ok { sq_id; bgp = triples; stars; edges; filters;
               group_by = s.group_by; aggregates; having = s.having }

let of_query (q : Ast.query) =
  let s = q.base_select in
  let* triples, filters, subs = classify_where s.where in
  match subs with
  | [] ->
    (* Simple grouping query: the select is itself the only subquery;
       its ordering applies to the final result. *)
    let* sq = subquery_of_select 0 { s with Ast.order_by = []; limit = None } in
    Ok { subqueries = [ sq ]; outer_projection = [];
         order_by = s.order_by; limit = s.limit }
  | _ :: _ ->
    if triples <> [] then
      Error "triple patterns alongside subqueries in the outer SELECT"
    else if filters <> [] then
      Error "outer FILTERs over subquery results are not supported"
    else
      let rec build i acc = function
        | [] -> Ok (List.rev acc)
        | sub :: rest ->
          let* sq = subquery_of_select i sub in
          build (i + 1) (sq :: acc) rest
      in
      let* subqueries = build 0 [] subs in
      Ok { subqueries; outer_projection = s.projection;
           order_by = s.order_by; limit = s.limit }

let parse src =
  let* q = Parser.parse src in
  of_query q

let parse_exn src =
  match parse src with
  | Ok t -> t
  | Error e -> failwith ("analytical parse: " ^ e)

let output_columns sq = sq.group_by @ List.map (fun a -> a.out) sq.aggregates

let join_vars a b = List.filter (fun v -> List.mem v b.group_by) a.group_by

let pp_aggregate ppf a =
  Fmt.pf ppf "%a(%s%s) AS ?%s" Ast.pp_expr
    (Ast.Eagg (a.func, Option.map (fun v -> Ast.Evar v) a.arg, a.distinct))
    "" "" a.out

let pp_subquery ppf sq =
  Fmt.pf ppf "@[<v 2>subquery %d:@ stars=%d@ group_by=[%a]@ aggs=[%a]@]"
    sq.sq_id (List.length sq.stars)
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    sq.group_by
    (Fmt.list ~sep:Fmt.comma pp_aggregate)
    sq.aggregates

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_subquery) t.subqueries
