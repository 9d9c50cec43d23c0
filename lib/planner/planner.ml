module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module To_sparql = Rapida_sparql.To_sparql
module Card = Rapida_analysis.Interval.Card
module Card_analysis = Rapida_analysis.Card_analysis
module Stats_catalog = Rapida_analysis.Stats_catalog
module Plan_verify = Rapida_analysis.Plan_verify
module Composite = Rapida_core.Composite
module Plan_util = Rapida_core.Plan_util
module Cluster = Rapida_mapred.Cluster
module Json = Rapida_mapred.Json

(* --- fingerprints ------------------------------------------------------ *)

let fnv1a64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let shape_fingerprint policy q =
  fnv1a64 (Cost_model.policy_name policy ^ "\n" ^ To_sparql.analytical q)

let catalog_fingerprint cat = fnv1a64 (Json.to_string (Stats_catalog.to_json cat))
let fingerprint_hex = Printf.sprintf "%016Lx"

(* --- heuristic order extraction ---------------------------------------- *)

(* The star visit order the engines' left-deep walk over an (unhinted)
   edge plan produces: the first edge's two stars, then each later
   edge's fresh star. *)
let visit_order_of_plan (plan : Star.edge list) =
  match plan with
  | [] -> []
  | _ ->
    Composite.left_deep (Ok plan)
      ~first:(fun e -> [ e.Star.right.Star.star; e.Star.left.Star.star ])
      ~next:(fun _ order ~bound:_ ~fresh ~joined:_ -> fresh.Star.star :: order)
    |> List.rev

let heuristic_order ~star_ids ~edges =
  match Composite.order_edges ~star_order:None ~star_ids ~edges with
  | Error _ -> []
  | Ok plan -> visit_order_of_plan plan

(* --- composite stars as synthetic star patterns ------------------------ *)

(* A composite star enumerates like an ordinary star pattern: subject
   variable root, one triple pattern per composite triple (constant
   object when constrained). Its id lives in cs_id space — the engines
   look the resulting hint up under the reserved key [-1]. *)
let star_of_composite (cs : Composite.star) : Star.t =
  {
    Star.id = cs.Composite.cs_id;
    subject = Ast.Nvar cs.Composite.subject_var;
    patterns =
      List.map
        (fun (c : Composite.ctp) ->
          {
            Ast.tp_s = Ast.Nvar cs.Composite.subject_var;
            tp_p = Ast.Nterm c.Composite.prop;
            tp_o =
              (match c.Composite.obj_const with
              | Some o -> Ast.Nterm o
              | None -> Ast.Nvar c.Composite.obj_var);
          })
        cs.Composite.ctps;
  }

(* --- decisions --------------------------------------------------------- *)

type unit_decision = {
  u_key : int;
  u_label : string;
  u_order : int list;
  u_cost : Cost_model.scenario;
  u_heuristic : Join_enum.candidate option;
  u_candidates : Join_enum.candidate list;
  u_exhaustive : bool;
  u_verified : bool;
}

type decision = {
  d_policy : Cost_model.policy;
  d_units : unit_decision list;
  d_join_orders : (int * int list) list;
  d_root : Card.t;
}

let join_orders d = d.d_join_orders

let plan_unit ~policy ~catalog ~cluster ~key ~label ~stars ~edges =
  if List.length stars < 2 then None
  else
    let star_ids = List.map (fun (s : Star.t) -> s.Star.id) stars in
    let heuristic = heuristic_order ~star_ids ~edges in
    match
      Join_enum.enumerate ~policy ~catalog ~cluster ~stars ~edges ~heuristic
    with
    | None -> None
    | Some enum ->
      let best = enum.Join_enum.best in
      let rejected =
        Plan_verify.verify_join_order ~star_ids ~edges
          ~order:best.Join_enum.c_order
        <> []
      in
      let order, cost =
        if rejected then
          (* Verified fallback: execute the heuristic plan (no hint is
             emitted for this unit), never abort. *)
          match enum.Join_enum.heuristic with
          | Some h -> (h.Join_enum.c_order, h.Join_enum.c_cost)
          | None -> (heuristic, Cost_model.zero)
        else (best.Join_enum.c_order, best.Join_enum.c_cost)
      in
      Some
        {
          u_key = key;
          u_label = label;
          u_order = order;
          u_cost = cost;
          u_heuristic = enum.Join_enum.heuristic;
          u_candidates = enum.Join_enum.candidates;
          u_exhaustive = enum.Join_enum.exhaustive;
          u_verified = not rejected;
        }

let plan ?(policy = Cost_model.Worst_case) ?(cluster = Cluster.default) catalog
    (q : Analytical.t) =
  let subquery_units =
    List.filter_map
      (fun (sq : Analytical.subquery) ->
        plan_unit ~policy ~catalog ~cluster ~key:sq.Analytical.sq_id
          ~label:(Printf.sprintf "subquery %d" sq.Analytical.sq_id)
          ~stars:sq.Analytical.stars ~edges:sq.Analytical.edges)
      q.Analytical.subqueries
  in
  let composite_units =
    match q.Analytical.subqueries with
    | [] | [ _ ] -> []
    | _ -> (
      match Composite.build q.Analytical.subqueries with
      | Error _ -> []
      | Ok comp ->
        plan_unit ~policy ~catalog ~cluster ~key:(-1) ~label:"composite"
          ~stars:(List.map star_of_composite comp.Composite.stars)
          ~edges:comp.Composite.edges
        |> Option.to_list)
  in
  let d_units = subquery_units @ composite_units in
  let analysis = Card_analysis.analyze catalog q in
  {
    d_policy = policy;
    d_units;
    d_join_orders =
      List.filter_map
        (fun u -> if u.u_verified then Some (u.u_key, u.u_order) else None)
        d_units;
    d_root = analysis.Card_analysis.root.Card_analysis.card;
  }

let apply d options =
  Plan_util.make ~base:options ~join_orders:d.d_join_orders ()

(* --- cached planning --------------------------------------------------- *)

type cache = decision Plan_cache.t

let create_cache ~capacity : cache = Plan_cache.create ~capacity

let plan_cached ~cache ~catalog ~catalog_fp ?(policy = Cost_model.Worst_case)
    ?(cluster = Cluster.default) q =
  let shape = shape_fingerprint policy q in
  match Plan_cache.find cache ~shape ~catalog:catalog_fp with
  | Some d -> (d, `Hit)
  | None ->
    let d = plan ~policy ~cluster catalog q in
    Plan_cache.add cache ~shape ~catalog:catalog_fp d;
    (d, `Miss)

(* --- rendering --------------------------------------------------------- *)

let pp_order ppf order =
  Fmt.pf ppf "%a" Fmt.(list ~sep:(any " -> ") int) order

let pp_unit ppf u =
  Fmt.pf ppf "@[<v2>%s: order %a (cost %a)%s%s@," u.u_label pp_order u.u_order
    Cost_model.pp_scenario u.u_cost
    (if u.u_exhaustive then ", exhaustive" else ", DP")
    (if u.u_verified then ", verified" else ", REJECTED -> heuristic");
  (match u.u_heuristic with
  | Some h ->
    Fmt.pf ppf "heuristic: order %a (cost %a)@," pp_order h.Join_enum.c_order
      Cost_model.pp_scenario h.Join_enum.c_cost
  | None -> ());
  Fmt.pf ppf "candidates:";
  List.iter
    (fun (c : Join_enum.candidate) ->
      Fmt.pf ppf "@,  %a (cost %a)" pp_order c.Join_enum.c_order
        Cost_model.pp_scenario c.Join_enum.c_cost)
    u.u_candidates;
  Fmt.pf ppf "@]"

let pp_decision ppf d =
  Fmt.pf ppf "@[<v>policy: %s@,root interval: %a@,"
    (Cost_model.policy_name d.d_policy)
    Card.pp d.d_root;
  (match d.d_units with
  | [] -> Fmt.pf ppf "no multi-star unit to enumerate (heuristic plans)@,"
  | units -> List.iter (fun u -> Fmt.pf ppf "%a@," pp_unit u) units);
  Fmt.pf ppf "@]"

let unit_to_json u =
  Json.Obj
    [
      ("key", Json.Int u.u_key);
      ("label", Json.String u.u_label);
      ("order", Json.List (List.map (fun i -> Json.Int i) u.u_order));
      ("cost", Cost_model.scenario_to_json u.u_cost);
      ( "heuristic",
        match u.u_heuristic with
        | None -> Json.Null
        | Some h ->
          Json.Obj
            [
              ( "order",
                Json.List
                  (List.map (fun i -> Json.Int i) h.Join_enum.c_order) );
              ("cost", Cost_model.scenario_to_json h.Join_enum.c_cost);
            ] );
      ( "candidates",
        Json.List
          (List.map
             (fun (c : Join_enum.candidate) ->
               Json.Obj
                 [
                   ( "order",
                     Json.List
                       (List.map (fun i -> Json.Int i) c.Join_enum.c_order) );
                   ("cost", Cost_model.scenario_to_json c.Join_enum.c_cost);
                 ])
             u.u_candidates) );
      ("exhaustive", Json.Bool u.u_exhaustive);
      ("verified", Json.Bool u.u_verified);
    ]

let decision_to_json d =
  Json.Obj
    [
      ("policy", Json.String (Cost_model.policy_name d.d_policy));
      ("units", Json.List (List.map unit_to_json d.d_units));
      ("root_interval", Card.to_json d.d_root);
    ]
