(* Cost-based planner: the DP enumerator checked against exhaustive
   search on every <=4-star catalog unit, plan-cache LRU and
   catalog-fingerprint invalidation, the misestimate-defense circuit
   breaker, Plan_verify gating of enumerated orders, a stale-catalog
   escape, and the armed-optimizer byte-identity property across 20
   seeds and all four engines. *)

module Planner = Rapida_planner.Planner
module Join_enum = Rapida_planner.Join_enum
module Cost_model = Rapida_planner.Cost_model
module Plan_cache = Rapida_planner.Plan_cache
module Defense = Rapida_planner.Defense
module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Analytical = Rapida_sparql.Analytical
module Star = Rapida_sparql.Star
module Stats_catalog = Rapida_analysis.Stats_catalog
module Card = Rapida_analysis.Interval.Card
module Plan_verify = Rapida_analysis.Plan_verify
module Relops = Rapida_relational.Relops
module Table = Rapida_relational.Table
module Cluster = Rapida_mapred.Cluster
module Prng = Rapida_datagen.Prng
module Qgen = Rapida_fuzz.Qgen

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bsbm = lazy Rapida_datagen.Bsbm.(generate (config ~products:120 ()))
let bsbm_input = lazy (Engine.input_of_graph (Lazy.force bsbm))
let bsbm_catalog = lazy (Stats_catalog.build (Lazy.force bsbm))

let chem = lazy Rapida_datagen.Chem2bio.(generate (config ~compounds:60 ()))
let pubmed =
  lazy Rapida_datagen.Pubmed.(generate (config ~publications:150 ()))

(* The DP is exact: for every multi-star (<=4) unit of every catalog
   query, under every policy objective, the subset DP picks the same
   order at the same cost as scoring every connected order. *)
let test_dp_matches_exhaustive () =
  let datasets =
    [
      (Lazy.force bsbm_catalog, Catalog.by_dataset Catalog.Bsbm);
      (Stats_catalog.build (Lazy.force chem), Catalog.by_dataset Catalog.Chem2bio);
      (Stats_catalog.build (Lazy.force pubmed), Catalog.by_dataset Catalog.Pubmed);
    ]
  in
  let cluster = Cluster.default in
  let checked = ref 0 in
  List.iter
    (fun (catalog, entries) ->
      List.iter
        (fun entry ->
          let q = Catalog.parse entry in
          List.iter
            (fun (sq : Analytical.subquery) ->
              let stars = sq.Analytical.stars in
              let n = List.length stars in
              if n >= 2 && n <= 4 then
                let input =
                  Join_enum.make ~catalog ~cluster ~stars
                    ~edges:sq.Analytical.edges
                in
                List.iter
                  (fun policy ->
                    let objective = Cost_model.objective policy in
                    match
                      ( Join_enum.dp_order ~objective input,
                        Join_enum.exhaustive_order ~objective input )
                    with
                    | None, None -> ()
                    | Some d, Some e ->
                      incr checked;
                      Alcotest.(check (list int))
                        (Printf.sprintf "%s/%d %s order" entry.Catalog.id
                           sq.Analytical.sq_id
                           (Cost_model.policy_name policy))
                        e.Join_enum.c_order d.Join_enum.c_order;
                      Alcotest.(check (float 1e-9))
                        (Printf.sprintf "%s/%d %s objective" entry.Catalog.id
                           sq.Analytical.sq_id
                           (Cost_model.policy_name policy))
                        (objective e.Join_enum.c_cost)
                        (objective d.Join_enum.c_cost)
                    | _ ->
                      Alcotest.fail
                        (entry.Catalog.id
                        ^ ": DP and exhaustive disagree on feasibility"))
                  Cost_model.all_policies)
            q.Analytical.subqueries)
        entries)
    datasets;
  check_bool "checked a healthy number of units" true (!checked >= 20)

let test_cache_lru () =
  let c = Plan_cache.create ~capacity:2 in
  Plan_cache.add c ~shape:10L ~catalog:1L "p10";
  Plan_cache.add c ~shape:20L ~catalog:1L "p20";
  check_bool "hit 10" true
    (Plan_cache.find c ~shape:10L ~catalog:1L = Some "p10");
  (* 10 was just refreshed, so inserting 30 must evict 20. *)
  Plan_cache.add c ~shape:30L ~catalog:1L "p30";
  check_bool "20 evicted (LRU)" true
    (Plan_cache.find c ~shape:20L ~catalog:1L = None);
  check_bool "10 survives (recency refreshed)" true
    (Plan_cache.find c ~shape:10L ~catalog:1L = Some "p10");
  check_bool "30 present" true
    (Plan_cache.find c ~shape:30L ~catalog:1L = Some "p30");
  let s = Plan_cache.stats c in
  check_int "one eviction" 1 s.Plan_cache.evictions;
  check_int "at capacity" 2 s.Plan_cache.size;
  (try
     ignore (Plan_cache.create ~capacity:0);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ())

let test_cache_invalidation () =
  let c = Plan_cache.create ~capacity:4 in
  Plan_cache.add c ~shape:1L ~catalog:100L "old";
  check_bool "stale catalog misses" true
    (Plan_cache.find c ~shape:1L ~catalog:200L = None);
  let s = Plan_cache.stats c in
  check_int "invalidation counted" 1 s.Plan_cache.invalidations;
  check_int "stale entry dropped" 0 s.Plan_cache.size;
  Plan_cache.add c ~shape:1L ~catalog:200L "new";
  check_bool "replan under the new catalog hits" true
    (Plan_cache.find c ~shape:1L ~catalog:200L = Some "new")

let test_plan_cached () =
  let catalog = Lazy.force bsbm_catalog in
  let fp = Planner.catalog_fingerprint catalog in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  let cache = Planner.create_cache ~capacity:4 in
  let d1, m1 = Planner.plan_cached ~cache ~catalog ~catalog_fp:fp q in
  let d2, m2 = Planner.plan_cached ~cache ~catalog ~catalog_fp:fp q in
  check_bool "first plan is a miss" true (m1 = `Miss);
  check_bool "same shape is a hit" true (m2 = `Hit);
  check_bool "hit returns the cached decision" true (d1 == d2);
  (* A different catalog fingerprint must invalidate and replan. *)
  let _, m3 =
    Planner.plan_cached ~cache ~catalog ~catalog_fp:(Int64.add fp 1L) q
  in
  check_bool "changed catalog replans" true (m3 = `Miss);
  (* A different policy is a different shape fingerprint. *)
  check_bool "policy is part of the shape" true
    (Planner.shape_fingerprint Cost_model.Mid q
    <> Planner.shape_fingerprint Cost_model.Worst_case q)

let test_defense_breaker () =
  let d = Defense.create ~k:2 in
  let armed, d = Defense.arm_for_next d in
  check_bool "starts armed" true armed;
  let d = Defense.observe d ~escaped:true in
  check_bool "cooling after an escape" true (Defense.state d = Defense.Cooling);
  let armed, d = Defense.arm_for_next d in
  check_bool "next query falls back" false armed;
  check_int "fallback counted" 1 (Defense.fallbacks d);
  let armed, d = Defense.arm_for_next d in
  check_bool "then re-arms" true armed;
  (* A clean optimized run resets the consecutive streak. *)
  let d = Defense.observe d ~escaped:false in
  let d = Defense.observe d ~escaped:true in
  let armed, d = Defense.arm_for_next d in
  check_bool "second fallback" false armed;
  let d = Defense.observe d ~escaped:true in
  check_bool "k consecutive escapes trip the breaker" true (Defense.tripped d);
  check_bool "off stays off" false (fst (Defense.arm_for_next d));
  check_int "escapes counted" 3 (Defense.escapes d);
  (try
     ignore (Defense.create ~k:0);
     Alcotest.fail "k 0 accepted"
   with Invalid_argument _ -> ())

(* Every order the planner emits passed Plan_verify; a corrupt order
   (star missing from the visit sequence) is rejected by the same
   check. *)
let test_verify_gate () =
  let catalog = Lazy.force bsbm_catalog in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  let d = Planner.plan catalog q in
  check_bool "has enumerated units" true (d.Planner.d_units <> []);
  List.iter
    (fun (u : Planner.unit_decision) ->
      check_bool (u.Planner.u_label ^ " verified") true u.Planner.u_verified)
    d.Planner.d_units;
  check_int "every verified unit emits a hint"
    (List.length d.Planner.d_units)
    (List.length d.Planner.d_join_orders);
  let sq = List.hd q.Analytical.subqueries in
  let star_ids =
    List.map (fun (s : Star.t) -> s.Star.id) sq.Analytical.stars
  in
  match star_ids with
  | first :: _ :: _ ->
    check_bool "truncated order rejected" true
      (Plan_verify.verify_join_order ~star_ids ~edges:sq.Analytical.edges
         ~order:[ first ]
      <> [])
  | _ -> Alcotest.fail "expected a multi-star subquery"

(* A catalog built from the wrong graph prices the plan on intervals
   the real data escapes: the measured cardinality falls outside the
   predicted root interval, which is exactly what cools the breaker. *)
let test_stale_catalog_escape () =
  let stale = Stats_catalog.build (Lazy.force chem) in
  let q = Catalog.parse (Catalog.find_exn "MG1") in
  let d = Planner.plan stale q in
  let input = Lazy.force bsbm_input in
  let options = Plan_util.default_options in
  match
    Engine.execute
      (Engine.prepare Engine.Rapid_analytics input)
      (Plan_util.context (Planner.apply d options))
      q
  with
  | Error e -> Alcotest.fail (Engine.error_message e)
  | Ok { table; _ } ->
    let actual = Table.cardinality table in
    check_bool "query returns rows" true (actual > 0);
    let escaped = not (Card.contains d.Planner.d_root actual) in
    check_bool "measured cardinality escapes the stale interval" true escaped;
    let def = Defense.observe (Defense.create ~k:3) ~escaped in
    check_bool "escape cools the breaker" true
      (Defense.state def = Defense.Cooling)

(* With the optimizer armed, every engine's answer is byte-identical to
   its heuristic run — 20 seeds of generated analytical queries, policy
   rotating per seed, all four engines. *)
let test_identity_armed () =
  let graph = Lazy.force bsbm in
  let catalog = Lazy.force bsbm_catalog in
  let input = Lazy.force bsbm_input in
  let env = Qgen.env_of_graph graph catalog in
  let options = Plan_util.default_options in
  let policies = Cost_model.all_policies in
  let checked = ref 0 in
  for seed = 1 to 20 do
    let rng = Prng.create ~seed in
    let rec draw tries =
      if tries = 0 then None
      else
        match Analytical.of_query (Qgen.generate rng env ~mode:Qgen.Hitting) with
        | Ok aq -> Some aq
        | Error _ -> draw (tries - 1)
    in
    match draw 10 with
    | None -> ()
    | Some aq ->
      let policy = List.nth policies (seed mod List.length policies) in
      let d = Planner.plan ~policy catalog aq in
      let optimized = Planner.apply d options in
      List.iter
        (fun kind ->
          let run opts =
            Engine.execute (Engine.prepare kind input)
              (Plan_util.context opts) aq
          in
          match (run options, run optimized) with
          | Ok a, Ok b ->
            incr checked;
            check_bool
              (Printf.sprintf "seed %d %s identical" seed
                 (Engine.kind_name kind))
              true
              (Relops.same_results a.Engine.table b.Engine.table)
          | Error _, Error _ -> ()
          | _ ->
            Alcotest.fail
              (Printf.sprintf "seed %d %s: optimizer changed the outcome"
                 seed (Engine.kind_name kind)))
        Engine.all_kinds
  done;
  check_bool "checked a healthy share of runs" true (!checked >= 60)

let suite =
  [
    Alcotest.test_case "DP equals exhaustive enumeration" `Quick
      test_dp_matches_exhaustive;
    Alcotest.test_case "plan cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "plan cache catalog invalidation" `Quick
      test_cache_invalidation;
    Alcotest.test_case "cached planning hit/miss/replan" `Quick
      test_plan_cached;
    Alcotest.test_case "misestimate defense breaker" `Quick
      test_defense_breaker;
    Alcotest.test_case "Plan_verify gates enumerated orders" `Quick
      test_verify_gate;
    Alcotest.test_case "stale catalog escapes and cools" `Quick
      test_stale_catalog_escape;
    Alcotest.test_case "20-seed armed byte-identity" `Slow
      test_identity_armed;
  ]
