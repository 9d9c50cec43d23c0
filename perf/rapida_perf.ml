(* The repository's wall-clock benchmark.

   The paper's claims (MR cycles, shuffled bytes, simulated seconds) are
   computed by real in-process code; this program measures how long that
   code takes, end to end and layer by layer. Each workload runs in its
   own single-threaded process with one closed-loop client:

     catalog     all 26 catalog queries x all 4 engines on the 1x datasets
     ntga-large  the 26 queries on the two NTGA engines at 3x scale
     frontend    256 generated queries on a tiny BSBM through the
                 `query --optimize` client path (parse, normalize,
                 plan, execute, render)
     server      generated arrival streams through the MQO query server,
                 with the traffic parameters of `rapida serve`

   Usage:

     dune exec perf/rapida_perf.exe -- --workload NAME --seed N
         [--seconds S] [--trace 0|1] [--json FILE]
     dune exec perf/rapida_perf.exe -- --smoke
     dune exec perf/rapida_perf.exe -- --compare PARENT.jsonl CHANGE.jsonl

   A run generates its inputs (datagen -> N-Triples text, query texts,
   arrival streams), sets up once, computes every reference answer with
   the reference evaluator, runs each distinct op once as a warm-up,
   compacts the heap, and then runs rounds, each a seeded shuffle of
   every distinct op, for S seconds (default: run_seconds of
   BENCHMARK.json). Between rounds it sets up again, so the set-ups
   (their median is setup_s) sample the same stretch of time as the
   ops. It prints every metric as `name value unit` and,
   as its last line, one JSON object with the keys correct, attempted,
   failed and metrics. With --trace 0 the metrics there are the
   end-to-end ones BENCHMARK.json names; with --trace 1 every call into
   a layer is timed from outside, its per-layer ones are given instead,
   and the spans are written as a Chrome trace to _perf/. --json FILE
   appends the run, with every metric, as one JSON line for --compare.
   The exit code is non-zero when any op failed. See perf/README.md. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Parser = Rapida_sparql.Parser
module Analytical = Rapida_sparql.Analytical
module To_sparql = Rapida_sparql.To_sparql
module Ntriples = Rapida_rdf.Ntriples
module Graph = Rapida_rdf.Graph
module Term = Rapida_rdf.Term
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Stats = Rapida_mapred.Stats
module Trace = Rapida_mapred.Trace
module Json = Rapida_mapred.Json
module Stats_catalog = Rapida_analysis.Stats_catalog
module Planner = Rapida_planner.Planner
module Plan_cache = Rapida_planner.Plan_cache
module Server = Rapida_server.Server
module Workload = Rapida_server.Workload
module Qgen = Rapida_fuzz.Qgen
module Prng = Rapida_datagen.Prng
module Ref_engine = Rapida_ref.Ref_engine

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ---- statistics --------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]; 0 for no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(* Quartiles as Python's statistics.quantiles(xs, n=4) gives them
   (the "exclusive" method), so spreads read the same in both. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let m = if n = 1 then a.(0) else 0.0 in
    (m, m, m)
  else
    let q i =
      let pos = float_of_int (i * (n + 1)) /. 4.0 in
      let j = max 1 (min (n - 1) (int_of_float pos)) in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. (pos -. float_of_int j))
    in
    (q 1, q 2, q 3)

let mean_of xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- tracing ------------------------------------------------------------ *)

(* Per-layer accounting for the traced run. Every call into a layer is
   timed from outside, around the layer's public function; with tracing
   off [span] is a plain call, so the untraced run pays nothing. Spans
   are kept in memory (the first [max_spans]) and written at exit. *)
type tracer = {
  on : bool;
  t0 : float;
  chrome : Trace.t;
  mutable kept : int;
  mutable last_s : float;  (** duration of the latest span *)
  sums : (string, float ref * int ref) Hashtbl.t;
}

let max_spans = 20_000

let tracer on =
  {
    on;
    t0 = now ();
    chrome = Trace.create ();
    kept = 0;
    last_s = 0.0;
    sums = Hashtbl.create 64;
  }

let add tr name v =
  match Hashtbl.find_opt tr.sums name with
  | Some (s, n) ->
    s := !s +. v;
    incr n
  | None -> Hashtbl.add tr.sums name (ref v, ref 1)

let total tr name =
  match Hashtbl.find_opt tr.sums name with Some (s, _) -> !s | None -> 0.0

let count tr name =
  match Hashtbl.find_opt tr.sums name with
  | Some (_, n) -> float_of_int !n
  | None -> 0.0

let mean tr name = ratio (total tr name) (count tr name)

let span tr ~layer ~name ~op f =
  if not tr.on then f ()
  else begin
    let start = now () in
    let r = f () in
    let dur = now () -. start in
    tr.last_s <- dur;
    add tr name dur;
    if tr.kept < max_spans then begin
      tr.kept <- tr.kept + 1;
      Trace.span tr.chrome ~name ~cat:layer ~start_s:(start -. tr.t0)
        ~dur_s:dur
        [ ("op", Json.Int op) ]
    end;
    r
  end

let execute_span = function
  | Engine.Hive_naive -> "engine.hive-naive.execute"
  | Engine.Hive_mqo -> "engine.hive-mqo.execute"
  | Engine.Rapid_plus -> "engine.rapid-plus.execute"
  | Engine.Rapid_analytics -> "engine.rapid-analytics.execute"

(* [Engine.execute] inside a span; a traced call also records its
   allocation and the simulated jobs' record counts. [tr.last_s] is the
   call's duration afterwards. *)
let execute tr ~op session ctx q =
  if not tr.on then Engine.execute session ctx q
  else begin
    let w0 = Gc.minor_words () in
    let r =
      span tr ~layer:"engine"
        ~name:(execute_span (Engine.session_kind session))
        ~op
        (fun () -> Engine.execute session ctx q)
    in
    add tr "engine.execute" tr.last_s;
    add tr "engine.alloc_words" (Gc.minor_words () -. w0);
    (match r with
    | Error _ -> ()
    | Ok (out : Engine.output) ->
      let stats = out.Engine.stats in
      let addi name v = add tr name (float_of_int v) in
      List.iter
        (fun (j : Stats.job) ->
          addi "mapred.input_records" j.Stats.input_records;
          addi "mapred.shuffle_records" j.Stats.shuffle_records;
          addi "mapred.reduce_groups" j.Stats.reduce_groups;
          addi "mapred.combine_in" j.Stats.combine_input_records;
          addi "mapred.combine_out" j.Stats.combine_output_records)
        stats.Stats.jobs;
      addi "mapred.shuffle_bytes" (Stats.total_shuffle_bytes stats);
      addi "mapred.cycles" (Stats.cycles stats);
      addi "mapred.map_only_cycles" (Stats.map_only_cycles stats));
    r
  end

(* Output decode: every result cell rendered with [Term.lexical]. *)
let render tr ~op (t : Table.t) =
  span tr ~layer:"rdf" ~name:"rdf.render" ~op (fun () ->
      let b = Buffer.create 256 in
      List.iter
        (fun row ->
          Array.iter
            (fun cell ->
              (match cell with
              | Some term -> Buffer.add_string b (Term.lexical term)
              | None -> ());
              Buffer.add_char b '\t')
            row;
          Buffer.add_char b '\n')
        t.Table.rows)

(* ---- workloads ---------------------------------------------------------- *)

type size = Full | Smoke

(* Simulated cost of one op, per query answered: deterministic, so the
   means over a workload's distinct ops repeat exactly on every run. *)
type sim = { sim_s : float; cycles : float; input_kb : float }

let sim_of_stats s =
  {
    sim_s = Stats.est_time_s s;
    cycles = float_of_int (Stats.cycles s);
    input_kb = float_of_int (Stats.total_input_bytes s) /. 1024.0;
  }

type outcome = {
  answered : int;  (** queries answered by the op *)
  sim : unit -> sim;  (** evaluated by the warm-up only *)
  after : unit -> string option;
      (** runs outside the timed region: checks every answer against its
          reference ([Some] describes a mismatch) *)
}

(* A workload is a population of distinct ops, indexed [0, population).
   The warm-up runs each op once; the measured phase runs rounds, each a
   fresh seeded shuffle of the whole population, and stops only between
   rounds, so every op is measured equally often and the seed decides
   the order. *)
type workload = {
  name : string;
  setup : tracer -> unit;  (** one complete set-up; the last one serves *)
  references : unit -> unit;  (** reference answers, outside all timing *)
  population : int;
  op : tracer -> id:int -> int -> (outcome, string) result;
  report : tracer -> (string * float * string) list * (string * Json.t) list;
      (** workload-specific traced metrics and JSON fields *)
}

(* The simulated cluster and planner options of bench/main.ml: paper
   startup costs, bandwidths scaled to this repo's dataset sizes, and a
   24 KiB map-join threshold. *)
let options =
  Plan_util.make
    ~cluster:(Rapida_mapred.Cluster.scaled_down ~factor:1.0e5)
    ~map_join_threshold:(24 * 1024) ()

let nt_text g =
  let b = Buffer.create (Graph.size g * 96) in
  List.iter
    (fun t ->
      Buffer.add_string b (Ntriples.triple_to_line t);
      Buffer.add_char b '\n')
    (Graph.triples g);
  Buffer.contents b

let uses_vp = function
  | Engine.Hive_naive | Engine.Hive_mqo -> true
  | Engine.Rapid_plus | Engine.Rapid_analytics -> false

(* One dataset's set-up: N-Triples parse, graph build, the storage
   layouts [kinds] scan (forced separately so each is timed), and one
   prepared session per kind. *)
let setup_dataset tr ~kinds text =
  let triples =
    span tr ~layer:"ntriples" ~name:"ntriples.parse" ~op:(-1) (fun () ->
        match Ntriples.parse_string text with
        | Ok ts -> ts
        | Error msg -> failwith ("generated N-Triples: " ^ msg))
  in
  let graph =
    span tr ~layer:"graph" ~name:"graph.build" ~op:(-1) (fun () ->
        Graph.of_list triples)
  in
  let input = Engine.input_of_graph graph in
  if List.exists uses_vp kinds then
    span tr ~layer:"vp_store" ~name:"vp_store.build" ~op:(-1) (fun () ->
        ignore (Engine.input_vp input));
  if not (List.for_all uses_vp kinds) then
    span tr ~layer:"tg_store" ~name:"tg_store.build" ~op:(-1) (fun () ->
        ignore (Engine.input_tg_store input));
  (input, Array.of_list (List.map (fun k -> Engine.prepare k input) kinds))

let parse_query tr ~op text =
  Result.bind
    (span tr ~layer:"parser" ~name:"parser.parse" ~op (fun () ->
         Parser.parse text))
    (fun ast ->
      span tr ~layer:"analytical" ~name:"analytical.normalize" ~op (fun () ->
          Analytical.of_query ast))

let check_answer ~what reference (t : Table.t) =
  if Relops.same_results reference t then None
  else Some (what ^ ": answer differs from the reference evaluator")

let unset () = failwith "benchmark state used before set-up"

(* Where an op's time goes on the client path: the share inside
   [Engine.execute] and the output decode. *)
let client_metrics tr =
  [
    ( "engine.execute_share",
      ratio (total tr "engine.execute") (total tr "op"),
      "fraction" );
    ("rdf.render_us", 1e6 *. mean tr "rdf.render", "us");
  ]

(* [catalog] and [ntga-large]: every catalog query on every engine of
   [kinds]; an op is parse -> normalize -> execute -> render. *)
let catalog_workload ~name ~size ~scale ~kinds =
  let module Bsbm = Rapida_datagen.Bsbm in
  let module Chem2bio = Rapida_datagen.Chem2bio in
  let module Pubmed = Rapida_datagen.Pubmed in
  let n base = base * scale / (match size with Full -> 1 | Smoke -> 20) in
  let datasets =
    [|
      ( Catalog.Bsbm,
        nt_text (Bsbm.generate (Bsbm.config ~products:(n 400) ())) );
      ( Catalog.Chem2bio,
        nt_text (Chem2bio.generate (Chem2bio.config ~compounds:(n 200) ())) );
      ( Catalog.Pubmed,
        nt_text (Pubmed.generate (Pubmed.config ~publications:(n 600) ())) );
    |]
  in
  let dataset_index d =
    let rec go i = if fst datasets.(i) = d then i else go (i + 1) in
    go 0
  in
  let queries = Array.of_list Catalog.all in
  let kinds_a = Array.of_list kinds in
  let nk = Array.length kinds_a in
  let population = Array.length queries * nk in
  let prepared = ref [||] in
  let refs = ref [||] in
  let exec_samples = Array.make population [] in
  let sims = Array.make population None in
  let setup tr =
    prepared :=
      Array.map (fun (_, text) -> setup_dataset tr ~kinds text) datasets
  in
  let references () =
    refs :=
      Array.map
        (fun (e : Catalog.entry) ->
          let input, _ = !prepared.(dataset_index e.Catalog.dataset) in
          Ref_engine.run (Engine.graph_of_input input) (Catalog.parse e))
        queries
  in
  let op tr ~id p =
    let qi = p / nk and ki = p mod nk in
    let e = queries.(qi) in
    match parse_query tr ~op:id e.Catalog.sparql with
    | Error msg -> Error (e.Catalog.id ^ ": " ^ msg)
    | Ok q -> (
      let _, sessions = !prepared.(dataset_index e.Catalog.dataset) in
      match execute tr ~op:id sessions.(ki) (Plan_util.context options) q with
      | Error err -> Error (e.Catalog.id ^ ": " ^ Engine.error_message err)
      | Ok out ->
        if tr.on then exec_samples.(p) <- tr.last_s :: exec_samples.(p);
        render tr ~op:id out.Engine.table;
        Ok
          {
            answered = 1;
            sim =
              (fun () ->
                let stats = out.Engine.stats in
                let sim = sim_of_stats stats in
                let shuffle_kb =
                  float_of_int (Stats.total_shuffle_bytes stats) /. 1024.0
                in
                sims.(p) <- Some (sim, shuffle_kb);
                sim);
            after =
              (fun () ->
                check_answer
                  ~what:
                    (Printf.sprintf "%s on %s" e.Catalog.id
                       (Engine.kind_name kinds_a.(ki)))
                  !refs.(qi) out.Engine.table);
          })
  in
  let report tr =
    let pairs =
      List.init population (fun p ->
          let e = queries.(p / nk) and k = kinds_a.(p mod nk) in
          let sim, shuffle_kb =
            match sims.(p) with
            | Some s -> s
            | None -> ({ sim_s = 0.0; cycles = 0.0; input_kb = 0.0 }, 0.0)
          in
          Json.Obj
            [
              ("query", Json.String e.Catalog.id);
              ("engine", Json.String (Engine.kind_name k));
              ( "execute_ms_p50",
                Json.Float (1000.0 *. median exec_samples.(p)) );
              ("samples", Json.Int (List.length exec_samples.(p)));
              ("sim_s", Json.Float sim.sim_s);
              ("mr_cycles", Json.Float sim.cycles);
              ("shuffle_kb", Json.Float shuffle_kb);
            ])
    in
    (client_metrics tr, [ ("pairs", Json.List pairs) ])
  in
  { name; setup; references; population; op; report }

(* [frontend]: 256 distinct generated queries over a 30-product BSBM
   through the `query --optimize` client path, which plans every query
   afresh with the cluster it runs on (no plan cache). *)
let frontend_workload ~size =
  let module Bsbm = Rapida_datagen.Bsbm in
  let products, distinct =
    match size with Full -> (30, 256) | Smoke -> (10, 16)
  in
  let g = Bsbm.generate (Bsbm.config ~products ()) in
  let text = nt_text g in
  (* A fixed query population, so the simulated metrics (means over the
     population) repeat exactly; the seed only orders each round. *)
  let texts =
    let env = Qgen.env_of_graph g (Stats_catalog.build g) in
    let rng = Prng.create ~seed:1 in
    let seen = Hashtbl.create distinct in
    let rec gen acc n =
      if n = distinct then Array.of_list (List.rev acc)
      else
        let t = To_sparql.query (Qgen.generate rng env ~mode:Qgen.Hitting) in
        if Hashtbl.mem seen t || Result.is_error (Analytical.parse t) then
          gen acc n
        else begin
          Hashtbl.add seen t ();
          gen (t :: acc) (n + 1)
        end
    in
    gen [] 0
  in
  let state = ref None in
  let refs = ref [||] in
  let setup tr =
    let input, sessions =
      setup_dataset tr ~kinds:[ Engine.Rapid_analytics ] text
    in
    let catalog =
      span tr ~layer:"stats_catalog" ~name:"stats_catalog.build" ~op:(-1)
        (fun () -> Stats_catalog.build (Engine.graph_of_input input))
    in
    state := Some (input, sessions.(0), catalog)
  in
  let get () = match !state with Some s -> s | None -> unset () in
  let references () =
    let input, _, _ = get () in
    refs :=
      Array.map
        (fun t ->
          Ref_engine.run (Engine.graph_of_input input) (Analytical.parse_exn t))
        texts
  in
  let op tr ~id i =
    let _, session, catalog = get () in
    match parse_query tr ~op:id texts.(i) with
    | Error msg -> Error (Printf.sprintf "query %d: %s" i msg)
    | Ok q -> (
      let d =
        span tr ~layer:"planner" ~name:"planner.plan" ~op:id (fun () ->
            Planner.plan ~cluster:options.Plan_util.cluster catalog q)
      in
      let ctx = Plan_util.context (Planner.apply d options) in
      match execute tr ~op:id session ctx q with
      | Error err ->
        Error (Printf.sprintf "query %d: %s" i (Engine.error_message err))
      | Ok out ->
        render tr ~op:id out.Engine.table;
        Ok
          {
            answered = 1;
            sim = (fun () -> sim_of_stats out.Engine.stats);
            after =
              (fun () ->
                check_answer ~what:(Printf.sprintf "query %d" i) !refs.(i)
                  out.Engine.table);
          })
  in
  let report tr =
    ( ("planner.plan_us", 1e6 *. mean tr "planner.plan", "us")
      :: client_metrics tr,
      [] )
  in
  { name = "frontend"; setup; references; population = distinct; op; report }

(* [server]: generated arrival streams through [Server.run] with the
   traffic and server settings of `rapida serve --generate`: seeds from
   its default 11 up, a 3 s mean gap, a 5 s admission window, fair
   share, MQO sharing, rapid-analytics, and the planner armed with its
   64-entry plan cache. A stream has 12 arrivals, as in the planner's
   repeated-traffic experiment, so catalog shapes repeat within a run
   and the plan cache is used. An op parses the stream's query texts,
   as a client's server would, and runs it. *)
let server_workload ~size =
  let module Bsbm = Rapida_datagen.Bsbm in
  let products, streams =
    match size with Full -> (400, 40) | Smoke -> (40, 2)
  in
  let text = nt_text (Bsbm.generate (Bsbm.config ~products ())) in
  (* A fixed stream population, as for [frontend]. *)
  let population =
    Array.init streams (fun k ->
        List.map
          (fun (a : Workload.arrival) ->
            ( a.Workload.a_time_s,
              a.Workload.a_label,
              (Catalog.find_exn a.Workload.a_label).Catalog.sparql ))
          (Workload.generate_exn ~seed:(11 + k) ~n:12 ~mean_gap_s:3.0 ())
            .Workload.arrivals)
  in
  let config =
    Server.config ~optimize:(Server.optimize ()) ~options
      Engine.Rapid_analytics
  in
  let state = ref None in
  let setup tr =
    let input, sessions =
      setup_dataset tr ~kinds:[ Engine.Rapid_analytics ] text
    in
    state := Some (input, sessions.(0))
  in
  let get () = match !state with Some s -> s | None -> unset () in
  let op tr ~id k =
    let input, session = get () in
    let rec arrivals i acc = function
      | [] -> Ok (List.rev acc)
      | (time, label, sparql) :: rest -> (
        match parse_query tr ~op:id sparql with
        | Error msg -> Error (label ^ ": " ^ msg)
        | Ok q ->
          arrivals (i + 1)
            ({
               Workload.a_id = i;
               a_time_s = time;
               a_label = label;
               a_deadline_s = None;
               a_query = q;
             }
            :: acc)
            rest)
    in
    match arrivals 0 [] population.(k) with
    | Error msg -> Error msg
    | Ok arrivals ->
      let r =
        span tr ~layer:"server" ~name:"server.run" ~op:id (fun () ->
            Server.run config input { Workload.arrivals })
      in
      let n = float_of_int (List.length arrivals) in
      Ok
        {
          answered = List.length arrivals;
          sim =
            (fun () ->
              {
                sim_s = r.Server.r_latency_mean_s;
                cycles = float_of_int r.Server.r_jobs /. n;
                input_kb = float_of_int r.Server.r_input_bytes /. n /. 1024.0;
              });
          after =
            (fun () ->
              if tr.on then begin
                (* The server's solo baseline, re-executed from outside
                   so its share of [server.run] shows. *)
                add tr "server.jobs_saved" (float_of_int r.Server.r_jobs_saved);
                add tr "server.solo_jobs" (float_of_int r.Server.r_solo_jobs);
                (match r.Server.r_optimize with
                | Some o ->
                  let c = o.Server.p_cache in
                  add tr "server.cache_hits" (float_of_int c.Plan_cache.hits);
                  add tr "server.cache_lookups"
                    (float_of_int (c.Plan_cache.hits + c.Plan_cache.misses))
                | None -> ());
                List.iter
                  (fun (a : Workload.arrival) ->
                    ignore
                      (execute tr ~op:id session (Plan_util.context options)
                         a.Workload.a_query);
                    add tr "server.solo_s" tr.last_s)
                  arrivals
              end;
              if r.Server.r_errors > 0 then
                Some
                  (Printf.sprintf "stream %d: %d failed queries" k
                     r.Server.r_errors)
              else if not r.Server.r_all_matched then
                Some
                  (Printf.sprintf
                     "stream %d: a shared answer differs from its solo run" k)
              else None);
        }
  in
  let report tr =
    ( [
        ("server.run_ms", 1000.0 *. mean tr "server.run", "ms");
        ( "server.solo_share",
          ratio (total tr "server.solo_s") (total tr "server.run"),
          "fraction" );
        ( "server.jobs_saved_rate",
          ratio (total tr "server.jobs_saved") (total tr "server.solo_jobs"),
          "fraction" );
        ( "server.plan_cache.hit_rate",
          ratio (total tr "server.cache_hits")
            (total tr "server.cache_lookups"),
          "fraction" );
      ],
      [] )
  in
  {
    name = "server";
    setup;
    references = (fun () -> ());
    population = streams;
    op;
    report;
  }

let workload_names = [ "catalog"; "ntga-large"; "frontend"; "server" ]

let make_workload ~size = function
  | "catalog" ->
    catalog_workload ~name:"catalog" ~size ~scale:1 ~kinds:Engine.all_kinds
  | "ntga-large" ->
    catalog_workload ~name:"ntga-large" ~size ~scale:3
      ~kinds:Engine.[ Rapid_plus; Rapid_analytics ]
  | "frontend" -> frontend_workload ~size
  | "server" -> server_workload ~size
  | other -> invalid_arg ("unknown workload " ^ other)

(* ---- one run ------------------------------------------------------------ *)

type stop = Seconds of float | Rounds of int

(* Share of the measured phase spent on the set-ups between rounds. *)
let setup_share = 0.05

type result = {
  workload : string;
  seed : int;
  traced : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** every metric, print order *)
  extra : (string * Json.t) list;
  chrome : Trace.t;
}

let setup_layers =
  [
    "ntriples.parse"; "graph.build"; "vp_store.build"; "tg_store.build";
    "stats_catalog.build";
  ]

let run w ~seed ~stop ~traced =
  let tr = tracer traced in
  let attempted = ref 0 and failed = ref 0 in
  let fail msg =
    incr failed;
    if !failed <= 5 then prerr_endline ("FAILED: " ^ msg)
  in
  let attempt f =
    incr attempted;
    match f () with
    | Error msg -> fail msg
    | Ok o -> (
      match try o.after () with e -> Some (Printexc.to_string e) with
      | Some msg -> fail msg
      | None -> ())
  in
  (* One complete set-up from a compacted heap. setup_s and the set-up
     layers' metrics are medians over all of a run's set-ups. *)
  let setups = ref [] and setup_spent = ref 0.0 in
  let layer_times = Hashtbl.create 8 in
  let setup () =
    Gc.compact ();
    let before = List.map (fun n -> (n, total tr n)) setup_layers in
    let t0 = now () in
    w.setup tr;
    let dt = now () -. t0 in
    setups := dt :: !setups;
    setup_spent := !setup_spent +. dt;
    List.iter
      (fun (n, b) ->
        if count tr n > 0.0 then
          Hashtbl.replace layer_times n
            ((total tr n -. b)
            :: Option.value ~default:[] (Hashtbl.find_opt layer_times n)))
      before
  in
  setup ();
  w.references ();
  (* Warm-up: every distinct op once, untraced. Its simulated costs are
     the deterministic metrics: means over the whole population. *)
  let quiet = tracer false in
  let n = w.population in
  let sims = ref [] and answers = Array.make n 0 in
  for k = 0 to n - 1 do
    attempt (fun () ->
        match w.op quiet ~id:(-1) k with
        | Ok o as r ->
          sims := o.sim () :: !sims;
          answers.(k) <- o.answered;
          r
        | Error _ as r -> r
        | exception e -> Error (Printexc.to_string e))
  done;
  (* The peak heap so far covers every op once; the measured phase's
     seeded order would only move it by GC timing. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.compact ();
  let rng = Prng.create ~seed in
  let order = Array.init n Fun.id and samples = Array.make n [] in
  let rounds = ref 0 and i = ref 0 in
  let t_start = now () in
  setup_spent := 0.0;
  let more () =
    match stop with
    | Seconds s -> now () -. t_start < s
    | Rounds r -> !rounds < r
  in
  while more () do
    for j = n - 1 downto 1 do
      let k = Prng.int rng (j + 1) in
      let t = order.(j) in
      order.(j) <- order.(k);
      order.(k) <- t
    done;
    Array.iter
      (fun k ->
        let w0 = if traced then Gc.minor_words () else 0.0 in
        let m0 =
          if traced then (Gc.quick_stat ()).Gc.major_collections else 0
        in
        let t0 = now () in
        let r = try w.op tr ~id:!i k with e -> Error (Printexc.to_string e) in
        let dt = now () -. t0 in
        if traced then begin
          add tr "op" dt;
          add tr "gc.minor_words" (Gc.minor_words () -. w0);
          add tr "gc.majors"
            (float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0))
        end;
        samples.(k) <- dt :: samples.(k);
        attempt (fun () -> r);
        incr i)
      order;
    incr rounds;
    (* Set up again until set-ups have taken [setup_share] of the
       measured phase, then drop the replaced state, so that the
       set-ups sample the same stretch of time as the ops. *)
    if !setup_spent < setup_share *. (now () -. t_start) then begin
      while !setup_spent < setup_share *. (now () -. t_start) do
        setup ()
      done;
      Gc.compact ()
    end
  done;
  (* Each op's median time over the run: a slow stretch of the host hits
     a few of an op's samples, and the median drops them. The percentiles
     and the throughput are over the population at those times. *)
  let typical = Array.to_list (Array.map median samples) in
  let rate =
    ratio
      (float_of_int (Array.fold_left ( + ) 0 answers))
      (List.fold_left ( +. ) 0.0 typical)
  in
  let ops = float_of_int !i in
  let det f = mean_of (List.map f !sims) in
  let common =
    [
      ( "error_rate",
        ratio (float_of_int !failed) (float_of_int !attempted),
        "fraction" );
      ("ops", ops, "count");
    ]
  in
  let metrics, extra =
    if not traced then
      ( [
          ("setup_s", median !setups, "s");
          ("op_ms_p50", 1000.0 *. percentile 50.0 typical, "ms");
          ("op_ms_p95", 1000.0 *. percentile 95.0 typical, "ms");
          ("queries_per_s", rate, "1/s");
          ( "top_heap_mb",
            float_of_int top_heap_words *. 8.0 /. 1048576.0,
            "MiB" );
          ("mr_cycles", det (fun s -> s.cycles), "jobs/query");
          ("input_kb", det (fun s -> s.input_kb), "KiB/query");
          ("sim_s", det (fun s -> s.sim_s), "s/query");
        ]
        @ common,
        [] )
    else
      let queries = count tr "engine.execute" in
      let per_query n = ratio (total tr n) queries in
      let setup_metrics =
        List.filter_map
          (fun n ->
            Option.map
              (fun ts -> (n ^ "_ms", 1000.0 *. median ts, "ms"))
              (Hashtbl.find_opt layer_times n))
          setup_layers
      in
      let own, extra = w.report tr in
      let other_engines =
        List.filter_map
          (fun k ->
            let n = execute_span k in
            if k = Engine.Rapid_analytics || count tr n = 0.0 then None
            else Some (n ^ "_ms", 1000.0 *. mean tr n, "ms"))
          Engine.all_kinds
      in
      ( setup_metrics
        @ [
            ("parser.parse_us", 1e6 *. mean tr "parser.parse", "us");
            ( "analytical.normalize_us",
              1e6 *. mean tr "analytical.normalize",
              "us" );
            ("engine.execute_ms", 1000.0 *. mean tr "engine.execute", "ms");
            ( "engine.rapid-analytics.execute_ms",
              1000.0 *. mean tr "engine.rapid-analytics.execute",
              "ms" );
            ( "engine.alloc_mw_per_query",
              per_query "engine.alloc_words" /. 1e6,
              "Mw" );
            ( "mapred.map_input_records",
              per_query "mapred.input_records",
              "records/query" );
            ( "mapred.shuffle_records",
              per_query "mapred.shuffle_records",
              "records/query" );
            ( "mapred.shuffle_kb",
              per_query "mapred.shuffle_bytes" /. 1024.0,
              "KiB/query" );
            ( "mapred.reduce_groups",
              per_query "mapred.reduce_groups",
              "groups/query" );
            ( "mapred.combine_ratio",
              (let i = total tr "mapred.combine_in" in
               if i = 0.0 then 1.0 else total tr "mapred.combine_out" /. i),
              "fraction" );
            ( "mapred.map_only_share",
              ratio
                (total tr "mapred.map_only_cycles")
                (total tr "mapred.cycles"),
              "fraction" );
            ( "gc.minor_mw_per_op",
              ratio (total tr "gc.minor_words") ops /. 1e6,
              "Mw/op" );
            ( "gc.major_per_kop",
              1000.0 *. ratio (total tr "gc.majors") ops,
              "majors/kop" );
            ("trace.queries_per_s", rate, "1/s");
          ]
        @ other_engines @ own @ common,
        extra )
  in
  {
    workload = w.name;
    seed;
    traced;
    attempted = !attempted;
    failed = !failed;
    metrics;
    extra;
    chrome = tr.chrome;
  }

(* ---- BENCHMARK.json ----------------------------------------------------- *)

type spec_metric = { m_name : string; m_lower : bool; m_bound : float option }

type spec = {
  e2e : spec_metric list;
  layers : spec_metric list;
  run_seconds : float;  (** the default length of the measured phase *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let str k j =
    match Json.member k j with
    | Some (Json.String s) -> s
    | _ -> failwith (path ^ ": missing " ^ k)
  in
  let num = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> nan
  in
  let metrics key j =
    match Json.member key j with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          {
            m_name = str "name" m;
            m_lower = str "better" m = "lower";
            m_bound = Option.map num (Json.member "bound" m);
          })
        ms
    | _ -> failwith (path ^ ": missing " ^ key)
  in
  match Json.of_string (read_file path) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j ->
    {
      e2e = metrics "end_to_end" j;
      layers = metrics "per_layer" j;
      run_seconds =
        (match Json.member "run_seconds" j with
        | Some v -> num v
        | None -> failwith (path ^ ": missing run_seconds"));
    }

let metric_json (n, v, u) =
  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])

(* The last line of a run: exactly the metrics BENCHMARK.json names for
   this kind of run ([names]), in its order. *)
let summary_json res ~names =
  Json.Obj
    [
      ("correct", Json.Bool (res.failed = 0));
      ("attempted", Json.Int res.attempted);
      ("failed", Json.Int res.failed);
      ( "metrics",
        Json.Obj
          (List.filter_map
             (fun m ->
               Option.map metric_json
                 (List.find_opt (fun (n, _, _) -> n = m.m_name) res.metrics))
             names) );
    ]

let record_json res ~seconds =
  Json.Obj
    ([
       ("workload", Json.String res.workload);
       ("seed", Json.Int res.seed);
       ("trace", Json.Bool res.traced);
       ("seconds", Json.Float seconds);
       ("correct", Json.Bool (res.failed = 0));
       ("attempted", Json.Int res.attempted);
       ("failed", Json.Int res.failed);
       ("metrics", Json.Obj (List.map metric_json res.metrics));
     ]
    @ res.extra)

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc line;
      output_char oc '\n')

(* ---- --smoke ------------------------------------------------------------ *)

(* Every workload at a tiny size, untraced and traced, two rounds each:
   every metric BENCHMARK.json names must be present and finite, no op
   may fail, and the Chrome trace must parse as JSON. *)
let smoke () =
  let spec = load_spec "BENCHMARK.json" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let t0 = now () in
  List.iter
    (fun name ->
      List.iter
        (fun traced ->
          let w = make_workload ~size:Smoke name in
          let res = run w ~seed:1 ~stop:(Rounds 2) ~traced in
          let mode = if traced then "traced" else "untraced" in
          List.iter
            (fun m ->
              match
                List.find_opt (fun (n, _, _) -> n = m.m_name) res.metrics
              with
              | None -> problem "%s %s: metric %s missing" name mode m.m_name
              | Some (_, v, _) when not (Float.is_finite v) ->
                problem "%s %s: metric %s is %f" name mode m.m_name v
              | Some _ -> ())
            (if traced then spec.layers else spec.e2e);
          if res.failed > 0 then
            problem "%s %s: %d of %d ops failed" name mode res.failed
              res.attempted;
          if
            traced
            && Result.is_error (Json.of_string (Trace.to_string res.chrome))
          then problem "%s: Chrome trace does not parse" name)
        [ false; true ])
    workload_names;
  match List.rev !problems with
  | [] ->
    Printf.printf "smoke: ok (%d runs, %.1f s)\n"
      (2 * List.length workload_names)
      (now () -. t0)
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* ---- --compare ---------------------------------------------------------- *)

let load_runs path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match Json.of_string line with
         | Error msg -> failwith (path ^ ": " ^ msg)
         | Ok j ->
           let workload =
             match Json.member "workload" j with
             | Some (Json.String s) -> s
             | _ -> "?"
           in
           let seed =
             match Json.member "seed" j with Some (Json.Int s) -> s | _ -> 0
           in
           let metrics =
             match Json.member "metrics" j with
             | Some (Json.Obj ms) ->
               List.filter_map
                 (fun (n, m) ->
                   match Json.member "value" m with
                   | Some (Json.Float v) -> Some (n, v)
                   | Some (Json.Int v) -> Some (n, float_of_int v)
                   | _ -> None)
                 ms
             | _ -> []
           in
           (workload, seed, metrics))

(* Improved when the change wins at least nine tenths of the
   seed-paired runs and the medians differ by more than the parent's
   quartile spread; unresolved
   when the parent's own spread is wider than the bound (unless every
   change run beats every parent run); worse when the change's median is
   worse than the parent's by more than the bound; otherwise no worse. *)
let verdict m parent change =
  let better x y = if m.m_lower then x < y else x > y in
  let q1, pm, q3 = quartiles (List.map snd parent) in
  let _, cm, _ = quartiles (List.map snd change) in
  (* The k-th parent and change runs of one seed form a pair. *)
  let pairs =
    let of_seed xs s =
      List.filter_map (fun (s', v) -> if s' = s then Some v else None) xs
    in
    let rec zip a b =
      match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
    in
    List.concat_map
      (fun s -> zip (of_seed parent s) (of_seed change s))
      (List.sort_uniq compare (List.map fst change))
  in
  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
  let all_better =
    List.for_all
      (fun (_, c) -> List.for_all (fun (_, p) -> better c p) parent)
      change
  in
  if pairs <> [] && 10 * wins >= 9 * List.length pairs
     && Float.abs (cm -. pm) > q3 -. q1 && better cm pm
  then "improved"
  else
    match m.m_bound with
    | None -> "-"
    | Some bound ->
      let scale = Float.abs pm in
      if ratio (q3 -. q1) scale > bound && not all_better then "unresolved"
      else
        let worse = if m.m_lower then cm -. pm else pm -. cm in
        if worse > bound *. scale then "worse" else "no worse"

let compare_files parent_path change_path =
  let spec = load_spec "BENCHMARK.json" in
  let parent = load_runs parent_path and change = load_runs change_path in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _) -> w) (parent @ change))
  in
  let values runs w name =
    List.filter_map
      (fun (w', seed, ms) ->
        if w' <> w then None
        else Option.map (fun v -> (seed, v)) (List.assoc_opt name ms))
      runs
  in
  Printf.printf "%-11s %-34s %5s %28s %28s %8s  %s\n" "workload" "metric" "runs"
    "parent median [q1, q3]" "change median [q1, q3]" "delta" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let p = values parent w m.m_name and c = values change w m.m_name in
          if p <> [] && c <> [] then begin
            let cell xs =
              let q1, q2, q3 = quartiles (List.map snd xs) in
              Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
            in
            let _, pm, _ = quartiles (List.map snd p) in
            let _, cm, _ = quartiles (List.map snd c) in
            Printf.printf "%-11s %-34s %2d/%-2d %28s %28s %+7.1f%%  %s\n" w
              m.m_name
              (List.length p) (List.length c) (cell p) (cell c)
              (100.0 *. ratio (cm -. pm) (Float.abs pm))
              (verdict m p c)
          end)
        (spec.e2e @ spec.layers))
    workloads

(* ---- main --------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref None in
  let trace = ref 0 and json = ref None and smoke_run = ref false in
  let parent = ref "" and change = ref "" in
  let usage =
    "rapida_perf --workload NAME --seed N [--seconds S] [--trace 0|1]\n\
    \                     [--json FILE]\n\
     rapida_perf --smoke\n\
     rapida_perf --compare PARENT.jsonl CHANGE.jsonl"
  in
  let specs =
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat " | " workload_names );
      ("--seed", Arg.Set_int seed, "N  seed of the op stream");
      ( "--seconds",
        Arg.Float (fun s -> seconds := Some s),
        "S  length of the measured phase (default: run_seconds of \
         BENCHMARK.json)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1  1: time every layer call, print per-layer metrics" );
      ( "--json",
        Arg.String (fun f -> json := Some f),
        "FILE  append the run as one JSON line" );
      ( "--smoke",
        Arg.Set smoke_run,
        "  every workload at a tiny size, checked" );
      ( "--compare",
        Arg.Tuple [ Arg.Set_string parent; Arg.Set_string change ],
        "PARENT CHANGE  compare two files of --json runs" );
    ]
  in
  let bad msg =
    prerr_endline ("rapida_perf: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let anonymous a = raise (Arg.Bad ("unexpected argument " ^ a)) in
  (try Arg.parse_argv Sys.argv specs anonymous usage with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg -> bad msg);
  if !smoke_run then smoke ()
  else if !parent <> "" then compare_files !parent !change
  else begin
    if not (List.mem !workload workload_names) then
      bad ("--workload must be one of " ^ String.concat ", " workload_names);
    if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
    let spec = load_spec "BENCHMARK.json" in
    let seconds = Option.value !seconds ~default:spec.run_seconds in
    if not (seconds > 0.0) then bad "--seconds must be positive";
    let w = make_workload ~size:Full !workload in
    let res = run w ~seed:!seed ~stop:(Seconds seconds) ~traced:(!trace = 1) in
    if res.traced then begin
      let path =
        Printf.sprintf "_perf/%s-seed%d.trace.json" res.workload res.seed
      in
      mkdir_p (Filename.dirname path);
      Trace.write_file res.chrome path;
      prerr_endline ("wrote " ^ path)
    end;
    Option.iter
      (fun path ->
        append_line path (Json.to_string (record_json res ~seconds)))
      !json;
    List.iter
      (fun (n, v, u) ->
        Printf.printf "%s %s %s\n" n (Json.to_string (Json.Float v)) u)
      res.metrics;
    print_endline
      (Json.to_string
         (summary_json res
            ~names:(if res.traced then spec.layers else spec.e2e)));
    if res.failed > 0 then exit 1
  end
