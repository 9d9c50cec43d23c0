(* MapReduce simulator: execution semantics (determinism, combiner
   soundness), task estimation, and the cost model's monotonicity. *)

module Cluster = Rapida_mapred.Cluster
module Exec_ctx = Rapida_mapred.Exec_ctx
module Job = Rapida_mapred.Job
module Stats = Rapida_mapred.Stats
module Workflow = Rapida_mapred.Workflow

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Every job runs inside an execution context; build one per cluster. *)
let ctx cluster = Exec_ctx.create ~cluster ()

(* A classic word-count job over strings. *)
let wordcount ~with_combiner : (string, string, int, string * int) Job.spec =
  {
    name = "wordcount";
    map = (fun line -> List.map (fun w -> (w, 1)) (String.split_on_char ' ' line));
    combine =
      (if with_combiner then
         Some (fun _k counts -> [ List.fold_left ( + ) 0 counts ])
       else None);
    reduce = (fun k counts -> [ (k, List.fold_left ( + ) 0 counts) ]);
    input_size = String.length;
    key_size = String.length;
    value_size = (fun _ -> 4);
    output_size = (fun (k, _) -> String.length k + 4);
  }

let lines = [ "a b a"; "b c"; "a"; "c c c b" ]

let test_wordcount () =
  let out, stats = Job.run (ctx Cluster.default) (wordcount ~with_combiner:false) lines in
  Alcotest.(check (list (pair string int)))
    "counts" [ ("a", 3); ("b", 3); ("c", 4) ]
    (List.sort compare out);
  check_int "input records" 4 stats.Stats.input_records;
  check_bool "shuffle bytes accounted" true (stats.Stats.shuffle_bytes > 0)

let test_combiner_equivalence () =
  let out1, s1 = Job.run (ctx Cluster.default) (wordcount ~with_combiner:false) lines in
  let out2, s2 = Job.run (ctx Cluster.default) (wordcount ~with_combiner:true) lines in
  Alcotest.(check (list (pair string int)))
    "same result" (List.sort compare out1) (List.sort compare out2);
  check_bool "combiner does not increase shuffle" true
    (s2.Stats.shuffle_records <= s1.Stats.shuffle_records)

let test_combiner_reduces_shuffle () =
  (* Force multiple map tasks so per-task combining has something to do:
     tiny blocks, repetitive input. *)
  let cluster = { Cluster.default with block_size_bytes = 8 } in
  let input = List.init 40 (fun _ -> "x x x") in
  let _, s_plain = Job.run (ctx cluster) (wordcount ~with_combiner:false) input in
  let _, s_comb = Job.run (ctx cluster) (wordcount ~with_combiner:true) input in
  check_bool "combiner shrinks shuffle" true
    (s_comb.Stats.shuffle_records < s_plain.Stats.shuffle_records)

let test_determinism () =
  let run () = fst (Job.run (ctx Cluster.default) (wordcount ~with_combiner:true) lines) in
  Alcotest.(check (list (pair string int))) "deterministic" (run ()) (run ())

let test_empty_input () =
  let out, stats = Job.run (ctx Cluster.default) (wordcount ~with_combiner:true) [] in
  check_int "no output" 0 (List.length out);
  check_int "no shuffle" 0 stats.Stats.shuffle_records;
  check_bool "still pays startup" true
    (stats.Stats.est_time_s >= Cluster.default.Cluster.job_startup_s)

let test_map_only () =
  let spec : (int, int) Job.map_only_spec =
    {
      mo_name = "double";
      mo_map = (fun x -> [ x * 2 ]);
      mo_input_size = (fun _ -> 8);
      mo_output_size = (fun _ -> 8);
    }
  in
  let out, stats = Job.run_map_only (ctx Cluster.default) spec [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "doubled" [ 2; 4; 6 ] out;
  check_bool "map-only kind" true (stats.Stats.kind = Stats.Map_only);
  check_int "no reducers" 0 stats.Stats.reduce_tasks

let test_map_task_estimation () =
  let c = { Cluster.default with block_size_bytes = 1024 } in
  check_int "one block" 1 (Job.estimate_map_tasks c ~input_bytes:100);
  check_int "exact" 2 (Job.estimate_map_tasks c ~input_bytes:2048);
  check_int "round up" 3 (Job.estimate_map_tasks c ~input_bytes:2049);
  check_int "empty input still one task" 1 (Job.estimate_map_tasks c ~input_bytes:0);
  (* One byte past a boundary opens a new split; one byte under does not. *)
  check_int "one under boundary" 1 (Job.estimate_map_tasks c ~input_bytes:1023);
  check_int "one block exactly" 1 (Job.estimate_map_tasks c ~input_bytes:1024);
  check_int "one over boundary" 2 (Job.estimate_map_tasks c ~input_bytes:1025);
  (* Splitting goes by stored (compressed) bytes: a 0.25 ratio turns
     8 raw blocks into 2 splits, and a compressed sub-block input (or a
     zero-byte one) still launches a single task. *)
  let stored bytes ratio = int_of_float (float_of_int bytes *. ratio) in
  check_int "compression shrinks splits" 2
    (Job.estimate_map_tasks c ~input_bytes:(stored (8 * 1024) 0.25));
  check_int "compressed below one block" 1
    (Job.estimate_map_tasks c ~input_bytes:(stored 2048 0.25));
  check_int "compressed to nothing" 1
    (Job.estimate_map_tasks c ~input_bytes:(stored 3 0.25))

let test_cost_monotone_in_data () =
  let spec = wordcount ~with_combiner:false in
  let small = [ "a b" ] in
  let big = List.init 200 (fun i -> Printf.sprintf "w%d x%d y%d" i i i) in
  let _, s1 = Job.run (ctx Cluster.default) spec small in
  let _, s2 = Job.run (ctx Cluster.default) spec big in
  check_bool "more data costs more" true (s2.Stats.est_time_s > s1.Stats.est_time_s)

let test_compression_reduces_map_tasks () =
  let c = { Cluster.default with block_size_bytes = 64; compression_ratio = 0.1 } in
  let input = List.init 100 (fun i -> Printf.sprintf "longish input line %d" i) in
  let _, s_comp = Job.run (ctx c) (wordcount ~with_combiner:false) input in
  let _, s_plain =
    Job.run (ctx { c with compression_ratio = 1.0 }) (wordcount ~with_combiner:false) input
  in
  check_bool "compressed input launches fewer mappers" true
    (s_comp.Stats.map_tasks < s_plain.Stats.map_tasks);
  (* ... and with map slots to spare, fewer mappers means more time. *)
  check_bool "fewer mappers cost time" true
    (s_comp.Stats.est_time_s >= s_plain.Stats.est_time_s)

let test_workflow_accumulates () =
  let wf = Workflow.create (ctx Cluster.default) in
  let _ = Workflow.run_job wf (wordcount ~with_combiner:false) lines in
  let spec : (string * int, string) Job.map_only_spec =
    {
      mo_name = "format";
      mo_map = (fun (k, v) -> [ Printf.sprintf "%s=%d" k v ]);
      mo_input_size = (fun _ -> 8);
      mo_output_size = String.length;
    }
  in
  let _ =
    Workflow.run_map_only wf spec [ ("a", 1) ]
  in
  let stats = Workflow.stats wf in
  check_int "two cycles" 2 (Stats.cycles stats);
  check_int "one full" 1 (Stats.full_cycles stats);
  check_int "one map-only" 1 (Stats.map_only_cycles stats);
  check_bool "est time positive" true (Stats.est_time_s stats > 0.0)

let test_failure_injection () =
  let module Fi = Rapida_mapred.Fault_injector in
  let spec = wordcount ~with_combiner:false in
  let input = List.init 100 (fun i -> Printf.sprintf "alpha beta %d" i) in
  let healthy = { Cluster.default with disk_mb_per_s = 0.001 } in
  let flaky =
    Fi.create
      { Fi.default with Fi.seed = 7; task_fail_p = 0.3; max_attempts = 100 }
  in
  let out_h, s_h = Job.run (ctx healthy) spec input in
  let out_f, s_f =
    Job.run (Exec_ctx.create ~cluster:healthy ~faults:flaky ()) spec input
  in
  Alcotest.(check (list (pair string int)))
    "failures never change results"
    (List.sort compare out_h) (List.sort compare out_f);
  check_bool "failures cost time" true
    (s_f.Stats.est_time_s > s_h.Stats.est_time_s)

let test_scaled_down_profile () =
  let c = Cluster.scaled_down ~factor:1000.0 in
  check_bool "bandwidth divided" true
    (c.Cluster.disk_mb_per_s < Cluster.default.Cluster.disk_mb_per_s /. 999.0);
  check_bool "startup preserved" true
    (c.Cluster.job_startup_s = Cluster.default.Cluster.job_startup_s)

(* Property: for random inputs, running with a combiner never changes the
   reduce-side result (merge-based partial aggregation soundness at the
   job level). *)
let prop_combiner_sound =
  QCheck2.Test.make ~count:200 ~name:"combiner never changes results"
    QCheck2.Gen.(
      list_size (0 -- 30)
        (string_size ~gen:(char_range 'a' 'd') (1 -- 5)))
    (fun words ->
      let lines = List.map (fun w -> w ^ " " ^ w) words in
      let cluster = { Cluster.default with block_size_bytes = 4 } in
      let a = fst (Job.run (ctx cluster) (wordcount ~with_combiner:false) lines) in
      let b = fst (Job.run (ctx cluster) (wordcount ~with_combiner:true) lines) in
      List.sort compare a = List.sort compare b)

(* --- Grouping order ------------------------------------------------------ *)

module Memory = Rapida_mapred.Memory

(* [Hashtbl.hash] reads only the first 10 elements of a list, so keys
   that share this prefix and differ after it all collide. *)
let collide_prefix = List.init 10 Fun.id

(* The documented grouping order on an assoc list: the key first seen
   last leads, and values keep arrival order. *)
let ref_group pairs =
  List.fold_left
    (fun groups (k, v) ->
      if List.exists (fun (k', _) -> compare k k' = 0) groups then
        List.map
          (fun (k', vs) -> if compare k k' = 0 then (k', vs @ [ v ]) else (k', vs))
          groups
      else (k, [ v ]) :: groups)
    [] pairs

(* [arity] picks the combiner: 0, 1 or 2 values per key, or (3) a count
   that depends on the key. *)
let combiner arity k vs =
  let sum = List.fold_left ( + ) 0 vs in
  match if arity = 3 then List.length k mod 3 else arity with
  | 0 -> []
  | 1 -> [ sum ]
  | _ -> [ List.hd vs; sum ]

(* A job whose records are lists of (key, value) pairs and whose reducer
   returns each group as it receives it, except that it throws on
   [bomb]. *)
let grouping_spec ~combine ~bomb : ((int list * int) list, int list, int, int list * int list) Job.spec =
  {
    name = "grouping";
    map = Fun.id;
    combine = Option.map combiner combine;
    reduce =
      (fun k vs -> if Some k = bomb then failwith "bomb" else [ (k, vs) ]);
    input_size = (fun r -> 8 + (16 * List.length r));
    key_size = (fun k -> 4 * List.length k);
    value_size = (fun _ -> 8);
    output_size = (fun (k, vs) -> 4 * (List.length k + List.length vs));
  }

(* What [Job.run] must produce, computed the slow way: equal-count
   splits, per-task combining (off for a task over the heap), one
   grouping of every task's output in task order, one reduce per group.
   Returns the groups and the stats' counting fields. *)
let ref_run cluster spec records =
  let counted_bytes f xs = List.fold_left (fun acc x -> acc + f x) 0 xs in
  let pair_bytes (k, v) = spec.Job.key_size k + spec.Job.value_size v + 12 in
  let input_bytes = counted_bytes spec.Job.input_size records in
  let map_tasks = Job.estimate_map_tasks cluster ~input_bytes in
  let len = List.length records in
  let per = max 1 ((len + map_tasks - 1) / map_tasks) in
  let tasks =
    if len = 0 then [ [] ]
    else
      List.fold_left
        (fun acc r ->
          match acc with
          | t :: rest when List.length t < per -> (t @ [ r ]) :: rest
          | _ -> [ r ] :: acc)
        [] records
      |> List.rev
  in
  let mem = Cluster.memory cluster in
  let budget = Memory.spill_budget mem in
  let oom_kills = ref 0 and map_spilled = ref 0 and map_passes = ref 0 in
  let outs =
    List.map
      (fun task ->
        let emitted = List.concat task in
        let out =
          match spec.Job.combine with
          | None -> emitted
          | Some _ when counted_bytes pair_bytes emitted > mem.Memory.task_heap_bytes ->
            oom_kills :=
              !oom_kills
              + Memory.oom_attempts
                  ~max_attempts:Rapida_mapred.Fault_injector.default.max_attempts;
            emitted
          | Some c ->
            List.concat_map
              (fun (k, vs) -> List.map (fun v -> (k, v)) (c k vs))
              (ref_group emitted)
        in
        let out_bytes = counted_bytes pair_bytes out in
        let passes = Memory.spill_passes ~budget_bytes:budget ~data_bytes:out_bytes in
        map_spilled := !map_spilled + (passes * out_bytes);
        map_passes := !map_passes + passes;
        out)
      tasks
  in
  let shuffle = List.concat outs in
  let shuffle_bytes = counted_bytes pair_bytes shuffle in
  let groups = ref_group shuffle in
  let reduce_tasks =
    min (max 1 (List.length groups)) (Cluster.reduce_slots cluster)
  in
  let passes =
    Memory.spill_passes ~budget_bytes:budget
      ~data_bytes:(shuffle_bytes / reduce_tasks)
  in
  let fields =
    [
      ("input_records", len);
      ("input_bytes", input_bytes);
      ("shuffle_records", List.length shuffle);
      ("shuffle_bytes", shuffle_bytes);
      ("output_records", List.length groups);
      ("output_bytes", counted_bytes spec.Job.output_size groups);
      ("map_tasks", map_tasks);
      ("reduce_tasks", reduce_tasks);
      ("combine_input_records", List.length (List.concat (List.concat tasks)));
      ("combine_output_records", List.length shuffle);
      ("reduce_groups", List.length groups);
      ("spilled_bytes", !map_spilled + (passes * shuffle_bytes));
      ("spill_passes", !map_passes + (passes * reduce_tasks));
      ("oom_kills", !oom_kills);
    ]
  in
  (groups, reduce_tasks, fields)

let stats_fields (s : Stats.job) =
  [
    ("input_records", s.Stats.input_records);
    ("input_bytes", s.Stats.input_bytes);
    ("shuffle_records", s.Stats.shuffle_records);
    ("shuffle_bytes", s.Stats.shuffle_bytes);
    ("output_records", s.Stats.output_records);
    ("output_bytes", s.Stats.output_bytes);
    ("map_tasks", s.Stats.map_tasks);
    ("reduce_tasks", s.Stats.reduce_tasks);
    ("combine_input_records", s.Stats.combine_input_records);
    ("combine_output_records", s.Stats.combine_output_records);
    ("reduce_groups", s.Stats.reduce_groups);
    ("spilled_bytes", s.Stats.spilled_bytes);
    ("spill_passes", s.Stats.spill_passes);
    ("oom_kills", s.Stats.oom_kills);
  ]

let test_collide_prefix () =
  check_bool "keys past the hashed prefix collide" true
    (Hashtbl.hash (collide_prefix @ [ 1; 0 ]) = Hashtbl.hash (collide_prefix @ [ 2; 1 ]))

(* Property: [Job.run] groups exactly as the reference does, in the
   documented order — over one or several map tasks, with no combiner
   or combiners of every arity, with the combiner forced off by a tight
   heap, over keys that collide under [Hashtbl.hash], and over enough
   distinct keys to outgrow a small table. A reducer
   that throws on one group fails the task [group mod reduce_tasks]. *)
let prop_grouping_order =
  let open QCheck2.Gen in
  let key =
    oneof
      [
        map (fun a -> [ a ]) (0 -- 6);
        map (fun a -> [ a; a ]) (0 -- 99);
        map2 (fun b c -> collide_prefix @ [ b; c ]) (0 -- 3) (0 -- 2);
      ]
  in
  let gen =
    tup5
      (list_size (0 -- 20) (list_size (0 -- 6) key))
      (oneofl [ 16; 64; 1 lsl 20 ])
      (opt (0 -- 3))
      (oneofl [ None; Some 48; Some 200 ])
      (opt (0 -- 60))
  in
  QCheck2.Test.make ~count:300 ~name:"grouping keeps the documented order" gen
    (fun (keys, block_size_bytes, combine, heap, bomb_at) ->
      (* Number every emitted pair so that value order is observable. *)
      let next = ref 0 in
      let records =
        List.map
          (List.map (fun k ->
               incr next;
               (k, !next)))
          keys
      in
      let cluster =
        let c = { Cluster.default with block_size_bytes } in
        match heap with
        | None -> c
        | Some h ->
          Cluster.with_memory c
            { Memory.task_heap_bytes = h; sort_buffer_bytes = h; spill_threshold = 0.8 }
      in
      let groups, reduce_tasks, fields =
        ref_run cluster (grouping_spec ~combine ~bomb:None) records
      in
      let bomb =
        Option.bind bomb_at (fun i -> Option.map fst (List.nth_opt groups i))
      in
      match Job.run (ctx cluster) (grouping_spec ~combine ~bomb) records with
      | out, stats ->
        bomb = None && out = groups && stats_fields stats = fields
      | exception Job.Job_failed f ->
        let i = Option.get bomb_at in
        f.Job.f_phase = Rapida_mapred.Fault_injector.Reduce
        && f.Job.f_task = i mod reduce_tasks)

(* --- JSON unicode escapes ------------------------------------------------ *)

module Json = Rapida_mapred.Json

let decode s =
  match Json.of_string s with
  | Ok (Json.String v) -> v
  | Ok _ -> Alcotest.fail "expected a JSON string"
  | Error e -> Alcotest.fail ("parse error: " ^ e)

let test_json_unicode_escapes () =
  (* BMP escapes decode to their UTF-8 bytes. *)
  Alcotest.(check string) "2-byte char" "\xc3\xa9" (decode {|"\u00e9"|});
  Alcotest.(check string) "3-byte char" "\xe2\x82\xac" (decode {|"\u20ac"|});
  (* A surrogate pair combines into one astral code point: U+1F389. *)
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x8e\x89"
    (decode {|"\ud83c\udf89"|});
  (* Lone surrogates (high without low, low alone) become U+FFFD, and a
     high surrogate followed by a non-surrogate keeps the follower. *)
  Alcotest.(check string) "lone high surrogate" "\xef\xbf\xbdx"
    (decode {|"\ud83cx"|});
  Alcotest.(check string) "lone low surrogate" "\xef\xbf\xbd"
    (decode {|"\udf89"|});
  Alcotest.(check string) "high then bmp escape" "\xef\xbf\xbd\xc3\xa9"
    (decode {|"\ud83c\u00e9"|});
  (* Malformed escapes are parse errors, not crashes. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed escape %s" s
      | Error _ -> ())
    [ {|"\u12"|}; {|"\uzzzz"|}; {|"\u"|} ]

let test_json_unicode_roundtrip () =
  (* to_string passes raw UTF-8 through, so decode-then-encode-then-decode
     is stable for escaped input. *)
  let v = decode {|"caf\u00e9 \ud83c\udf89"|} in
  Alcotest.(check string) "utf-8 value" "caf\xc3\xa9 \xf0\x9f\x8e\x89" v;
  match Json.of_string (Json.to_string (Json.String v)) with
  | Ok (Json.String v') -> Alcotest.(check string) "round-trip" v v'
  | _ -> Alcotest.fail "round-trip failed"

let suite =
  [
    Alcotest.test_case "wordcount" `Quick test_wordcount;
    Alcotest.test_case "combiner equivalence" `Quick test_combiner_equivalence;
    Alcotest.test_case "combiner reduces shuffle" `Quick test_combiner_reduces_shuffle;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "map-only job" `Quick test_map_only;
    Alcotest.test_case "map task estimation" `Quick test_map_task_estimation;
    Alcotest.test_case "cost monotone in data" `Quick test_cost_monotone_in_data;
    Alcotest.test_case "compression reduces mappers" `Quick test_compression_reduces_map_tasks;
    Alcotest.test_case "workflow accumulates" `Quick test_workflow_accumulates;
    Alcotest.test_case "failure injection" `Quick test_failure_injection;
    Alcotest.test_case "scaled-down profile" `Quick test_scaled_down_profile;
    QCheck_alcotest.to_alcotest prop_combiner_sound;
    Alcotest.test_case "colliding keys" `Quick test_collide_prefix;
    QCheck_alcotest.to_alcotest prop_grouping_order;
  ]
