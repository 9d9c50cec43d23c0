(* Execution-context telemetry: span ordering on the simulated clock,
   the per-phase time breakdown invariant, counter registry contents,
   and the validity of the exported Chrome trace-event JSON. *)

module Cluster = Rapida_mapred.Cluster
module Exec_ctx = Rapida_mapred.Exec_ctx
module Job = Rapida_mapred.Job
module Json = Rapida_mapred.Json
module Stats = Rapida_mapred.Stats
module Trace = Rapida_mapred.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_list = Alcotest.(check (list string))

let wordcount ~with_combiner : (string, string, int, string * int) Job.spec =
  {
    name = "wc";
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

let format_spec : (string * int, string) Job.map_only_spec =
  {
    mo_name = "fmt";
    mo_map = (fun (k, v) -> [ Printf.sprintf "%s=%d" k v ]);
    mo_input_size = (fun _ -> 8);
    mo_output_size = String.length;
  }

let lines = [ "a b a"; "b c"; "a"; "c c c b" ]

(* The phase name each span carries in its args. *)
let phase_of (e : Trace.event) =
  match List.assoc_opt "phase" e.Trace.args with
  | Some (Json.String p) -> p
  | _ -> Alcotest.failf "phase span %s lacks a phase arg" e.Trace.name

let test_phase_names () =
  let ctx = Exec_ctx.create () in
  let _, _ = Job.run ctx (wordcount ~with_combiner:true) lines in
  check_str_list "one span per phase, in phase order"
    [ "startup"; "map-read"; "combine"; "shuffle"; "sort"; "reduce-write" ]
    (List.map phase_of (Trace.spans_with_cat (Exec_ctx.trace ctx) "phase"));
  (* Without a combiner there is no combine span. *)
  let ctx = Exec_ctx.create () in
  let _, _ = Job.run ctx (wordcount ~with_combiner:false) lines in
  check_str_list "no combine span without a combiner"
    [ "startup"; "map-read"; "shuffle"; "sort"; "reduce-write" ]
    (List.map phase_of (Trace.spans_with_cat (Exec_ctx.trace ctx) "phase"))

let test_map_only_phase_names () =
  let ctx = Exec_ctx.create () in
  let _, _ = Job.run_map_only ctx format_spec [ ("a", 1); ("b", 2) ] in
  check_str_list "map-only phases"
    [ "startup"; "map-read"; "map-write" ]
    (List.map phase_of (Trace.spans_with_cat (Exec_ctx.trace ctx) "phase"))

let test_span_ordering () =
  (* Two jobs on one context: the second job's spans start exactly where
     the first job ended — the sequential Hadoop DAG timeline. *)
  let ctx = Exec_ctx.create () in
  let _, s1 = Job.run ctx (wordcount ~with_combiner:true) lines in
  let _, s2 = Job.run_map_only ctx format_spec [ ("a", 1) ] in
  let trace = Exec_ctx.trace ctx in
  let jobs = Trace.spans_with_cat trace "job" in
  check_int "two job spans" 2 (List.length jobs);
  let j1 = List.nth jobs 0 and j2 = List.nth jobs 1 in
  check_bool "first job starts at 0" true (j1.Trace.ts_us = 0.0);
  check_bool "second job starts where the first ended" true
    (Float.abs (j2.Trace.ts_us -. (s1.Stats.est_time_s *. 1e6)) < 1e-3);
  check_bool "clock advanced by both jobs" true
    (Float.abs
       (Trace.now_s trace -. (s1.Stats.est_time_s +. s2.Stats.est_time_s))
    < 1e-9);
  (* Phase spans tile their job span: each starts where the previous
     ended, and they never overrun the job. *)
  let phases = Trace.spans_with_cat trace "phase" in
  let _ =
    List.fold_left
      (fun at (e : Trace.event) ->
        let at = if e.Trace.ts_us +. 1e-3 < at then at else e.Trace.ts_us in
        check_bool (e.Trace.name ^ " starts after its predecessor") true
          (e.Trace.ts_us +. 1e-3 >= at);
        e.Trace.ts_us +. e.Trace.dur_us)
      0.0 phases
  in
  ()

let test_determinism () =
  let run () =
    let ctx = Exec_ctx.create () in
    let _ = Job.run ctx (wordcount ~with_combiner:true) lines in
    let _ = Job.run_map_only ctx format_spec [ ("a", 1) ] in
    Trace.to_string (Exec_ctx.trace ctx)
  in
  Alcotest.(check string) "identical exports across runs" (run ()) (run ())

let breakdown_matches (s : Stats.job) =
  Float.abs (Stats.breakdown_total_s s.Stats.breakdown -. s.Stats.est_time_s)
  < 1e-9 *. Float.max 1.0 s.Stats.est_time_s

let test_phase_sum_invariant () =
  let ctx = Exec_ctx.create () in
  let _, mr = Job.run ctx (wordcount ~with_combiner:true) lines in
  check_bool "MR phases sum to the estimate" true (breakdown_matches mr);
  let _, mo = Job.run_map_only ctx format_spec [ ("a", 1); ("b", 2) ] in
  check_bool "map-only phases sum to the estimate" true (breakdown_matches mo);
  (* And with failure retries in play. *)
  let module Fi = Rapida_mapred.Fault_injector in
  let flaky = Fi.create { Fi.default with Fi.seed = 5; task_fail_p = 0.25 } in
  let slow = { Cluster.default with disk_mb_per_s = 0.001 } in
  let ctx = Exec_ctx.create ~cluster:slow ~faults:flaky () in
  let _, mrf = Job.run ctx (wordcount ~with_combiner:false) lines in
  check_bool "invariant survives retry re-work" true (breakdown_matches mrf)

let test_counters () =
  let cluster = { Cluster.default with block_size_bytes = 8 } in
  let ctx = Exec_ctx.create ~cluster () in
  let input = List.init 40 (fun _ -> "x x x") in
  let _, job = Job.run ctx (wordcount ~with_combiner:true) input in
  let counters = Stats.counters (Stats.append Stats.empty job) in
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  check_int "job counted" 1 (get "mr.jobs");
  check_bool "no map-only jobs, so no key" false
    (List.mem_assoc "mr.map_only_jobs" counters);
  check_int "input records" 40 (get "mr.input_records");
  check_int "combiner input is the map-emitted count" 120
    (get "mr.combine.input_records");
  check_bool "combiner shrank the shuffle" true
    (get "mr.combine.output_records" < get "mr.combine.input_records");
  check_int "combiner output feeds the shuffle" (get "mr.shuffle_records")
    (get "mr.combine.output_records");
  check_int "one group per distinct word" 1 (get "mr.reduce.groups");
  check_bool "in name order" true
    (List.sort compare (List.map fst counters) = List.map fst counters)

(* An independent JSON reader (full RFC 8259 syntax): the exporter goes
   through Json.to_string, so validity here catches escaping and float
   formatting regressions with a second implementation. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise Exit in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    match peek () with
    | Some c ->
      incr pos;
      c
    | None -> fail ()
  in
  let rec ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail () in
  let literal lit = String.iter expect lit in
  let digits () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some '0' .. '9' ->
        incr pos;
        go ()
      | _ -> ()
    in
    go ();
    if !pos = start then fail ()
  in
  let number () =
    if peek () = Some '-' then incr pos;
    digits ();
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with
      | Some ('+' | '-') -> incr pos
      | _ -> ());
      digits ()
    | _ -> ())
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match next () with
      | '"' -> ()
      | '\\' ->
        (match next () with
        | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' -> ()
        | 'u' ->
          for _ = 1 to 4 do
            match next () with
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
            | _ -> fail ()
          done
        | _ -> fail ());
        go ()
      | c when Char.code c < 0x20 -> fail ()
      | _ -> go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail ()
  and obj () =
    expect '{';
    ws ();
    if peek () = Some '}' then incr pos
    else
      let rec members () =
        ws ();
        string_lit ();
        ws ();
        expect ':';
        value ();
        ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    ws ();
    if peek () = Some ']' then incr pos
    else
      let rec elements () =
        value ();
        ws ();
        match next () with
        | ',' -> elements ()
        | ']' -> ()
        | _ -> fail ()
      in
      elements ()
  in
  match value () with
  | () ->
    ws ();
    !pos = n
  | exception Exit -> false

let test_export_is_valid_json () =
  let ctx = Exec_ctx.create () in
  let _ = Job.run ctx (wordcount ~with_combiner:true) lines in
  let _ = Job.run_map_only ctx format_spec [ ("a", 1) ] in
  let doc = Trace.to_string (Exec_ctx.trace ctx) in
  check_bool "checker accepts valid documents" true
    (json_valid {|{"a": [1, -2.5e3, "x\n\"yé", true, null], "b": {}}|});
  check_bool "checker rejects bad documents" false (json_valid {|{"a": }|});
  check_bool "exported trace parses" true (json_valid doc);
  (* The Chrome trace-event envelope. *)
  match Trace.to_json (Exec_ctx.trace ctx) with
  | Json.Obj fields ->
    check_bool "has traceEvents" true (List.mem_assoc "traceEvents" fields);
    check_bool "has displayTimeUnit" true
      (List.mem_assoc "displayTimeUnit" fields);
    (match List.assoc "traceEvents" fields with
    | Json.List events ->
      check_bool "metadata + spans present" true (List.length events > 2)
    | _ -> Alcotest.fail "traceEvents must be a list")
  | _ -> Alcotest.fail "trace document must be an object"

let test_json_escaping () =
  check_bool "escapes quotes and control chars" true
    (json_valid (Json.to_string (Json.String "a\"b\\c\nd\te\x01f")));
  check_bool "non-finite floats are rejected by construction" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Property: the phase breakdown sums to the job estimate for arbitrary
   inputs, cluster block sizes, and failure rates, on both job shapes. *)
let prop_breakdown_sums =
  QCheck2.Test.make ~count:200 ~name:"phase breakdown sums to est_time_s"
    QCheck2.Gen.(
      triple
        (list_size (0 -- 30)
           (string_size ~gen:(char_range 'a' 'd') (1 -- 5)))
        (8 -- 4096) (0 -- 3))
    (fun (words, block, fail_tenths) ->
      let module Fi = Rapida_mapred.Fault_injector in
      let cluster = { Cluster.default with block_size_bytes = block } in
      let faults =
        Fi.create
          {
            Fi.default with
            Fi.seed = block;
            task_fail_p = float_of_int fail_tenths /. 10.0;
            max_attempts = 1000;
          }
      in
      let lines = List.map (fun w -> w ^ " " ^ w) words in
      let ctx = Exec_ctx.create ~cluster ~faults () in
      let _, mr = Job.run ctx (wordcount ~with_combiner:true) lines in
      let _, mo =
        Job.run_map_only ctx format_spec
          (List.mapi (fun i w -> (w, i)) words)
      in
      breakdown_matches mr && breakdown_matches mo)

let suite =
  [
    Alcotest.test_case "MR phase spans" `Quick test_phase_names;
    Alcotest.test_case "map-only phase spans" `Quick test_map_only_phase_names;
    Alcotest.test_case "span ordering on the clock" `Quick test_span_ordering;
    Alcotest.test_case "deterministic export" `Quick test_determinism;
    Alcotest.test_case "phase-sum invariant" `Quick test_phase_sum_invariant;
    Alcotest.test_case "counter registry" `Quick test_counters;
    Alcotest.test_case "export is valid JSON" `Quick test_export_is_valid_json;
    Alcotest.test_case "JSON escaping" `Quick test_json_escaping;
    QCheck_alcotest.to_alcotest prop_breakdown_sums;
  ]
