(* The serve stack end to end: wire-protocol round-trips, in-band error
   handling (the daemon must answer, never die), session-cache LRU
   accounting under a tiny budget, warm-vs-cold verdict equality over the
   Table-1 designs, and the reorder hazard — a cached reach set must not
   survive a variable-order change. *)

open Hsis_obs
open Hsis_core
open Hsis_models
open Hsis_serve

(* ------------------------------------------------------------------ *)
(* Protocol round-trips *)

let full_request =
  {
    Proto.r_id = Obs.Json.Str "req-7";
    r_op = Proto.Check;
    r_design = Some (Proto.Builtin "pingpong");
    r_pif = Some "ctl p \"AG 1\";";
    r_budget =
      { Proto.timeout_s = Some 1.5; max_nodes = Some 1000; max_steps = None };
    r_jobs = Some 2;
    r_tr = Some Hsis_fsm.Trans.Iso_shared;
    r_fail_fast = true;
    r_witnesses = false;
    r_stats = true;
  }

let test_request_roundtrip () =
  let back = Proto.request_of_json (Proto.request_to_json full_request) in
  Alcotest.(check bool) "round-trips" true (back = full_request);
  (* parse from literal wire text, exercising every member *)
  let req =
    Proto.parse_request
      {|{"id": 3, "op": "fuzz", "fuzz": {"iters": 7, "seed": 9},
         "jobs": 4, "budget": {"max_steps": 12}}|}
  in
  Alcotest.(check bool) "id echoed" true (req.Proto.r_id = Obs.Json.Int 3);
  (match req.Proto.r_op with
  | Proto.Fuzz f ->
      Alcotest.(check int) "iters" 7 f.Proto.f_iters;
      Alcotest.(check int) "seed" 9 f.Proto.f_seed
  | _ -> Alcotest.fail "expected fuzz op");
  Alcotest.(check bool) "budget steps" true
    (req.Proto.r_budget.Proto.max_steps = Some 12)

let test_request_rejects () =
  let rejects line =
    match Proto.parse_request line with
    | exception Proto.Bad_request _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown op" true (rejects {|{"op": "explode"}|});
  Alcotest.(check bool) "missing op" true (rejects {|{"id": 1}|});
  Alcotest.(check bool) "op not a string" true (rejects {|{"op": 3}|});
  Alcotest.(check bool) "bad design member" true
    (rejects {|{"op": "check", "design": {"fortran": "x"}}|});
  Alcotest.(check bool) "jobs not an int" true
    (rejects {|{"op": "check", "jobs": "many"}|});
  Alcotest.(check bool) "jobs below 1" true
    (rejects {|{"op": "check", "jobs": 0}|});
  (* more workers than the runtime can spawn domains: refused while
     parsing, so no domain is ever started for it *)
  Alcotest.(check bool) "jobs above the domain limit" true
    (rejects {|{"op":"check","jobs":100000}|});
  Alcotest.(check bool) "jobs at the limit accepted" false
    (rejects
       (Printf.sprintf {|{"op": "check", "jobs": %d}|} Hsis_par.Par.max_jobs));
  Alcotest.(check bool) "not an object" true (rejects {|[1, 2]|});
  Alcotest.(check bool) "unparseable json" true (rejects "{nope")

let test_response_roundtrip () =
  let resp =
    {
      Proto.p_id = Obs.Json.Str "req-7";
      p_op = "check";
      p_status = `Error (Proto.Job_error, "boom");
      p_exit_code = 2;
      p_elapsed = 0.25;
      p_cache = Obs.Json.Obj [ ("entries", Obs.Json.Int 1) ];
      p_result = None;
      p_obs = None;
    }
  in
  let line = Proto.print_response resp in
  let back = Proto.response_of_json (Obs.Json.parse line) in
  Alcotest.(check bool) "id" true (back.Proto.p_id = resp.Proto.p_id);
  Alcotest.(check string) "op" "check" back.Proto.p_op;
  Alcotest.(check bool) "status" true
    (back.Proto.p_status = `Error (Proto.Job_error, "boom"));
  Alcotest.(check int) "exit code" 2 back.Proto.p_exit_code;
  (* the schema tag is on every line *)
  let j = Obs.Json.parse line in
  Alcotest.(check bool) "schema tagged" true
    (Obs.Json.member "schema" j = Some (Obs.Json.Str Proto.schema_version))

(* ------------------------------------------------------------------ *)
(* Daemon behaviour: in-band errors, never dying *)

let status_kind resp =
  match resp.Proto.p_status with
  | `Ok -> "ok"
  | `Error (k, _) -> Proto.error_kind_name k

let test_malformed_line_in_band () =
  let t = Server.create () in
  (* blank lines owe no response *)
  (match Server.handle_line t "   " with
  | None, `Continue -> ()
  | _ -> Alcotest.fail "blank line should be skipped");
  (* garbage is answered, not fatal *)
  (match Server.handle_line t "this is not json" with
  | Some resp, `Continue ->
      Alcotest.(check string) "parse error" "parse" (status_kind resp);
      Alcotest.(check int) "protocol exit code" 2 resp.Proto.p_exit_code
  | _ -> Alcotest.fail "malformed line must produce one response");
  (* valid JSON, invalid request: id still echoed *)
  (match Server.handle_line t {|{"id": 42, "op": "explode"}|} with
  | Some resp, `Continue ->
      Alcotest.(check string) "request error" "request" (status_kind resp);
      Alcotest.(check bool) "id echoed" true
        (resp.Proto.p_id = Obs.Json.Int 42)
  | _ -> Alcotest.fail "invalid request must produce one response");
  (* job-level failure (unknown builtin) is an error answer too *)
  (match
     Server.handle_line t {|{"id": 1, "op": "check", "design": {"builtin": "zz"}}|}
   with
  | Some resp, `Continue ->
      Alcotest.(check string) "job-level error" "request" (status_kind resp)
  | _ -> Alcotest.fail "unknown builtin must produce one response");
  (* the daemon is still healthy afterwards *)
  (match Server.handle_line t {|{"id": 2, "op": "ping"}|} with
  | Some resp, `Continue -> Alcotest.(check string) "ok" "ok" (status_kind resp)
  | _ -> Alcotest.fail "ping after errors must succeed");
  (* shutdown stops the loop *)
  (match Server.handle_line t {|{"op": "shutdown"}|} with
  | Some resp, `Stop -> Alcotest.(check string) "ok" "ok" (status_kind resp)
  | _ -> Alcotest.fail "shutdown must answer and stop");
  Alcotest.(check bool) "stopping" true (Server.stopping t)

(* ------------------------------------------------------------------ *)
(* Session cache: LRU eviction under a tiny budget, with counters *)

let source_of (m : Model.t) = Hsis.Session.Verilog m.Model.verilog

let test_cache_lru_eviction () =
  let a = Models.by_name "pingpong" |> Option.get in
  let b = Models.by_name "scheduler5" |> Option.get in
  let c = Models.by_name "philos" |> Option.get in
  let cache = Scache.create ~max_entries:2 () in
  let open_ m =
    Scache.find_or_open cache ~heuristic:Hsis_fsm.Trans.Min_width
      ~tr:Hsis_fsm.Trans.Partitioned (source_of m)
  in
  let sa, hit_a = open_ a in
  let _, hit_b = open_ b in
  Alcotest.(check bool) "first opens miss" false (hit_a || hit_b);
  (* touch A so B becomes least-recently-used *)
  let sa', hit_a2 = open_ a in
  Alcotest.(check bool) "re-open hits" true hit_a2;
  Alcotest.(check bool) "same session" true (sa == sa');
  (* third distinct design overflows the 2-entry budget: B is evicted *)
  let sc, _ = open_ c in
  let s = Scache.stats cache in
  Alcotest.(check int) "entries capped" 2 s.Scache.entries;
  Alcotest.(check int) "hits" 1 s.Scache.hits;
  Alcotest.(check int) "misses" 3 s.Scache.misses;
  Alcotest.(check int) "evictions" 1 s.Scache.evictions;
  Alcotest.(check (list string)) "MRU order, B gone"
    [ Hsis.Session.id sc; Hsis.Session.id sa ]
    (Scache.ids cache);
  (* evicted sessions are closed; survivors are not *)
  let _, hit_b2 = open_ b in
  Alcotest.(check bool) "evicted design re-opens as miss" false hit_b2;
  Scache.clear cache;
  Alcotest.(check int) "cleared" 0 (Scache.stats cache).Scache.entries

let test_cache_node_budget () =
  let a = Models.by_name "pingpong" |> Option.get in
  let b = Models.by_name "scheduler5" |> Option.get in
  (* a node budget of 1 means any second entry overflows, but the entry
     just inserted is always kept *)
  let cache = Scache.create ~max_entries:8 ~max_live_nodes:1 () in
  let open_ m =
    Scache.find_or_open cache ~heuristic:Hsis_fsm.Trans.Min_width
      ~tr:Hsis_fsm.Trans.Partitioned (source_of m)
  in
  let _, _ = open_ a in
  let sb, _ = open_ b in
  let s = Scache.stats cache in
  Alcotest.(check int) "one survivor" 1 s.Scache.entries;
  Alcotest.(check int) "one eviction" 1 s.Scache.evictions;
  Alcotest.(check (list string)) "newest kept"
    [ Hsis.Session.id sb ]
    (Scache.ids cache)

(* ------------------------------------------------------------------ *)
(* Warm vs cold: same verdicts for every Table-1 design *)

let property_verdicts result =
  (* [(name, verdict)] for the ctl and lc sections of a check result *)
  let section key =
    match Obs.Json.member key result with
    | Some (Obs.Json.List props) ->
        List.map
          (fun p ->
            match (Obs.Json.member "name" p, Obs.Json.member "verdict" p) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Str v) -> (n, v)
            | _ -> Alcotest.fail "property without name/verdict")
          props
    | _ -> Alcotest.fail ("missing section " ^ key)
  in
  section "ctl" @ section "lc"

let test_warm_cold_verdicts () =
  let server = Server.create () in
  List.iter
    (fun (m : Model.t) ->
      let req =
        {
          Proto.r_id = Obs.Json.Str m.Model.name;
          r_op = Proto.Check;
          r_design = Some (Proto.Verilog m.Model.verilog);
          r_pif = Some m.Model.pif;
          r_budget = Proto.no_budget;
          r_jobs = None;
          r_tr = None;
          r_fail_fast = false;
          r_witnesses = false;
          r_stats = false;
        }
      in
      let cold = Server.handle_request server req in
      let warm = Server.handle_request server req in
      let result resp =
        match (resp.Proto.p_status, resp.Proto.p_result) with
        | `Ok, Some r -> r
        | _ -> Alcotest.fail (m.Model.name ^ ": check did not succeed")
      in
      let vc = property_verdicts (result cold) in
      let vw = property_verdicts (result warm) in
      Alcotest.(check bool)
        (m.Model.name ^ ": warm session was actually reused")
        true
        (Obs.Json.member "hit" warm.Proto.p_cache = Some (Obs.Json.Bool true));
      Alcotest.(check (list (pair string string)))
        (m.Model.name ^ ": verdicts equal") vc vw;
      Alcotest.(check int)
        (m.Model.name ^ ": exit codes equal")
        cold.Proto.p_exit_code warm.Proto.p_exit_code)
    (Models.table1_small ())

(* "kernel_jobs" was a request member while the manager had parallel
   kernels; a request that still carries it is answered as if it were
   absent, like any other unknown member. *)
let test_kernel_jobs_member_ignored () =
  let plain = {|{"id": 1, "op": "check", "design": {"builtin": "pingpong"}}|} in
  let with_kj =
    {|{"id": 1, "op": "check", "design": {"builtin": "pingpong"},
       "kernel_jobs": 2}|}
  in
  Alcotest.(check bool) "parses to the same request" true
    (Proto.parse_request with_kj = Proto.parse_request plain);
  let server = Server.create () in
  let answer line =
    match Server.handle_line server line with
    | Some ({ Proto.p_status = `Ok; p_result = Some r; _ } as resp), `Continue
      ->
        (property_verdicts r, resp.Proto.p_exit_code)
    | _ -> Alcotest.fail "check did not succeed"
  in
  let v0, e0 = answer plain in
  let v1, e1 = answer with_kj in
  Alcotest.(check (list (pair string string))) "same verdicts" v0 v1;
  Alcotest.(check int) "same exit code" e0 e1

(* ------------------------------------------------------------------ *)
(* Reorder hazard: a conclusive cached reach set must be dropped when
   the variable order changes (sifting), then rebuilt equal *)

let test_reach_cache_survives_reorder () =
  let m = Models.by_name "pingpong" |> Option.get in
  let d = Hsis.read_verilog m.Model.verilog in
  let r1 = Hsis.reachable d in
  Alcotest.(check bool) "cache filled" true (Hsis.reach_cache_valid d);
  let n1 = Hsis_check.Reach.count_states d.Hsis.trans r1.Hsis_check.Reach.reachable in
  (* same pointer while the order is stable *)
  Alcotest.(check bool) "stable order reuses" true (Hsis.reachable d == r1);
  Hsis_bdd.Bdd.sift (Hsis_fsm.Trans.man d.Hsis.trans);
  Alcotest.(check bool) "sift invalidates" false (Hsis.reach_cache_valid d);
  let r2 = Hsis.reachable d in
  Alcotest.(check bool) "recomputed" true (not (r2 == r1));
  Alcotest.(check bool) "cache refilled" true (Hsis.reach_cache_valid d);
  let n2 = Hsis_check.Reach.count_states d.Hsis.trans r2.Hsis_check.Reach.reachable in
  Alcotest.(check (float 0.0)) "same state count" n1 n2

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request rejects" `Quick test_request_rejects;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "in-band errors" `Quick
            test_malformed_line_in_band;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction + counters" `Quick
            test_cache_lru_eviction;
          Alcotest.test_case "node budget" `Quick test_cache_node_budget;
        ] );
      ( "warm",
        [
          Alcotest.test_case "warm = cold on Table 1" `Slow
            test_warm_cold_verdicts;
          Alcotest.test_case "kernel_jobs member ignored" `Quick
            test_kernel_jobs_member_ignored;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "reach cache vs sifting" `Quick
            test_reach_cache_survives_reorder;
        ] );
    ]
