(* Observability subsystem: clock monotonicity, counter monotonicity,
   snapshot diffs, the hand-rolled JSON printer/parser, and end-to-end
   JSON round-trips of a real design snapshot. *)

open Hsis_obs
open Hsis_bdd

let test_clock_monotonic () =
  let a = Obs.Clock.now () in
  let b = Obs.Clock.now () in
  let c = Obs.Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (a <= b && b <= c);
  let x, dt = Obs.Clock.wall (fun () -> Sys.opaque_identity 42) in
  Alcotest.(check int) "wall returns result" 42 x;
  Alcotest.(check bool) "wall time non-negative" true (dt >= 0.0)

let test_timers () =
  let t = Obs.Timers.create () in
  Obs.Timers.add t "parse" 0.5;
  Obs.Timers.add t "order" 0.25;
  Obs.Timers.add t "parse" 0.5;
  Alcotest.(check (option (float 1e-9))) "accumulates" (Some 1.0)
    (Obs.Timers.find t "parse");
  Alcotest.(check (list (pair string (float 1e-9)))) "insertion order"
    [ ("parse", 1.0); ("order", 0.25) ]
    (Obs.Timers.to_list t);
  Alcotest.(check (float 1e-9)) "total" 1.25 (Obs.Timers.total t);
  let v = Obs.Timers.time t "work" (fun () -> 7) in
  Alcotest.(check int) "time passes result through" 7 v;
  Alcotest.(check bool) "timed phase recorded" true
    (Obs.Timers.find t "work" <> None)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("a", Int 3);
        ("b", Float 1.5);
        ("c", Str "hi \"there\"\nline\t\\end");
        ("d", List [ Bool true; Bool false; Null ]);
        ("e", Obj [ ("nested", List [ Int (-7); Float (-0.125) ]) ]);
        ("empty_list", List []);
        ("empty_obj", Obj []);
      ]
  in
  let s = to_string v in
  Alcotest.(check bool) "parses back equal" true (parse s = v);
  (* non-finite floats degrade to null rather than emitting invalid JSON *)
  let s2 = to_string (List [ Float nan; Float infinity ]) in
  Alcotest.(check bool) "nan/inf become null" true (parse s2 = List [ Null; Null ])

let test_json_parser_strict () =
  let open Obs.Json in
  let ok s v = Alcotest.(check bool) ("parse " ^ s) true (parse s = v) in
  ok "  null " Null;
  ok "[1,2,3]" (List [ Int 1; Int 2; Int 3 ]);
  ok "\"\\u0041\\u00e9\"" (Str "A\xc3\xa9");
  ok "-2.5e2" (Float (-250.0));
  let fails s =
    Alcotest.(check bool) ("reject " ^ s) true
      (match parse s with exception Parse_error _ -> true | _ -> false)
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails "{\"a\":1} trailing";
  fails "'single'";
  (* accessors: missing members yield neutral elements *)
  let v = parse "{\"x\":4,\"y\":\"s\",\"z\":[1]}" in
  Alcotest.(check int) "member int" 4 (to_int (member "x" v));
  Alcotest.(check string) "member str" "s" (to_str (member "y" v));
  Alcotest.(check int) "member list" 1 (List.length (to_list (member "z" v)));
  Alcotest.(check int) "missing int is 0" 0 (to_int (member "nope" v))

(* Build a little BDD workload with the given amount of churn and return
   the manager's structured stats. *)
let workload man rounds =
  let vars = Array.init 8 (fun i -> Bdd.new_var ~name:(Printf.sprintf "w%d" i) man) in
  let acc = ref (Bdd.dtrue man) in
  for r = 0 to rounds - 1 do
    let f = Bdd.dand vars.(r mod 8) vars.((r + 3) mod 8) in
    let g = Bdd.xor f vars.((r + 5) mod 8) in
    acc := Bdd.dor !acc (Bdd.ite g f (Bdd.dnot f))
  done;
  !acc

let test_counters_monotonic () =
  let man = Bdd.new_man () in
  ignore (workload man 6);
  let st1 = Bdd.stats man in
  ignore (workload man 18);
  let st2 = Bdd.stats man in
  let by_name (st : Obs.man_stats) =
    List.map (fun (o : Obs.Cache.op) -> (o.Obs.Cache.name, o)) st.Obs.cache.Obs.Cache.ops
  in
  let m1 = by_name st1 and m2 = by_name st2 in
  Alcotest.(check int) "same op set" (List.length m1) (List.length m2);
  List.iter
    (fun (name, (o2 : Obs.Cache.op)) ->
      let o1 = List.assoc name m1 in
      Alcotest.(check bool) (name ^ " hits monotone") true
        (o2.Obs.Cache.hits >= o1.Obs.Cache.hits);
      Alcotest.(check bool) (name ^ " misses monotone") true
        (o2.Obs.Cache.misses >= o1.Obs.Cache.misses))
    m2;
  Alcotest.(check bool) "workload hit the cache" true
    (Obs.Cache.lookups { Obs.Cache.name = "all";
                         hits = Obs.Cache.hits st2.Obs.cache;
                         misses = Obs.Cache.misses st2.Obs.cache } > 0);
  Alcotest.(check bool) "peak live positive" true
    (st2.Obs.arena.Obs.Arena.peak_live > 0);
  Alcotest.(check bool) "peak live >= live" true
    (st2.Obs.arena.Obs.Arena.peak_live >= st2.Obs.arena.Obs.Arena.live);
  (* direct-mapped cache gauges *)
  Alcotest.(check bool) "cache has slots" true
    (st2.Obs.cache.Obs.Cache.slots > 0);
  Alcotest.(check bool) "entries within slots" true
    (st2.Obs.cache.Obs.Cache.entries >= 0
    && st2.Obs.cache.Obs.Cache.entries <= st2.Obs.cache.Obs.Cache.slots);
  Alcotest.(check bool) "occupancy in [0,1]" true
    (let o = Obs.Cache.occupancy st2.Obs.cache in
     o >= 0.0 && o <= 1.0);
  Alcotest.(check bool) "evictions monotone" true
    (st2.Obs.cache.Obs.Cache.evictions >= st1.Obs.cache.Obs.Cache.evictions)

let test_diff_non_negative () =
  let man = Bdd.new_man () in
  ignore (workload man 5);
  let s1 = Obs.snapshot ~phases:[ ("reach", 1.0) ] (Bdd.stats man) in
  ignore (workload man 15);
  Bdd.sift man;
  let s2 = Obs.snapshot ~phases:[ ("reach", 3.5); ("mc", 0.5) ] (Bdd.stats man) in
  let d = Obs.diff s1 s2 in
  List.iter2
    (fun (o2 : Obs.Cache.op) (od : Obs.Cache.op) ->
      Alcotest.(check bool) (od.Obs.Cache.name ^ " diff hits >= 0") true
        (od.Obs.Cache.hits >= 0);
      Alcotest.(check bool) (od.Obs.Cache.name ^ " diff misses >= 0") true
        (od.Obs.Cache.misses >= 0);
      Alcotest.(check bool) (od.Obs.Cache.name ^ " diff <= after") true
        (od.Obs.Cache.hits <= o2.Obs.Cache.hits))
    s2.Obs.man.Obs.cache.Obs.Cache.ops d.Obs.man.Obs.cache.Obs.Cache.ops;
  Alcotest.(check bool) "gc diff non-negative" true
    (d.Obs.man.Obs.gc.Obs.Gc.runs >= 0 && d.Obs.man.Obs.gc.Obs.Gc.time >= 0.0);
  Alcotest.(check bool) "reorder diff non-negative" true
    (d.Obs.man.Obs.reorder.Obs.Reorder.runs >= 0
    && d.Obs.man.Obs.reorder.Obs.Reorder.time >= 0.0);
  Alcotest.(check (option (float 1e-9))) "phase diff subtracts" (Some 2.5)
    (List.assoc_opt "reach" d.Obs.phases
     |> Option.map (fun x -> Some x) |> Option.value ~default:None);
  Alcotest.(check (option (float 1e-9))) "new phase kept whole" (Some 0.5)
    (List.assoc_opt "mc" d.Obs.phases
     |> Option.map (fun x -> Some x) |> Option.value ~default:None);
  (* gauges come from [after] *)
  Alcotest.(check int) "arena is after's gauge"
    s2.Obs.man.Obs.arena.Obs.Arena.live d.Obs.man.Obs.arena.Obs.Arena.live

let counter_src =
  {|
.model obscount
.mv s,ns 4
.table s -> ns
0 1
1 2
2 3
3 0
.latch ns s
.reset s 0
.end
|}

let test_design_snapshot_roundtrip () =
  let design = Hsis_core.Hsis.read_blifmv counter_src in
  ignore (Hsis_core.Hsis.reachable design);
  let snap = Hsis_core.Hsis.snapshot design in
  (* sanity on the live snapshot *)
  Alcotest.(check bool) "has parse phase" true
    (List.mem_assoc "parse" snap.Obs.phases);
  Alcotest.(check bool) "has reach phase" true
    (List.mem_assoc "reach" snap.Obs.phases);
  Alcotest.(check bool) "reach profile non-empty" true (snap.Obs.reach <> []);
  let steps = List.map (fun (s : Obs.reach_sample) -> s.Obs.step) snap.Obs.reach in
  Alcotest.(check bool) "profile steps strictly increasing from 0" true
    (steps = List.init (List.length steps) Fun.id);
  List.iter
    (fun (s : Obs.reach_sample) ->
      Alcotest.(check bool) "frontier nodes positive" true (s.Obs.frontier_nodes > 0);
      Alcotest.(check bool) "step time non-negative" true (s.Obs.step_time >= 0.0))
    snap.Obs.reach;
  (match snap.Obs.relation with
  | None -> Alcotest.fail "relation profile missing"
  | Some r ->
      Alcotest.(check bool) "relation parts positive" true (r.Obs.rel_parts > 0);
      Alcotest.(check bool) "largest <= total" true (r.Obs.rel_largest <= r.Obs.rel_nodes));
  (* JSON round-trip preserves the key fields *)
  let snap' = Obs.of_json (Obs.Json.parse (Obs.json_string snap)) in
  Alcotest.(check bool) "cache ops survive" true
    (List.map (fun (o : Obs.Cache.op) -> (o.Obs.Cache.name, o.Obs.Cache.hits, o.Obs.Cache.misses))
       snap.Obs.man.Obs.cache.Obs.Cache.ops
    = List.map (fun (o : Obs.Cache.op) -> (o.Obs.Cache.name, o.Obs.Cache.hits, o.Obs.Cache.misses))
        snap'.Obs.man.Obs.cache.Obs.Cache.ops);
  Alcotest.(check int) "peak live survives"
    snap.Obs.man.Obs.arena.Obs.Arena.peak_live
    snap'.Obs.man.Obs.arena.Obs.Arena.peak_live;
  Alcotest.(check int) "cache slots survive"
    snap.Obs.man.Obs.cache.Obs.Cache.slots
    snap'.Obs.man.Obs.cache.Obs.Cache.slots;
  Alcotest.(check int) "cache evictions survive"
    snap.Obs.man.Obs.cache.Obs.Cache.evictions
    snap'.Obs.man.Obs.cache.Obs.Cache.evictions;
  Alcotest.(check int) "cache entries survive"
    snap.Obs.man.Obs.cache.Obs.Cache.entries
    snap'.Obs.man.Obs.cache.Obs.Cache.entries;
  (* a /1 document (no slots/evictions members) still parses: the new
     members default to zero, keeping the schema bump additive *)
  let old_doc =
    Obs.Json.parse
      {|{"schema":"hsis-obs/1","cache":{"entries":7,"ops":[{"op":"and","hits":3,"misses":2}]}}|}
  in
  let old_snap = Obs.of_json old_doc in
  Alcotest.(check int) "v1 entries read" 7
    old_snap.Obs.man.Obs.cache.Obs.Cache.entries;
  Alcotest.(check int) "v1 slots default 0" 0
    old_snap.Obs.man.Obs.cache.Obs.Cache.slots;
  Alcotest.(check int) "v1 evictions default 0" 0
    old_snap.Obs.man.Obs.cache.Obs.Cache.evictions;
  Alcotest.(check int) "gc runs survive" snap.Obs.man.Obs.gc.Obs.Gc.runs
    snap'.Obs.man.Obs.gc.Obs.Gc.runs;
  Alcotest.(check (list (pair string (float 1e-9)))) "phases survive"
    snap.Obs.phases snap'.Obs.phases;
  Alcotest.(check int) "reach profile length survives"
    (List.length snap.Obs.reach) (List.length snap'.Obs.reach);
  Alcotest.(check bool) "relation survives" true
    (snap.Obs.relation = snap'.Obs.relation);
  (* schema tag present in the emitted JSON *)
  let j = Obs.Json.parse (Obs.json_string snap) in
  Alcotest.(check string) "schema version" Obs.schema_version
    (Obs.Json.to_str (Obs.Json.member "schema" j))

(* Documents from every schema generation must parse: /1 and /2 lack the
   /3 "limits" object and "verdicts" tally, which default to zero/empty;
   a /3 document round-trips them intact. *)
let test_schema_compat () =
  let v2 =
    Obs.of_json
      (Obs.Json.parse
         {|{"schema":"hsis-obs/2","cache":{"entries":4,"slots":64,"evictions":9,"ops":[]}}|})
  in
  Alcotest.(check int) "v2 slots read" 64 v2.Obs.man.Obs.cache.Obs.Cache.slots;
  Alcotest.(check int) "v2 limit checks default 0" 0
    v2.Obs.man.Obs.limits.Obs.Limit.checks;
  Alcotest.(check (list (pair string int))) "v2 interrupts default empty" []
    v2.Obs.man.Obs.limits.Obs.Limit.interrupts;
  Alcotest.(check (list (pair string int))) "v2 verdicts default empty" []
    v2.Obs.verdicts;
  let v3 =
    Obs.of_json
      (Obs.Json.parse
         {|{"schema":"hsis-obs/3",
            "limits":{"checks":42,"interrupts":{"deadline":2,"nodes":1}},
            "verdicts":{"pass":5,"fail":1,"inconclusive":2}}|})
  in
  Alcotest.(check int) "v3 limit checks" 42 v3.Obs.man.Obs.limits.Obs.Limit.checks;
  Alcotest.(check (option int)) "v3 deadline interrupts" (Some 2)
    (List.assoc_opt "deadline" v3.Obs.man.Obs.limits.Obs.Limit.interrupts);
  Alcotest.(check (option int)) "v3 verdict tally" (Some 5)
    (List.assoc_opt "pass" v3.Obs.verdicts);
  (* and a synthetic /3 snapshot round-trips the new members intact *)
  let man = Bdd.new_man () in
  ignore (workload man 5);
  let snap =
    Obs.snapshot ~verdicts:[ ("pass", 3); ("inconclusive", 1) ] (Bdd.stats man)
  in
  let snap' = Obs.of_json (Obs.Json.parse (Obs.json_string snap)) in
  Alcotest.(check (list (pair string int))) "verdicts survive"
    snap.Obs.verdicts snap'.Obs.verdicts;
  Alcotest.(check int) "limit checks survive"
    snap.Obs.man.Obs.limits.Obs.Limit.checks
    snap'.Obs.man.Obs.limits.Obs.Limit.checks;
  Alcotest.(check (list (pair string int))) "interrupt tally survives"
    snap.Obs.man.Obs.limits.Obs.Limit.interrupts
    snap'.Obs.man.Obs.limits.Obs.Limit.interrupts

(* Merging share-nothing per-task snapshots: counters sum, gauges combine,
   worker samples concatenate — and the operation is associative, so
   per-worker partial merges compose.  Phase/worker times use exact binary
   fractions so float sums are order-independent and structural equality
   is exact. *)
let test_merge () =
  let w t s = { Obs.w_tasks = t; Obs.w_time = s } in
  let mk rounds phases verdicts workers =
    let man = Bdd.new_man () in
    ignore (workload man rounds);
    Obs.snapshot ~phases ~verdicts ~workers (Bdd.stats man)
  in
  let a = mk 4 [ ("reach", 1.0) ] [ ("pass", 2) ] [ w 3 0.5 ] in
  let b = mk 9 [ ("reach", 0.5); ("mc", 0.25) ] [ ("fail", 1) ] [ w 1 0.25 ] in
  let c = mk 14 [ ("lc", 2.0) ] [ ("pass", 4) ] [] in
  let m = Obs.merge [ a; b; c ] in
  let hits s = Obs.Cache.hits s.Obs.man.Obs.cache in
  let misses s = Obs.Cache.misses s.Obs.man.Obs.cache in
  Alcotest.(check int) "hits sum" (hits a + hits b + hits c) (hits m);
  Alcotest.(check int) "misses sum" (misses a + misses b + misses c)
    (misses m);
  let live s = s.Obs.man.Obs.arena.Obs.Arena.live in
  Alcotest.(check int) "live nodes sum" (live a + live b + live c) (live m);
  let vars s = s.Obs.man.Obs.arena.Obs.Arena.vars in
  Alcotest.(check int) "vars is the max" (max (vars a) (max (vars b) (vars c)))
    (vars m);
  Alcotest.(check (list (pair string (float 1e-9)))) "phases sum in order"
    [ ("reach", 1.5); ("mc", 0.25); ("lc", 2.0) ]
    m.Obs.phases;
  Alcotest.(check (list (pair string int))) "verdict tallies sum"
    [ ("pass", 6); ("fail", 1) ]
    m.Obs.verdicts;
  Alcotest.(check bool) "worker samples concatenate" true
    (m.Obs.workers = [ w 3 0.5; w 1 0.25 ]);
  (* associativity: partial merges compose *)
  Alcotest.(check bool) "associative" true
    (Obs.merge [ a; Obs.merge [ b; c ] ]
    = Obs.merge [ Obs.merge [ a; b ]; c ]);
  (* neutral element *)
  let z = Obs.merge [] in
  Alcotest.(check int) "merge [] has zero hits" 0 (hits z);
  Alcotest.(check bool) "merge [] is empty" true
    (z.Obs.phases = [] && z.Obs.verdicts = [] && z.Obs.workers = []);
  Alcotest.(check bool) "merge [x] keeps counters" true
    (hits (Obs.merge [ a ]) = hits a)

(* /4 adds the workers member (and per-step simplify_saved): it must
   round-trip, and documents from every earlier generation must still
   parse with workers defaulting to empty. *)
let test_workers_roundtrip () =
  let man = Bdd.new_man () in
  ignore (workload man 6);
  let snap =
    Obs.snapshot
      ~workers:
        [
          { Obs.w_tasks = 5; Obs.w_time = 1.25 };
          { Obs.w_tasks = 2; Obs.w_time = 0.5 };
        ]
      (Bdd.stats man)
  in
  let snap' = Obs.of_json (Obs.Json.parse (Obs.json_string snap)) in
  Alcotest.(check bool) "workers survive the round-trip" true
    (snap.Obs.workers = snap'.Obs.workers);
  (* a /3 document has no workers member *)
  let v3 =
    Obs.of_json
      (Obs.Json.parse {|{"schema":"hsis-obs/3","limits":{"checks":1}}|})
  in
  Alcotest.(check bool) "v3 workers default empty" true (v3.Obs.workers = []);
  (* a /3 reach profile has no simplify_saved member *)
  let v3r =
    Obs.of_json
      (Obs.Json.parse
         {|{"schema":"hsis-obs/3",
            "reach_profile":[{"step":0,"frontier_nodes":3,"reachable_nodes":3,"step_time":0.0}]}|})
  in
  (match v3r.Obs.reach with
  | [ s ] ->
      Alcotest.(check int) "v3 simplify_saved defaults 0" 0
        s.Obs.simplify_saved
  | _ -> Alcotest.fail "v3 reach profile lost");
  Alcotest.(check string) "schema is /8" "hsis-obs/8" Obs.schema_version

(* /6 adds the tr member (transition-relation strategy and isomorphism
   sharing counters): it must round-trip, and documents from every earlier
   generation — which have no tr member — must still parse with tr
   defaulting to absent. *)
let test_tr_roundtrip () =
  let man = Bdd.new_man () in
  ignore (workload man 4);
  let tr =
    {
      Obs.tr_strategy = "iso";
      tr_masters = 2;
      tr_instances = 5;
      tr_shared_nodes_saved = 1234;
      tr_permute_time = 0.125;
    }
  in
  let snap = Obs.snapshot ~tr (Bdd.stats man) in
  let snap' = Obs.of_json (Obs.Json.parse (Obs.json_string snap)) in
  Alcotest.(check bool) "tr survives the round-trip" true
    (snap'.Obs.tr = Some tr);
  (* absence also round-trips *)
  let bare = Obs.snapshot (Bdd.stats man) in
  let bare' = Obs.of_json (Obs.Json.parse (Obs.json_string bare)) in
  Alcotest.(check bool) "absent tr stays absent" true (bare'.Obs.tr = None);
  (* /1-/5 documents have no tr member *)
  List.iter
    (fun v ->
      let doc =
        Obs.of_json
          (Obs.Json.parse
             (Printf.sprintf {|{"schema":"hsis-obs/%d","gc":{"runs":1}}|} v))
      in
      Alcotest.(check bool)
        (Printf.sprintf "v%d tr defaults to absent" v)
        true (doc.Obs.tr = None))
    [ 1; 2; 3; 4; 5 ];
  (* diff keeps the after side's tr; merge keeps the first present one *)
  let d = Obs.diff bare snap in
  Alcotest.(check bool) "diff takes after's tr" true (d.Obs.tr = Some tr);
  let m = Obs.merge [ bare; snap ] in
  Alcotest.(check bool) "merge finds the first present tr" true
    (m.Obs.tr = Some tr)

(* /7 carried an "intra" member (counters of the intra-operation parallel
   kernels, since removed): a /7 document that has one must still parse,
   with every other member read as usual, and /8 output has no such
   member. *)
let test_intra_v7_compat () =
  let doc =
    Obs.of_json
      (Obs.Json.parse
         {|{"schema":"hsis-obs/7","gc":{"runs":3},
            "arena":{"live":5,"peak_live":9},
            "intra":{"domains":2,"ops":4,"forked":8,"stolen":1,
                     "cutoff_hits":0,"lock_contention":0,"cache_hits":7,
                     "cache_misses":2,"per_domain":[{"hits":7,"misses":2}]}}|})
  in
  Alcotest.(check int) "v7 gc runs read" 3 doc.Obs.man.Obs.gc.Obs.Gc.runs;
  Alcotest.(check int) "v7 peak live read" 9
    doc.Obs.man.Obs.arena.Obs.Arena.peak_live;
  let man = Bdd.new_man () in
  ignore (workload man 6);
  match Obs.to_json (Obs.snapshot (Bdd.stats man)) with
  | Obs.Json.Obj ms ->
      Alcotest.(check bool) "/8 emits no intra member" false
        (List.mem_assoc "intra" ms)
  | _ -> Alcotest.fail "snapshot JSON is not an object"

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "timers" `Quick test_timers;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "strict parser" `Quick test_json_parser_strict;
        ] );
      ( "counters",
        [
          Alcotest.test_case "monotonic" `Quick test_counters_monotonic;
          Alcotest.test_case "diff non-negative" `Quick test_diff_non_negative;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "design roundtrip" `Quick
            test_design_snapshot_roundtrip;
          Alcotest.test_case "schema compat /1 /2 /3" `Quick test_schema_compat;
          Alcotest.test_case "merge sums and is associative" `Quick test_merge;
          Alcotest.test_case "workers member round-trip + compat" `Quick
            test_workers_roundtrip;
          Alcotest.test_case "tr member round-trip + compat" `Quick
            test_tr_roundtrip;
          Alcotest.test_case "intra member of /7 ignored" `Quick
            test_intra_v7_compat;
        ] );
    ]
