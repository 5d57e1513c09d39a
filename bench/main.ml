(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see the experiment index in DESIGN.md):

     table1       Table 1 (six designs: read / reach / LC / MC)
     table1-small same with the scheduler scaled down
     fig2         Figure 2 invariance automaton on the two-writer bus
     quant        Sec. 4's 1600-relation early-quantification example
     ablate-quant scheduling heuristics (A4)
     ablate-tr    partitioned vs monolithic transition relations (A3)
     ablate-dc    don't-care minimization (A1)
     ablate-efd   early failure detection (A2)
     bech         Bechamel micro-benchmarks
     bdd          BDD kernel ops/s (and/ite/exists/and_exists) -> BENCH_bdd.json
     par [jobs]   parallel scaling (fuzz + scaled designs, seq vs
                  shared-work)  -> BENCH_par.json
     scale [small] [--check]
                  TR-strategy curves (mono vs part vs iso) over the
                  hierarchical scaled families -> BENCH_scale.json;
                  --check asserts verdict agreement and the iso <= part
                  <= mono peak-live ordering (CI's scale-smoke job)
     serve [N]    daemon cold-vs-warm latency + N-client throughput
                  -> BENCH_serve.json
     json         observability smoke check: emit + re-parse a stats JSON

   With no argument everything runs (Table 1 at paper scale last, since
   the 17-station scheduler dominates the runtime).

   Timing uses the monotonic wall clock of Obs.Clock (Sys.time measures
   CPU time and under-reports anything that blocks).  Table 1 runs also
   write their rows and per-design observability snapshots to
   BENCH_table1.json so the performance trajectory is trackable across
   changes. *)

open Hsis_obs
open Hsis_core
open Hsis_models

let wall f = Obs.Clock.wall f

let pr fmt = Format.printf fmt

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1_row (m : Model.t) =
  let d, read_time = wall (fun () -> Hsis.read_verilog m.Model.verilog) in
  Hsis.set_reach_profile d false;
  let states, _reach_time = wall (fun () -> Hsis.reached_states d) in
  let pif = Model.parse_pif m in
  let report = Hsis.run_pif ~witnesses:false d pif in
  pr "%-10s %9d %10d %8.2f %12.0f %4d %8.2f %5d %8.2f@."
    m.Model.name
    (Option.value ~default:0 d.Hsis.verilog_lines)
    d.Hsis.blifmv_lines read_time states
    (List.length report.Hsis.lc)
    report.Hsis.lc_time
    (List.length report.Hsis.ctl)
    report.Hsis.mc_time;
  Obs.Json.Obj
    [
      ("design", Obs.Json.Str m.Model.name);
      ( "lines_verilog",
        Obs.Json.Int (Option.value ~default:0 d.Hsis.verilog_lines) );
      ("lines_blifmv", Obs.Json.Int d.Hsis.blifmv_lines);
      ("read_s", Obs.Json.Float read_time);
      ("reached_states", Obs.Json.Float states);
      ("lc_props", Obs.Json.Int (List.length report.Hsis.lc));
      ("lc_s", Obs.Json.Float report.Hsis.lc_time);
      ("ctl_props", Obs.Json.Int (List.length report.Hsis.ctl));
      ("mc_s", Obs.Json.Float report.Hsis.mc_time);
      ("obs", Obs.to_json (Hsis.snapshot d));
    ]

let table1 ?(scale = `Paper) () =
  pr "@.== Table 1: examples ==@.";
  pr "%-10s %9s %10s %8s %12s %4s %8s %5s %8s@." "example" "#lines-v"
    "#lines-mv" "read(s)" "#reached" "#lc" "lc(s)" "#ctl" "mc(s)";
  let models =
    match scale with
    | `Paper -> Models.table1 ()
    | `Small -> Models.table1_small ()
  in
  let rows = List.map table1_row models in
  let j =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str "table1");
        ( "scale",
          Obs.Json.Str (match scale with `Paper -> "paper" | `Small -> "small")
        );
        ("schema", Obs.Json.Str Obs.schema_version);
        ("rows", Obs.Json.List rows);
      ]
  in
  write_file "BENCH_table1.json" (Obs.Json.to_string j);
  pr "wrote BENCH_table1.json@."

(* ------------------------------------------------------------------ *)
(* Figure 2 *)

let bus_model buggy =
  Printf.sprintf
    {|
module bus(clk);
  input clk;
  reg out1; reg out2;
  wire req1; wire req2;
  assign req1 = $ND(0, 1);
  assign req2 = $ND(0, 1);
  initial out1 = 0;
  initial out2 = 0;
  always @(posedge clk) begin
    if (req1 & !req2) begin out1 <= 1; out2 <= 0; end
    else if (req2 & !req1) begin out1 <= 0; out2 <= 1; end
    else if (req1 & req2) begin out1 <= %s; out2 <= 1; end
    else begin out1 <= 0; out2 <= 0; end
  end
endmodule
|}
    (if buggy then "1" else "0")

let fig2_automaton () =
  Hsis_auto.Autom.invariance ~name:"fig2"
    ~ok:(Hsis_auto.Expr.parse "!(out1=1 & out2=1)")

let fig2 () =
  pr "@.== Figure 2: invariance automaton (out1/out2 never together) ==@.";
  let aut = fig2_automaton () in
  List.iter
    (fun buggy ->
      let d = Hsis.read_verilog (bus_model buggy) in
      let lc = Hsis.check_lc d aut in
      let mc =
        Hsis.check_ctl d ~name:"AG"
          (Hsis_auto.Ctl.parse "AG !(out1=1 & out2=1)")
      in
      pr "  %-7s  lc %-6s %.4fs   mc %-6s %.4fs   trace %s@."
        (if buggy then "buggy" else "correct")
        (if Hsis_limits.Verdict.holds lc.Hsis.pr_verdict then "passed"
         else "FAILED")
        lc.Hsis.pr_time
        (if Hsis_limits.Verdict.holds mc.Hsis.pr_verdict then "passed"
         else "FAILED")
        mc.Hsis.pr_time
        (match lc.Hsis.pr_verdict with
        | Hsis_limits.Verdict.Fail { Hsis.le_trace = Some t; _ } ->
            Printf.sprintf "%d states (verified %b)"
              (Hsis_debug.Trace.total_length t)
              t.Hsis_debug.Trace.verified
        | _ -> "-"))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Sec. 4: 1600 relations, 1500 quantified variables *)

(* A synthetic compiled netlist, matching vl2mv's output profile: each
   relation is a functional table defining one fresh gate variable from a
   few earlier ones, and the intermediate gate variables are quantified
   out.  [ninputs] circuit inputs stay free; the last [nkeep] gates are
   the "latch inputs" that must survive. *)
let circuit_soup ~nrels ~ninputs ~nkeep ~seed =
  let h = ref (seed * 7919) in
  let rand n =
    h := ((!h * 1103515245) + 12345) land 0x3FFFFFFF;
    (!h lsr 11) mod n
  in
  let nvars = ninputs + nrels in
  let supports =
    Array.init nrels (fun i ->
        let out = ninputs + i in
        let fanin = 1 + rand 3 in
        let pick_src () =
          (* mostly local fanin, occasionally long-range *)
          if i = 0 || rand 8 = 0 then rand ninputs
          else ninputs + max 0 (i - 1 - rand (min i 12))
        in
        List.sort_uniq compare
          (out :: List.init fanin (fun _ -> pick_src ())))
  in
  let quantify =
    (* every gate output except the last nkeep *)
    List.init (max 0 (nrels - nkeep)) (fun i -> ninputs + i)
  in
  (supports, quantify, nvars, rand)

(* A functional relation: out <-> f(fanin) for a random f. *)
let gate_relation man vars rand support ~out =
  let open Hsis_bdd in
  let fanin = List.filter (fun v -> v <> out) support in
  let fanin = Array.of_list fanin in
  let n = Array.length fanin in
  let f = ref (Bdd.dfalse man) in
  for m' = 0 to (1 lsl n) - 1 do
    if rand 2 = 0 then begin
      let cube = ref (Bdd.dtrue man) in
      for i = 0 to n - 1 do
        let lit =
          if (m' lsr i) land 1 = 1 then vars.(fanin.(i))
          else Bdd.dnot vars.(fanin.(i))
        in
        cube := Bdd.dand !cube lit
      done;
      f := Bdd.dor !f !cube
    end
  done;
  Bdd.eqv vars.(out) !f

let quant_bench () =
  pr "@.== Sec. 4: early quantification at vl2mv scale ==@.";
  let nrels = 1600 and ninputs = 60 and nkeep = 100 in
  let supports, quantify, nvars, rand =
    circuit_soup ~nrels ~ninputs ~nkeep ~seed:42
  in
  let problem = { Hsis_quant.Schedule.supports; quantify } in
  let sched, t_sched = wall (fun () -> Hsis_quant.Schedule.min_width problem) in
  (match Hsis_quant.Schedule.validate problem sched with
  | Ok () -> ()
  | Error m -> pr "  INVALID SCHEDULE: %s@." m);
  let man = Hsis_bdd.Bdd.new_man () in
  let vars = Array.init nvars (fun _ -> Hsis_bdd.Bdd.new_var man) in
  let rels =
    Array.mapi
      (fun i support ->
        gate_relation man vars rand support ~out:(ninputs + i))
      supports
  in
  let cube_of ids = Hsis_bdd.Bdd.cube man (List.map (fun v -> vars.(v)) ids) in
  let result, t_exec =
    wall (fun () -> Hsis_quant.Apply.execute ~rels ~cube_of sched)
  in
  pr
    "  %d relations, %d quantified variables: schedule %.2fs, \
     multiply+quantify %.2fs@."
    nrels (List.length quantify) t_sched t_exec;
  pr "  peak intermediate BDD %d nodes, result %d nodes@."
    result.Hsis_quant.Apply.peak_nodes
    (Hsis_bdd.Bdd.dag_size result.Hsis_quant.Apply.value);
  pr "  (the paper reports \"only several seconds\" for this profile)@."

(* ------------------------------------------------------------------ *)
(* Ablations *)

let ablate_quant () =
  pr "@.== A4: scheduling heuristics on relation soups ==@.";
  pr "  %-8s %-16s %10s %12s@." "size" "heuristic" "width" "schedule(s)";
  List.iter
    (fun nrels ->
      let supports, quantify, _, _ =
        circuit_soup ~nrels ~ninputs:20 ~nkeep:10 ~seed:7
      in
      let problem = { Hsis_quant.Schedule.supports; quantify } in
      List.iter
        (fun (name, h) ->
          let sched, t = wall (fun () -> h problem) in
          pr "  %-8d %-16s %10d %12.3f@." nrels name
            (Hsis_quant.Schedule.max_cluster_support problem sched)
            t)
        [
          ("min-width", Hsis_quant.Schedule.min_width);
          ("pair-cluster", Hsis_quant.Schedule.pair_clustering);
          ("naive", Hsis_quant.Schedule.naive);
        ])
    [ 50; 200 ]

let ablate_tr () =
  pr "@.== A3: partitioned vs monolithic transition relation ==@.";
  List.iter
    (fun (name, n) ->
      let m = Scheduler.make ~n () in
      let d = Hsis.read_verilog m.Model.verilog in
      let init = Hsis_fsm.Trans.initial d.Hsis.trans in
      let r_part, t_part =
        wall (fun () -> Hsis_check.Reach.compute ~profile:false d.Hsis.trans init)
      in
      let _, t_mono_build =
        wall (fun () -> Hsis_fsm.Trans.monolithic d.Hsis.trans)
      in
      let r_mono, t_mono =
        wall (fun () ->
            Hsis_fsm.Trans.set_strategy d.Hsis.trans Hsis_fsm.Trans.Monolithic;
            Fun.protect
              ~finally:(fun () ->
                Hsis_fsm.Trans.set_strategy d.Hsis.trans
                  Hsis_fsm.Trans.Partitioned)
              (fun () ->
                Hsis_check.Reach.compute ~profile:false d.Hsis.trans init))
      in
      let agree =
        Hsis_bdd.Bdd.equal r_part.Hsis_check.Reach.reachable
          r_mono.Hsis_check.Reach.reachable
      in
      pr
        "  %-12s partitioned %.2fs | monolithic build %.2fs + reach %.2fs \
         (peak %d nodes) | agree %b@."
        name t_part t_mono_build t_mono
        (Hsis_fsm.Trans.monolithic_peak d.Hsis.trans)
        agree)
    [ ("scheduler8", 8); ("scheduler12", 12) ]

let ablate_dc () =
  pr "@.== A1: don't-care (restrict) minimization of relation parts ==@.";
  List.iter
    (fun (m : Model.t) ->
      let d = Hsis.read_verilog m.Model.verilog in
      ignore (Hsis.reached_states d);
      let report, t = wall (fun () -> Hsis.minimize d) in
      let reach = Hsis.reachable d in
      let ok =
        Hsis_bisim.Dontcare.image_equal d.Hsis.trans
          report.Hsis_bisim.Dontcare.minimized
          ~from_:reach.Hsis_check.Reach.reachable
      in
      pr
        "  %-10s parts %6d -> %6d nodes (%.1f%%) in %.2fs, image preserved \
         %b@."
        m.Model.name report.Hsis_bisim.Dontcare.before
        report.Hsis_bisim.Dontcare.after
        (100.0
        *. Float.of_int report.Hsis_bisim.Dontcare.after
        /. Float.of_int (max 1 report.Hsis_bisim.Dontcare.before))
        t ok)
    [ Gigamax.make (); Dcnew.make (); Mdlc.make () ]

let ablate_efd () =
  pr "@.== A2: early failure detection on a buggy design ==@.";
  let m = Dcnew.make () in
  let d = Hsis.read_verilog m.Model.verilog in
  ignore (Hsis.reached_states d);
  let bad = Hsis_auto.Ctl.parse "AG !(st=SETUP)" in
  let with_efd = Hsis.check_ctl ~early_failure:true d ~name:"bad" bad in
  let without_efd = Hsis.check_ctl ~early_failure:false d ~name:"bad" bad in
  pr "  failing invariant: with EFD %.3fs (caught at step %s), without %.3fs@."
    with_efd.Hsis.pr_time
    (match with_efd.Hsis.pr_early_step with
    | Some k -> string_of_int k
    | None -> "-")
    without_efd.Hsis.pr_time;
  let lc_bad =
    Hsis_auto.Autom.invariance ~name:"no-setup"
      ~ok:(Hsis_auto.Expr.parse "st!=SETUP")
  in
  let lc_with = Hsis.check_lc ~early_failure:true ~trace:false d lc_bad in
  let lc_without = Hsis.check_lc ~early_failure:false ~trace:false d lc_bad in
  pr "  failing containment: with EFD %.3fs (step %s), without %.3fs@."
    lc_with.Hsis.pr_time
    (match lc_with.Hsis.pr_early_step with
    | Some k -> string_of_int k
    | None -> "-")
    lc_without.Hsis.pr_time

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per experiment family *)

let bechamel_tests () =
  let open Bechamel in
  let gigamax_design =
    lazy (Hsis.read_verilog (Gigamax.make ()).Model.verilog)
  in
  let t1_image =
    Test.make ~name:"table1/gigamax-image"
      (Staged.stage (fun () ->
           let d = Lazy.force gigamax_design in
           ignore
             (Hsis_fsm.Trans.image d.Hsis.trans
                (Hsis_fsm.Trans.initial d.Hsis.trans))))
  in
  let fig2_design = lazy (Hsis.read_verilog (bus_model false)) in
  let fig2_aut = fig2_automaton () in
  let fig2_lc =
    Test.make ~name:"fig2/lc-check"
      (Staged.stage (fun () ->
           let d = Lazy.force fig2_design in
           ignore (Hsis_check.Lc.check d.Hsis.flat fig2_aut)))
  in
  let quant_sched =
    let supports, quantify, _, _ =
      circuit_soup ~nrels:400 ~ninputs:30 ~nkeep:20 ~seed:3
    in
    let problem = { Hsis_quant.Schedule.supports; quantify } in
    Test.make ~name:"quant/min-width-400"
      (Staged.stage (fun () -> ignore (Hsis_quant.Schedule.min_width problem)))
  in
  [ t1_image; fig2_lc; quant_sched ]

let run_bechamel () =
  pr "@.== Bechamel micro-benchmarks ==@.";
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let results = Analyze.all ols (List.hd instances) raw in
      Hashtbl.iter
        (fun name v ->
          match Analyze.OLS.estimates v with
          | Some [ t ] -> pr "  %-28s %12.0f ns/run@." name t
          | Some _ | None -> pr "  %-28s (no estimate)@." name)
        results)
    (List.map
       (fun t -> Test.make_grouped ~name:"bench" [ t ])
       (bechamel_tests ()))

(* ------------------------------------------------------------------ *)
(* BDD manager micro-benchmarks: raw ops-per-second of the four hot
   kernels (and / ite / exists / and_exists) on scalable synthetic
   circuits, written to BENCH_bdd.json so the unique-table / computed-
   cache hot path can be compared across changes.  Caches are flushed
   (via a forced collection) between rounds so each round re-does real
   work instead of replaying the computed cache. *)

(* Host parallelism context, recorded in the par/scale bench JSON so a
   scaling curve can be judged against the machine that produced it:
   [recommended_domains] is the runtime's [Domain.recommended_domain_count]
   and [host_cores] the raw processor count from /proc/cpuinfo (falling
   back to the former where that file is absent, e.g. non-Linux hosts). *)
let host_cores () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> Hsis_par.Par.default_jobs ()
  | ic ->
      let n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           if String.length line >= 9 && String.sub line 0 9 = "processor"
           then incr n
         done
       with End_of_file -> ());
      close_in ic;
      if !n > 0 then !n else Hsis_par.Par.default_jobs ()

let bdd_bench () =
  pr "@.== BDD kernel micro-benchmarks ==@.";
  let open Hsis_bdd in
  let seed = ref 0x2545F49 in
  let rand n =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    (!seed lsr 7) mod n
  in
  let rounds = 3 in
  (* Pool of mid-size random functions over [n] variables for the
     combinational kernels. *)
  let man = Bdd.new_man () in
  let nvars = 24 in
  let vars = Array.init nvars (fun _ -> Bdd.new_var man) in
  let rec rand_fun depth =
    if depth = 0 then begin
      let v = vars.(rand nvars) in
      if rand 2 = 0 then v else Bdd.dnot v
    end
    else begin
      let a = rand_fun (depth - 1) in
      let b = rand_fun (depth - 1) in
      match rand 3 with
      | 0 -> Bdd.dand a b
      | 1 -> Bdd.dor a b
      | _ -> Bdd.xor a b
    end
  in
  let pool = Array.init 32 (fun _ -> rand_fun 4) in
  let np = Array.length pool in
  let kernel name f =
    ignore (Bdd.gc man);
    let ops = ref 0 in
    let t0 = Obs.Clock.now () in
    for _ = 1 to rounds do
      ops := !ops + f ();
      (* flush the computed cache so the next round is not a pure replay *)
      ignore (Bdd.gc man)
    done;
    let dt = Obs.Clock.now () -. t0 in
    let rate = if dt > 0.0 then Float.of_int !ops /. dt else 0.0 in
    pr "  %-12s %8d ops in %7.3fs  = %12.0f ops/s@." name !ops dt rate;
    Obs.Json.Obj
      [
        ("kernel", Obs.Json.Str name);
        ("ops", Obs.Json.Int !ops);
        ("time_s", Obs.Json.Float dt);
        ("ops_per_s", Obs.Json.Float rate);
      ]
  in
  let and_kernel () =
    let ops = ref 0 in
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        ignore (Bdd.dand pool.(i) pool.(j));
        incr ops
      done
    done;
    !ops
  in
  let ite_kernel () =
    let ops = ref 0 in
    for i = 0 to np - 1 do
      for j = 0 to (np / 4) - 1 do
        ignore (Bdd.ite pool.(i) pool.(j) pool.(np - 1 - j));
        incr ops
      done
    done;
    !ops
  in
  let even_cube =
    Bdd.cube man (List.init (nvars / 2) (fun i -> vars.(2 * i)))
  in
  let exists_kernel () =
    let ops = ref 0 in
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        ignore (Bdd.exists ~cube:even_cube (Bdd.dand pool.(i) pool.(j)));
        incr ops
      done
    done;
    !ops
  in
  (* Image kernel: BFS over an elementary-cellular-automaton transition
     relation with interleaved present/next variables — the and_exists +
     permute inner loop of symbolic reachability, at parametric width.
     Two next-state bits are left unconstrained (nondeterministic), so
     frontiers branch and the reached set covers a large state space. *)
  let bits = 16 in
  let eca_setup man2 =
    let x = Array.make bits (Bdd.dtrue man2) in
    let y = Array.make bits (Bdd.dtrue man2) in
    for i = 0 to bits - 1 do
      x.(i) <- Bdd.new_var ~name:(Printf.sprintf "x%d" i) man2;
      y.(i) <- Bdd.new_var ~name:(Printf.sprintf "y%d" i) man2
    done;
    let next_fn i =
      (* rule-30-flavoured neighbourhood update: chaotic dynamics, so the
         reachable set is rich *)
      let l = x.((i + bits - 1) mod bits)
      and c = x.(i)
      and r = x.((i + 1) mod bits) in
      Bdd.xor l (Bdd.dor c r)
    in
    let rel =
      Bdd.conj man2
        (List.concat
           (List.init bits (fun i ->
                if i mod 8 = 3 then [] (* nondeterministic bit *)
                else [ Bdd.eqv y.(i) (next_fn i) ])))
    in
    let xcube = Bdd.cube man2 (Array.to_list x) in
    let unprime =
      Bdd.make_varmap man2
        (List.init bits (fun i ->
             (Bdd.var_index y.(i), Bdd.var_index x.(i))))
    in
    let init =
      Bdd.conj man2
        (List.init bits (fun i -> if i = 0 then x.(i) else Bdd.dnot x.(i)))
    in
    (rel, xcube, unprime, init)
  in
  let image_bfs (rel, xcube, unprime, init) =
    let ops = ref 0 in
    let reached = ref init in
    let frontier = ref init in
    let steps = ref 0 in
    while (not (Bdd.is_false !frontier)) && !steps < 100 do
      let nxt = Bdd.permute unprime (Bdd.and_exists ~cube:xcube rel !frontier) in
      incr ops;
      incr steps;
      let fresh = Bdd.dand nxt (Bdd.dnot !reached) in
      reached := Bdd.dor !reached fresh;
      frontier := fresh
    done;
    (!ops, !reached)
  in
  let man2 = Bdd.new_man () in
  let eca = eca_setup man2 in
  let image_kernel () = fst (image_bfs eca) in
  let image_rounds name f =
    ignore (Bdd.gc man2);
    let ops = ref 0 in
    let t0 = Obs.Clock.now () in
    for _ = 1 to rounds * 4 do
      ops := !ops + f ();
      ignore (Bdd.gc man2)
    done;
    let dt = Obs.Clock.now () -. t0 in
    let rate = if dt > 0.0 then Float.of_int !ops /. dt else 0.0 in
    pr "  %-12s %8d ops in %7.3fs  = %12.0f ops/s@." name !ops dt rate;
    Obs.Json.Obj
      [
        ("kernel", Obs.Json.Str name);
        ("ops", Obs.Json.Int !ops);
        ("time_s", Obs.Json.Float dt);
        ("ops_per_s", Obs.Json.Float rate);
      ]
  in
  let k_and = kernel "and" and_kernel in
  let k_ite = kernel "ite" ite_kernel in
  let k_exists = kernel "exists" exists_kernel in
  let k_image = image_rounds "and_exists" image_kernel in
  let kernels = [ k_and; k_ite; k_exists; k_image ] in
  let j =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str "bdd");
        ("schema", Obs.Json.Str Obs.schema_version);
        ("pool_vars", Obs.Json.Int nvars);
        ("image_bits", Obs.Json.Int bits);
        ("rounds", Obs.Json.Int rounds);
        ("host_cores", Obs.Json.Int (host_cores ()));
        ("kernels", Obs.Json.List kernels);
        ("obs", Obs.to_json (Obs.snapshot (Bdd.stats man)));
        ("obs_image", Obs.to_json (Obs.snapshot (Bdd.stats man2)));
      ]
  in
  write_file "BENCH_bdd.json" (Obs.Json.to_string j);
  pr "wrote BENCH_bdd.json@."

(* ------------------------------------------------------------------ *)
(* Parallel scaling -> BENCH_par.json (schema hsis-par/4; /3 added the
   additive [recommended_domains] and [host_cores] members, /4 dropped the
   share-nothing [sn_s] / [speedup_vs_sn] columns with that mode).

   - fuzz: differential iterations spread over worker domains.  Also
     cross-checks the determinism contract: the parallel report (minus
     elapsed/pool members) must be byte-identical to the sequential one.
   - scaled: each parameterized design (ring / philos at benchmark sizes)
     measured three ways — sequential [run_pif], shared-work [-j 1]
     (no-regression check) and shared-work [-j jobs] (snapshot-shipped TR
     and reach set).  Verdict strings and exit codes must agree across
     all three.

   Each (design, mode) cell runs in a fresh process (the bench re-execs
   itself with the hidden [_par-probe] subcommand): back-to-back in-process
   measurement lets the earlier runs' grown major heap inflate the later
   ones by 20-40%, which is enough to drown the effects being measured. *)

let verdict_chars rs =
  String.concat ""
    (List.map
       (fun (r : _ Hsis.property_result) ->
         match r.Hsis.pr_verdict with
         | Hsis_limits.Verdict.Pass -> "P"
         | Hsis_limits.Verdict.Fail _ -> "F"
         | Hsis_limits.Verdict.Inconclusive _ -> "I")
       rs)

let par_probe name mode jobs =
  let m =
    match Models.by_name name with
    | Some m -> m
    | None -> failwith ("par probe: unknown design " ^ name)
  in
  let pif = Model.parse_pif m in
  let d = Hsis.read_verilog m.Model.verilog in
  Hsis.set_reach_profile d false;
  let (report, obs), t =
    wall (fun () ->
        match mode with
        | "seq" -> (Hsis.run_pif ~witnesses:false d pif, Obs.merge [])
        | "sw" -> Hsis.run_pif_par ~witnesses:false ~jobs d pif
        | _ -> failwith ("par probe: unknown mode " ^ mode))
  in
  let snap = obs.Obs.man.Obs.snap in
  Printf.printf "PROBE time %.6f\n" t;
  Printf.printf "PROBE exit %d\n" (Hsis.report_exit_code report);
  Printf.printf "PROBE verdicts %s%s\n"
    (verdict_chars report.Hsis.ctl)
    (verdict_chars report.Hsis.lc);
  Printf.printf "PROBE snap %d %d %d %d\n" snap.Obs.Snap.exports
    snap.Obs.Snap.imports snap.Obs.Snap.nodes snap.Obs.Snap.bytes

type probe = {
  pb_time : float;
  pb_exit : int;
  pb_verdicts : string;
  pb_snap : int * int * int * int;  (* exports, imports, nodes, bytes *)
}

let run_probe name mode jobs =
  let out = Filename.temp_file "hsis_probe" ".txt" in
  let cmd =
    Printf.sprintf "%s _par-probe %s %s %d > %s"
      (Filename.quote Sys.executable_name)
      (Filename.quote name) mode jobs (Filename.quote out)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then
    failwith (Printf.sprintf "par probe %s %s exited %d" name mode rc);
  let ic = open_in out in
  let p =
    ref { pb_time = 0.0; pb_exit = 0; pb_verdicts = ""; pb_snap = (0, 0, 0, 0) }
  in
  (try
     while true do
       let line = input_line ic in
       (try Scanf.sscanf line "PROBE time %f" (fun t -> p := { !p with pb_time = t })
        with Scanf.Scan_failure _ | Failure _ -> ());
       (try Scanf.sscanf line "PROBE exit %d" (fun e -> p := { !p with pb_exit = e })
        with Scanf.Scan_failure _ | Failure _ -> ());
       (try
          Scanf.sscanf line "PROBE verdicts %s"
            (fun v -> p := { !p with pb_verdicts = v })
        with Scanf.Scan_failure _ | Failure _ -> ());
       (try
          Scanf.sscanf line "PROBE snap %d %d %d %d"
            (fun e i n b -> p := { !p with pb_snap = (e, i, n, b) })
        with Scanf.Scan_failure _ | Failure _ -> ())
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  !p

let scaled_row ~jobs name =
  let p_seq = run_probe name "seq" 1 in
  let p_sw1 = run_probe name "sw" 1 in
  let p_sw = run_probe name "sw" jobs in
  let agree =
    List.for_all
      (fun p -> p.pb_verdicts = p_seq.pb_verdicts && p.pb_exit = p_seq.pb_exit)
      [ p_sw1; p_sw ]
  in
  let speedup_vs_seq = p_seq.pb_time /. Float.max 1e-9 p_sw.pb_time in
  let j1_ratio = p_sw1.pb_time /. Float.max 1e-9 p_seq.pb_time in
  let e, i, n, b = p_sw.pb_snap in
  pr
    "  %-8s seq %6.2fs  sw-j1 %6.2fs (%.2fx)  sw-j%d %6.2fs  vs-seq %5.2fx  \
     agree %b@."
    name p_seq.pb_time p_sw1.pb_time j1_ratio jobs p_sw.pb_time
    speedup_vs_seq agree;
  let row =
    Obs.Json.Obj
      [
        ("design", Obs.Json.Str name);
        ("props", Obs.Json.Int (String.length p_seq.pb_verdicts));
        ("exit_code", Obs.Json.Int p_seq.pb_exit);
        ("seq_s", Obs.Json.Float p_seq.pb_time);
        ("sw_j1_s", Obs.Json.Float p_sw1.pb_time);
        ("sw_s", Obs.Json.Float p_sw.pb_time);
        ("speedup_vs_seq", Obs.Json.Float speedup_vs_seq);
        ("j1_ratio", Obs.Json.Float j1_ratio);
        ("verdicts_agree", Obs.Json.Bool agree);
        ( "snapshot",
          Obs.Json.Obj
            [
              ("exports", Obs.Json.Int e);
              ("imports", Obs.Json.Int i);
              ("nodes", Obs.Json.Int n);
              ("bytes", Obs.Json.Int b);
            ] );
      ]
  in
  (row, agree)

let par_bench ?(jobs = 4) () =
  let open Hsis_par in
  pr "@.== Parallel scaling (%d jobs) ==@." jobs;
  (* fuzz workload *)
  let fuzz_cfg j =
    let open Hsis_gen in
    { Diff.default_config with Diff.iters = 150; seed = 42; jobs = j }
  in
  let seq_report, t_fseq = wall (fun () -> Hsis_gen.Diff.run (fuzz_cfg 1)) in
  let par_report, t_fpar = wall (fun () -> Hsis_gen.Diff.run (fuzz_cfg jobs)) in
  (* scheduling-independent members only: elapsed and pool stats differ
     between runs by construction *)
  let strip = function
    | Obs.Json.Obj ms ->
        Obs.Json.Obj
          (List.filter
             (fun (k, _) -> not (List.mem k [ "elapsed_s"; "jobs"; "pool" ]))
             ms)
    | j -> j
  in
  let canon r = Obs.Json.to_string (strip (Hsis_gen.Diff.report_to_json r)) in
  let fuzz_identical = canon seq_report = canon par_report in
  let fuzz_speedup = t_fseq /. Float.max 1e-9 t_fpar in
  pr "  fuzz  %d iters: seq %.2fs, par %.2fs (%.2fx), reports identical %b@."
    seq_report.Hsis_gen.Diff.iterations t_fseq t_fpar fuzz_speedup
    fuzz_identical;
  (* scaled workload: one row per parameterized design, each cell in a
     fresh process; property checking fanned out within each design *)
  let designs = [ "ring8"; "ring10"; "philos8" ] in
  pr "  scaled designs (per-mode fresh process, %d jobs):@." jobs;
  let rows = List.map (scaled_row ~jobs) designs in
  let rows_agree = List.for_all snd rows in
  let j =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str "par");
        ("schema", Obs.Json.Str "hsis-par/4");
        ("obs_schema", Obs.Json.Str Obs.schema_version);
        ("jobs", Obs.Json.Int jobs);
        ("cores", Obs.Json.Int (Par.default_jobs ()));
        ("recommended_domains", Obs.Json.Int (Par.default_jobs ()));
        ("host_cores", Obs.Json.Int (host_cores ()));
        ( "fuzz",
          Obs.Json.Obj
            [
              ("iters", Obs.Json.Int seq_report.Hsis_gen.Diff.iterations);
              ("seed", Obs.Json.Int 42);
              ("seq_s", Obs.Json.Float t_fseq);
              ("par_s", Obs.Json.Float t_fpar);
              ("speedup", Obs.Json.Float fuzz_speedup);
              ("identical_reports", Obs.Json.Bool fuzz_identical);
            ] );
        ("scaled", Obs.Json.List (List.map fst rows));
      ]
  in
  write_file "BENCH_par.json" (Obs.Json.to_string j);
  pr "wrote BENCH_par.json@.";
  if not (fuzz_identical && rows_agree) then begin
    prerr_endline "par bench: parallel results diverged from sequential";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* TR-strategy scaling -> BENCH_scale.json (schema hsis-scale/1).

   Nodes/time-vs-N curves for the three TR strategies ([--tr mono], [part],
   [iso]) on the hierarchical scaled families.  Each (design, strategy)
   cell runs in a fresh process (the hidden [_scale-probe] subcommand) so
   the peak-live-node high-water mark measures that strategy's
   construction and fixpoints alone, not a shared heap's history.
   [--check] turns the expected shape into assertions (CI's scale-smoke
   job): verdicts and exit codes identical across strategies on every
   row, and on at least one family's largest size a monotone peak
   ordering iso <= part <= mono. *)

let scale_probe name strat =
  let m =
    match Models.by_name name with
    | Some m -> m
    | None -> failwith ("scale probe: unknown design " ^ name)
  in
  let strategy =
    match Hsis_fsm.Trans.strategy_of_name strat with
    | Some s -> s
    | None -> failwith ("scale probe: unknown strategy " ^ strat)
  in
  let pif = Model.parse_pif m in
  (* construction cost first: what the strategy directly controls.  The
     monolithic product is materialized lazily on the first image call,
     so force it here to charge its conjunction intermediates to the
     build phase rather than to whichever engine runs first. *)
  let d, t_build =
    wall (fun () ->
        let d = Hsis.read_verilog ~strategy m.Model.verilog in
        (match strategy with
        | Hsis_fsm.Trans.Monolithic ->
            ignore (Hsis_fsm.Trans.monolithic d.Hsis.trans)
        | Hsis_fsm.Trans.Partitioned | Hsis_fsm.Trans.Iso_shared -> ());
        d)
  in
  let build_peak = (Hsis.stats d).Obs.arena.Obs.Arena.peak_live in
  Hsis.set_reach_profile d false;
  let report, t_run =
    wall (fun () ->
        ignore (Hsis.reached_states d);
        Hsis.run_pif ~witnesses:false d pif)
  in
  let tr = Hsis_fsm.Trans.tr_profile d.Hsis.trans in
  Printf.printf "PROBE time %.6f\n" (t_build +. t_run);
  Printf.printf "PROBE read %.6f\n" t_build;
  Printf.printf "PROBE states %.0f\n" (Hsis.reached_states d);
  Printf.printf "PROBE buildpeak %d\n" build_peak;
  Printf.printf "PROBE peak %d\n"
    (Hsis.stats d).Obs.arena.Obs.Arena.peak_live;
  Printf.printf "PROBE exit %d\n" (Hsis.report_exit_code report);
  Printf.printf "PROBE verdicts %s%s\n"
    (verdict_chars report.Hsis.ctl)
    (verdict_chars report.Hsis.lc);
  Printf.printf "PROBE share %d %d %d\n" tr.Obs.tr_masters tr.Obs.tr_instances
    tr.Obs.tr_shared_nodes_saved

type scale_cell = {
  sc_time : float;
  sc_read : float;
  sc_states : float;
  sc_build_peak : int;  (* peak live nodes after relation construction *)
  sc_peak : int;  (* peak live nodes over the whole run *)
  sc_exit : int;
  sc_verdicts : string;
  sc_share : int * int * int;  (* masters, instances, nodes saved *)
}

let run_scale_probe name strat =
  let out = Filename.temp_file "hsis_scale" ".txt" in
  let cmd =
    Printf.sprintf "%s _scale-probe %s %s > %s"
      (Filename.quote Sys.executable_name)
      (Filename.quote name) strat (Filename.quote out)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then
    failwith (Printf.sprintf "scale probe %s %s exited %d" name strat rc);
  let ic = open_in out in
  let p =
    ref
      {
        sc_time = 0.0;
        sc_read = 0.0;
        sc_states = 0.0;
        sc_build_peak = 0;
        sc_peak = 0;
        sc_exit = 0;
        sc_verdicts = "";
        sc_share = (0, 0, 0);
      }
  in
  let scan line fmt f =
    try Scanf.sscanf line fmt f with Scanf.Scan_failure _ | Failure _ -> ()
  in
  (try
     while true do
       let line = input_line ic in
       scan line "PROBE time %f" (fun t -> p := { !p with sc_time = t });
       scan line "PROBE read %f" (fun t -> p := { !p with sc_read = t });
       scan line "PROBE states %f" (fun s -> p := { !p with sc_states = s });
       scan line "PROBE buildpeak %d" (fun n ->
           p := { !p with sc_build_peak = n });
       scan line "PROBE peak %d" (fun n -> p := { !p with sc_peak = n });
       scan line "PROBE exit %d" (fun e -> p := { !p with sc_exit = e });
       scan line "PROBE verdicts %s" (fun v -> p := { !p with sc_verdicts = v });
       scan line "PROBE share %d %d %d" (fun m i s ->
           p := { !p with sc_share = (m, i, s) })
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove out;
  !p

let scale_strategies = [ "mono"; "part"; "iso" ]

let scale_row family n =
  let design = Printf.sprintf "%s%d" family n in
  let cells = List.map (fun s -> (s, run_scale_probe design s)) scale_strategies in
  let base = snd (List.hd cells) in
  let agree =
    List.for_all
      (fun (_, c) ->
        c.sc_verdicts = base.sc_verdicts && c.sc_exit = base.sc_exit)
      cells
  in
  pr "  %-9s" design;
  List.iter
    (fun (s, c) ->
      pr "  %s %6.2fs build %7d peak %8d" s c.sc_time c.sc_build_peak c.sc_peak)
    cells;
  pr "  agree %b@." agree;
  let cell_json (s, c) =
    let masters, instances, saved = c.sc_share in
    ( s,
      Obs.Json.Obj
        [
          ("time_s", Obs.Json.Float c.sc_time);
          ("build_s", Obs.Json.Float c.sc_read);
          ("build_peak_live", Obs.Json.Int c.sc_build_peak);
          ("peak_live", Obs.Json.Int c.sc_peak);
          ("exit_code", Obs.Json.Int c.sc_exit);
          ("masters", Obs.Json.Int masters);
          ("instances", Obs.Json.Int instances);
          ("shared_nodes_saved", Obs.Json.Int saved);
        ] )
  in
  let row =
    Obs.Json.Obj
      [
        ("design", Obs.Json.Str design);
        ("n", Obs.Json.Int n);
        ("states", Obs.Json.Float base.sc_states);
        ("props", Obs.Json.Int (String.length base.sc_verdicts));
        ("verdicts_agree", Obs.Json.Bool agree);
        ("cells", Obs.Json.Obj (List.map cell_json cells));
      ]
  in
  (row, cells, agree)

let scale_bench ?(small = false) ?(check = false) () =
  let sizes = if small then [ 3; 4 ] else [ 4; 6; 8 ] in
  pr "@.== TR-strategy scaling (%s) ==@."
    (String.concat "," (List.map string_of_int sizes));
  let families = [ "ring"; "philos" ] in
  let results =
    List.map
      (fun family ->
        pr "  %s:@." family;
        (family, List.map (scale_row family) sizes))
      families
  in
  let all_agree =
    List.for_all
      (fun (_, rows) -> List.for_all (fun (_, _, a) -> a) rows)
      results
  in
  (* the headline curve: sharing must show up as a lower construction
     high-water mark at the largest size of some family.  Construction is
     what the strategy controls — monolithic pays the product and its
     conjunction intermediates, partitioned only the parts, iso-shared
     one master per group plus cheap permutes — and BDD construction is
     deterministic, so the ordering is assertable without tolerance. *)
  let peak_of cells s = (List.assoc s cells).sc_build_peak in
  let ordered_at_top (_, rows) =
    let _, cells, _ = List.nth rows (List.length rows - 1) in
    peak_of cells "iso" <= peak_of cells "part"
    && peak_of cells "part" <= peak_of cells "mono"
  in
  let any_ordered = List.exists ordered_at_top results in
  let j =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str "scale");
        ("schema", Obs.Json.Str "hsis-scale/1");
        ("obs_schema", Obs.Json.Str Obs.schema_version);
        ("recommended_domains", Obs.Json.Int (Hsis_par.Par.default_jobs ()));
        ("host_cores", Obs.Json.Int (host_cores ()));
        ("sizes", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) sizes));
        ("verdicts_agree", Obs.Json.Bool all_agree);
        ("peak_ordered_at_top", Obs.Json.Bool any_ordered);
        ( "families",
          Obs.Json.List
            (List.map
               (fun (family, rows) ->
                 Obs.Json.Obj
                   [
                     ("family", Obs.Json.Str family);
                     ( "rows",
                       Obs.Json.List (List.map (fun (r, _, _) -> r) rows) );
                   ])
               results) );
      ]
  in
  write_file "BENCH_scale.json" (Obs.Json.to_string j);
  pr "wrote BENCH_scale.json@.";
  if check then begin
    if not all_agree then begin
      prerr_endline "scale bench: verdicts diverged across TR strategies";
      exit 1
    end;
    if not any_ordered then begin
      prerr_endline
        "scale bench: no family shows iso <= part <= mono peak-live ordering \
         at its largest size";
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Serve-mode benchmark -> BENCH_serve.json.

   Two measurements that justify the daemon's existence:

   - re-check latency, cold vs warm: a user edits one property and
     re-checks.  Cold pays parse/flatten/order/relation/reach before the
     property runs; warm hits the session cache and runs just the
     property.  Same single-property PIF both times, so the ratio
     isolates the cached-state win.
   - throughput under concurrent clients: N client threads hammer a
     Unix-socket daemon with check jobs over a warm cache; jobs/sec is
     wall-clock over total completed jobs. *)

let serve_bench ?(clients = 2) ?(jobs_per_client = 20) () =
  let open Hsis_serve in
  (* One edited property: take the model's first invariant-style (AG)
     ctl line — the canonical edit-and-re-check workload — and rename
     it, as if the user had just rewritten it. *)
  let edited_property (m : Model.t) =
    let lines = String.split_on_char '\n' m.Model.pif in
    let is_ctl l =
      let l = String.trim l in
      String.length l > 4 && String.sub l 0 4 = "ctl "
    in
    let is_invariant l = is_ctl l && String.length l > 0
      && Option.is_some (String.index_opt l '"')
      &&
      let q = String.index l '"' in
      String.length l > q + 3 && String.sub l (q + 1) 3 = "AG "
    in
    let line =
      match List.find_opt is_invariant lines with
      | Some l -> Some l
      | None -> List.find_opt is_ctl lines
    in
    match line with
    | None -> failwith (m.Model.name ^ ": no ctl property to edit")
    | Some line -> (
        match String.split_on_char ' ' (String.trim line) with
        | "ctl" :: name :: rest ->
            String.concat " " (("ctl" :: (name ^ "_v2") :: rest))
        | _ -> failwith (m.Model.name ^ ": unparseable ctl line"))
  in
  let check_request ?(id = Obs.Json.Null) ?pif source =
    {
      Proto.r_id = id;
      r_op = Proto.Check;
      r_design = Some source;
      r_pif = pif;
      r_budget = Proto.no_budget;
      r_jobs = None;
      r_tr = None;
      r_fail_fast = false;
      r_witnesses = false;
      r_stats = false;
    }
  in
  pr "serve bench: re-check latency (one edited property), cold vs warm@.";
  let server = Server.create () in
  let recheck_rows =
    List.map
      (fun (m : Model.t) ->
        let req =
          check_request ~pif:(edited_property m)
            (Proto.Verilog m.Model.verilog)
        in
        let cold = Server.handle_request server req in
        let warm = Server.handle_request server req in
        (match (cold.Proto.p_status, warm.Proto.p_status) with
        | `Ok, `Ok -> ()
        | _ ->
            prerr_endline ("serve bench: " ^ m.Model.name ^ " errored");
            exit 1);
        if cold.Proto.p_exit_code <> warm.Proto.p_exit_code then begin
          prerr_endline
            ("serve bench: warm verdict diverged on " ^ m.Model.name);
          exit 1
        end;
        let speedup =
          cold.Proto.p_elapsed /. Float.max 1e-9 warm.Proto.p_elapsed
        in
        pr "  %-12s cold %8.4fs  warm %8.4fs  (%6.1fx)@." m.Model.name
          cold.Proto.p_elapsed warm.Proto.p_elapsed speedup;
        (m, cold.Proto.p_elapsed, warm.Proto.p_elapsed, speedup))
      (Models.table1_small ())
  in
  let cold_total =
    List.fold_left (fun a (_, c, _, _) -> a +. c) 0.0 recheck_rows
  in
  let warm_total =
    List.fold_left (fun a (_, _, w, _) -> a +. w) 0.0 recheck_rows
  in
  let total_speedup = cold_total /. Float.max 1e-9 warm_total in
  pr "  %-12s cold %8.4fs  warm %8.4fs  (%6.1fx)@." "TOTAL" cold_total
    warm_total total_speedup;
  (* Throughput: a socket daemon under [clients] concurrent client
     threads, cache pre-warmed so the steady state is measured. *)
  pr "serve bench: throughput, %d clients x %d jobs@." clients
    jobs_per_client;
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hsis-bench-%d.sock" (Unix.getpid ()))
  in
  let daemon = Server.create () in
  let daemon_thread =
    Thread.create (fun () -> Server.listen daemon ~socket_path) ()
  in
  let wait_for_socket () =
    let rec go n =
      if n = 0 then failwith "serve bench: daemon socket never appeared";
      if not (Sys.file_exists socket_path) then begin
        Thread.delay 0.05;
        go (n - 1)
      end
    in
    go 100
  in
  wait_for_socket ();
  let designs = [ "pingpong"; "philos" ] in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket_path);
    (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
  in
  let send_request oc req =
    output_string oc (Obs.Json.to_string (Proto.request_to_json req));
    output_char oc '\n';
    flush oc
  in
  let read_response ic = Proto.response_of_json (Obs.Json.parse (input_line ic)) in
  let roundtrip ic oc req =
    send_request oc req;
    read_response ic
  in
  (* warm the cache once per design *)
  let fd, ic, oc = connect () in
  List.iter
    (fun name -> ignore (roundtrip ic oc (check_request (Proto.Builtin name))))
    designs;
  Unix.close fd;
  let ok_jobs = Array.make clients 0 in
  let client_run c () =
    let fd, ic, oc = connect () in
    for i = 0 to jobs_per_client - 1 do
      let name = List.nth designs ((c + i) mod List.length designs) in
      let id = Obs.Json.Str (Printf.sprintf "c%d-%d" c i) in
      let resp = roundtrip ic oc (check_request ~id (Proto.Builtin name)) in
      match resp.Proto.p_status with
      | `Ok -> ok_jobs.(c) <- ok_jobs.(c) + 1
      | `Error _ -> ()
    done;
    Unix.close fd
  in
  let (), elapsed =
    wall (fun () ->
        let ts = List.init clients (fun c -> Thread.create (client_run c) ()) in
        List.iter Thread.join ts)
  in
  let completed = Array.fold_left ( + ) 0 ok_jobs in
  let total = clients * jobs_per_client in
  let jobs_per_s = float_of_int completed /. Float.max 1e-9 elapsed in
  let fd, ic, oc = connect () in
  let shutdown_resp =
    roundtrip ic oc
      {
        (check_request (Proto.Builtin "pingpong")) with
        Proto.r_op = Proto.Shutdown;
        r_design = None;
      }
  in
  ignore shutdown_resp;
  Unix.close fd;
  Thread.join daemon_thread;
  let cache_stats = Scache.stats (Server.cache daemon) in
  pr "  %d/%d jobs ok in %.2fs = %.1f jobs/s (cache: %d hits, %d misses)@."
    completed total elapsed jobs_per_s cache_stats.Scache.hits
    cache_stats.Scache.misses;
  let j =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.Str "serve");
        ("schema", Obs.Json.Str Proto.schema_version);
        ( "recheck",
          Obs.Json.List
            (List.map
               (fun ((m : Model.t), cold, warm, speedup) ->
                 Obs.Json.Obj
                   [
                     ("design", Obs.Json.Str m.Model.name);
                     ("cold_s", Obs.Json.Float cold);
                     ("warm_s", Obs.Json.Float warm);
                     ("speedup", Obs.Json.Float speedup);
                   ])
               recheck_rows) );
        ( "recheck_total",
          Obs.Json.Obj
            [
              ("cold_s", Obs.Json.Float cold_total);
              ("warm_s", Obs.Json.Float warm_total);
              ("speedup", Obs.Json.Float total_speedup);
            ] );
        ( "throughput",
          Obs.Json.Obj
            [
              ("clients", Obs.Json.Int clients);
              ("jobs", Obs.Json.Int total);
              ("completed", Obs.Json.Int completed);
              ("elapsed_s", Obs.Json.Float elapsed);
              ("jobs_per_s", Obs.Json.Float jobs_per_s);
              ("cache_hits", Obs.Json.Int cache_stats.Scache.hits);
              ("cache_misses", Obs.Json.Int cache_stats.Scache.misses);
            ] );
      ]
  in
  write_file "BENCH_serve.json" (Obs.Json.to_string j);
  pr "wrote BENCH_serve.json@.";
  if completed <> total then begin
    prerr_endline "serve bench: some jobs failed";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Observability smoke check (run from the test alias): emit a snapshot
   for a small design, re-parse it, and fail loudly if any section that
   downstream tooling depends on is missing.  Guards against stats
   emission silently breaking. *)

let json_smoke () =
  let d = Hsis.read_verilog (bus_model false) in
  ignore (Hsis.reached_states d);
  let mc =
    Hsis.check_ctl d ~name:"AG" (Hsis_auto.Ctl.parse "AG !(out1=1 & out2=1)")
  in
  if not (Hsis_limits.Verdict.holds mc.Hsis.pr_verdict) then begin
    prerr_endline "json smoke: sanity property unexpectedly failed";
    exit 1
  end;
  let snap = Hsis.snapshot d in
  let s = Obs.json_string snap in
  let die msg =
    prerr_endline ("json smoke: " ^ msg);
    prerr_endline s;
    exit 1
  in
  let round =
    match Obs.Json.parse s with
    | j -> Obs.of_json j
    | exception Obs.Json.Parse_error m -> die ("emitted JSON fails to parse: " ^ m)
  in
  let lookups =
    Obs.Cache.hits round.Obs.man.Obs.cache + Obs.Cache.misses round.Obs.man.Obs.cache
  in
  if lookups = 0 then die "no cache lookups recorded";
  if round.Obs.man.Obs.arena.Obs.Arena.peak_live <= 0 then die "no peak live nodes";
  List.iter
    (fun phase ->
      if not (List.mem_assoc phase round.Obs.phases) then
        die ("missing phase: " ^ phase))
    [ "parse"; "flatten"; "order"; "relation"; "reach"; "mc" ];
  if round.Obs.reach = [] then die "empty reach profile";
  if round.Obs.relation = None then die "missing relation profile";
  print_endline s

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match arg with
  | "table1" -> table1 ()
  | "table1-small" -> table1 ~scale:`Small ()
  | "fig2" -> fig2 ()
  | "quant" -> quant_bench ()
  | "ablate-quant" -> ablate_quant ()
  | "ablate-tr" -> ablate_tr ()
  | "ablate-dc" -> ablate_dc ()
  | "ablate-efd" -> ablate_efd ()
  | "bech" -> run_bechamel ()
  | "bdd" -> bdd_bench ()
  | "par" ->
      let jobs =
        if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 4
      in
      par_bench ~jobs ()
  | "_par-probe" ->
      (* internal: one (design, mode, jobs) cell of the par bench, run in
         its own process so modes don't share a heap *)
      par_probe Sys.argv.(2) Sys.argv.(3) (int_of_string Sys.argv.(4))
  | "scale" ->
      let rest =
        Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
      in
      scale_bench ~small:(List.mem "small" rest)
        ~check:(List.mem "--check" rest) ()
  | "_scale-probe" ->
      (* internal: one (design, strategy) cell of the scale bench, run in
         its own process so the peak-live high-water mark is its own *)
      scale_probe Sys.argv.(2) Sys.argv.(3)
  | "serve" ->
      let clients =
        if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 2
      in
      serve_bench ~clients ()
  | "json" -> json_smoke ()
  | "all" ->
      fig2 ();
      quant_bench ();
      ablate_quant ();
      ablate_tr ();
      ablate_dc ();
      ablate_efd ();
      run_bechamel ();
      bdd_bench ();
      table1 ()
  | other ->
      prerr_endline ("unknown bench: " ^ other);
      exit 1
