open Hsis_obs
open Hsis_bdd
open Hsis_blifmv
open Hsis_fsm
open Hsis_auto
open Hsis_check
open Hsis_debug
open Hsis_limits

type design = {
  flat : Ast.model;
  prov : Flatten.provenance;
  net : Net.t;
  trans : Trans.t;
  heuristic : Trans.heuristic;
  verilog_lines : int option;
  blifmv_lines : int;
  read_time : float;
  timers : Obs.Timers.t;
  verdicts : Obs.Tally.t;
  mutable limits : Limits.t;
  mutable reach_cache : Reach.t option;
  mutable reach_order_rev : int;
  mutable profile_reach : bool;
  mutable simplify_reach : bool;
  mutable shared_cache : shared_cell option;
}

(* The exported form of a design, built once on the coordinator and
   rehydrated into fresh per-domain managers by [design_of_shared].  Only
   immutable plain data and the snapshot int arrays cross domains; no BDD
   handle ever does.  [sd_roots] directly-constructed relation parts head
   the snapshot roots — under [Iso_shared] that is one component per
   master, the permuted copies travelling as renamings inside [sd_shape] —
   followed (when the coordinator's reach cache was conclusive) by the
   reachable set and its [sd_rings] onion rings. *)
and shared_design = {
  sd_flat : Ast.model;
  sd_prov : Flatten.provenance;
  sd_net : Net.t;
  sd_heuristic : Trans.heuristic;
  sd_shape : Trans.shared;
  sd_roots : int;
  sd_snapshot : Bdd.snapshot;
  sd_rings : int;
  sd_reach_steps : int;
  sd_simplify : bool;
  sd_verilog_lines : int option;
  sd_blifmv_lines : int;
}

(* A cached payload is keyed to the coordinator manager's reorder
   generation: sifting changes the exported order, and a stale snapshot
   would force the slow per-node re-permute path on every import. *)
and shared_cell = { sc_payload : shared_design; sc_order_rev : int }

let set_reach_profile d b = d.profile_reach <- b
let set_reach_simplify d b = d.simplify_reach <- b
let set_limits d l = d.limits <- l
let limits d = d.limits

let timed f = Obs.Clock.wall f

let read_flat ?(heuristic = Trans.Min_width) ?(strategy = Trans.Partitioned)
    ?(prov = []) ?verilog_lines ?timers flat =
  let timers =
    match timers with Some t -> t | None -> Obs.Timers.create ()
  in
  let blifmv_lines = Ast.line_count (Printer.model_to_string flat) in
  let (net, trans), read_time =
    timed (fun () ->
        let net, sym =
          Obs.Timers.time timers "order" (fun () ->
              let net = Net.of_model flat in
              let man = Bdd.new_man () in
              (net, Sym.make man net))
        in
        let trans =
          Obs.Timers.time timers "relation" (fun () ->
              (* building the relation BDDs is part of "read" in Table 1;
                 under the iso strategy renamed copies stay pending here and
                 materialize on first image/preimage touch *)
              Trans.build ~heuristic ~strategy ~prov sym)
        in
        (net, trans))
  in
  { flat; prov; net; trans; heuristic; verilog_lines; blifmv_lines; read_time;
    timers; verdicts = Obs.Tally.create (); limits = Limits.none;
    reach_cache = None; reach_order_rev = 0; profile_reach = true;
    simplify_reach = false; shared_cache = None }

let read_blifmv ?heuristic ?strategy src =
  let timers = Obs.Timers.create () in
  let ast = Obs.Timers.time timers "parse" (fun () -> Parser.parse src) in
  let flat, prov =
    Obs.Timers.time timers "flatten" (fun () -> Flatten.flatten_prov ast)
  in
  read_flat ?heuristic ?strategy ~prov ~timers flat

let read_verilog ?heuristic ?strategy src =
  let timers = Obs.Timers.create () in
  let verilog_lines = Ast.line_count src in
  let ast =
    Obs.Timers.time timers "parse" (fun () -> Hsis_verilog.Elab.compile src)
  in
  let flat, prov =
    Obs.Timers.time timers "flatten" (fun () -> Flatten.flatten_prov ast)
  in
  read_flat ?heuristic ?strategy ~prov ~verilog_lines ~timers flat

(* Reorder generation of the design's manager: the reach cache is only
   valid for the variable order it was computed under, so it carries the
   sifting-run count at fill time and is dropped when that moves (e.g. a
   later property check triggering auto-reorder, or an explicit
   [Bdd.sift] between jobs of a warm serve session). *)
let reorder_runs d =
  (Bdd.stats (Trans.man d.trans)).Obs.reorder.Obs.Reorder.runs

let reach_cache_valid d =
  d.reach_cache <> None && d.reach_order_rev = reorder_runs d

(* Only conclusive explorations are cached: a run truncated by a budget is
   returned to the caller but recomputed on the next call (the absolute
   deadline makes retries after expiry fail fast rather than loop). *)
let reachable ?limits d =
  let limits = Option.value limits ~default:d.limits in
  if d.reach_cache <> None && not (reach_cache_valid d) then
    d.reach_cache <- None;
  match d.reach_cache with
  | Some r -> r
  | None ->
      let r =
        Obs.Timers.time d.timers "reach" (fun () ->
            Reach.compute ~limits ~profile:d.profile_reach
              ~simplify:d.simplify_reach d.trans (Trans.initial d.trans))
      in
      if Verdict.conclusive r.Reach.verdict then begin
        (* stamp with the order as of completion: sifting may have run
           inside the fixpoint itself *)
        d.reach_cache <- Some r;
        d.reach_order_rev <- reorder_runs d
      end;
      r

let reached_states d = Reach.count_states d.trans (reachable d).Reach.reachable

type ctl_evidence = {
  ce_explanation : Mcdbg.explanation option;
}

type lc_evidence = {
  le_trace : Trace.t option;
  le_trans : Trans.t;
}

type 'ev property_result = {
  pr_name : string;
  pr_verdict : 'ev Verdict.t;
  pr_time : float;
  pr_early_step : int option;
}

let tally d v = Obs.Tally.incr d.verdicts (Verdict.name v)

let check_ctl ?(fairness = []) ?(early_failure = true) ?(explain = false)
    ?limits d ~name formula =
  let limits = Option.value limits ~default:d.limits in
  let reach = reachable ~limits d in
  let engine, pr_time =
    timed (fun () ->
        match
          Bdd.with_limits (Trans.man d.trans) limits (fun () ->
              Fair.compile_all d.trans fairness)
        with
        | exception Limits.Interrupted r -> Error r
        | compiled ->
            Ok
              ( compiled,
                Mc.check ~fairness:compiled ~early_failure ~reach ~limits
                  d.trans formula ))
  in
  Obs.Timers.add d.timers "mc" pr_time;
  let pr_verdict, pr_early_step =
    match engine with
    | Error r -> (Verdict.inconclusive r, None)
    | Ok (compiled, outcome) ->
        let evidence _fail_init =
          {
            ce_explanation =
              (if explain then begin
                 let ctx = Mcdbg.make ~fairness:compiled d.trans ~reach in
                 Mcdbg.explain_failure ctx formula outcome
               end
               else None);
          }
        in
        ( Verdict.map evidence outcome.Mc.verdict,
          outcome.Mc.early_failure_step )
  in
  tally d pr_verdict;
  { pr_name = name; pr_verdict; pr_time; pr_early_step }

let check_lc ?(fairness = []) ?(early_failure = true) ?(trace = true) ?limits
    d aut =
  let limits = Option.value limits ~default:d.limits in
  let outcome, pr_time =
    timed (fun () -> Lc.check ~fairness ~early_failure ~limits d.flat aut)
  in
  Obs.Timers.add d.timers "lc" pr_time;
  let evidence _fair =
    (* A [Fail] verdict implies the product was built. *)
    let p = Option.get outcome.Lc.product in
    let le_trace =
      if trace then
        try
          Some
            (Trace.fair_lasso p.Lc.env ~reach:p.Lc.reach ~fair:p.Lc.fair)
        with Not_found -> None
      else None
    in
    { le_trace; le_trans = p.Lc.trans }
  in
  let pr_verdict = Verdict.map evidence outcome.Lc.verdict in
  tally d pr_verdict;
  {
    pr_name = aut.Autom.a_name;
    pr_verdict;
    pr_time;
    pr_early_step = outcome.Lc.early_failure_step;
  }

type report = {
  design_name : string;
  ctl : ctl_evidence property_result list;
  lc : lc_evidence property_result list;
  mc_time : float;
  lc_time : float;
}

let run_pif ?(early_failure = true) ?(witnesses = false) ?limits d
    (pif : Pif.t) =
  let limits = Option.value limits ~default:d.limits in
  let ctl =
    List.map
      (fun (name, f) ->
        check_ctl ~fairness:pif.Pif.p_fairness ~early_failure
          ~explain:witnesses ~limits d ~name f)
      pif.Pif.p_ctl
  in
  let lc =
    List.map
      (fun name ->
        match Pif.find_automaton pif name with
        | Some aut ->
            check_lc ~fairness:pif.Pif.p_fairness ~early_failure
              ~trace:witnesses ~limits d aut
        | None -> invalid_arg ("run_pif: unknown automaton " ^ name))
      pif.Pif.p_lc
  in
  {
    design_name = d.flat.Ast.m_name;
    ctl;
    lc;
    mc_time = List.fold_left (fun acc r -> acc +. r.pr_time) 0.0 ctl;
    lc_time = List.fold_left (fun acc r -> acc +. r.pr_time) 0.0 lc;
  }

let stats d = Bdd.stats (Trans.man d.trans)

let snapshot d =
  let reach =
    match d.reach_cache with
    | Some r -> Array.to_list r.Reach.profile
    | None -> []
  in
  Obs.snapshot
    ~phases:(Obs.Timers.to_list d.timers)
    ~reach
    ~relation:(Trans.rel_profile d.trans)
    ~tr:(Trans.tr_profile d.trans)
    ~verdicts:(Obs.Tally.to_list d.verdicts)
    (stats d)

(* ------------------------------------------------------------------ *)
(* Sharing a built design across domains.  [share_design] runs on the
   coordinator: it captures the relation's manager-independent shape
   (schedules, supports) and exports the relation parts — plus the
   conclusive reach set and its onion rings when cached — as one BDD
   snapshot.  [design_of_shared] runs inside a worker domain: fresh
   manager, same symbol table (Sym.make on the shared net is
   deterministic, so variable indices line up), one linear-pass import,
   and a pre-filled reach cache.  Workers thus skip the two expensive
   coordinator phases: Rel.table_rel/latch_rel construction and the
   reachability fixpoint. *)

let share_design d =
  let fresh () =
    (* Only the directly-constructed parts are exported; permuted copies
       travel as their renamings inside the shape and are re-materialized
       on import, so an N-instance iso build ships one component. *)
    let roots = Trans.shared_roots d.trans in
    let reach_roots, rings, steps =
      if reach_cache_valid d then
        match d.reach_cache with
        | Some r ->
            ( r.Reach.reachable :: Array.to_list r.Reach.rings,
              Array.length r.Reach.rings,
              r.Reach.steps )
        | None -> ([], 0, 0)
      else ([], 0, 0)
    in
    let snapshot = Bdd.export (Trans.man d.trans) (roots @ reach_roots) in
    let sd =
      {
        sd_flat = d.flat;
        sd_prov = d.prov;
        sd_net = d.net;
        sd_heuristic = d.heuristic;
        sd_shape = Trans.share d.trans;
        sd_roots = List.length roots;
        sd_snapshot = snapshot;
        sd_rings = rings;
        sd_reach_steps = steps;
        sd_simplify = d.simplify_reach;
        sd_verilog_lines = d.verilog_lines;
        sd_blifmv_lines = d.blifmv_lines;
      }
    in
    d.shared_cache <- Some { sc_payload = sd; sc_order_rev = reorder_runs d };
    sd
  in
  match d.shared_cache with
  | Some { sc_payload; sc_order_rev }
    when sc_order_rev = reorder_runs d
         (* re-export when a reach set has become available since, or when
            the evaluation strategy was flipped after the capture *)
         && (sc_payload.sd_rings > 0 || not (reach_cache_valid d))
         && Trans.shared_strategy sc_payload.sd_shape = Trans.strategy d.trans
    ->
      sc_payload
  | _ -> fresh ()

let design_of_shared sd =
  let (net, trans, reach), read_time =
    timed (fun () ->
        let man = Bdd.new_man () in
        let sym = Sym.make man sd.sd_net in
        let roots = Array.of_list (Bdd.import man sd.sd_snapshot) in
        let trans =
          Trans.of_shared sym sd.sd_shape ~roots:(Array.sub roots 0 sd.sd_roots)
        in
        let reach =
          if sd.sd_rings = 0 then None
          else
            Some
              {
                Reach.reachable = roots.(sd.sd_roots);
                rings = Array.sub roots (sd.sd_roots + 1) sd.sd_rings;
                steps = sd.sd_reach_steps;
                verdict = Verdict.Pass;
                profile = [||];
              }
        in
        (sd.sd_net, trans, reach))
  in
  let d =
    { flat = sd.sd_flat; prov = sd.sd_prov; net; trans;
      heuristic = sd.sd_heuristic;
      verilog_lines = sd.sd_verilog_lines; blifmv_lines = sd.sd_blifmv_lines;
      read_time; timers = Obs.Timers.create ();
      verdicts = Obs.Tally.create (); limits = Limits.none;
      reach_cache = reach; reach_order_rev = 0; profile_reach = false;
      simplify_reach = sd.sd_simplify; shared_cache = None }
  in
  d.reach_order_rev <- reorder_runs d;
  d

(* Parallel property checking: fan the (design × property) pairs of a PIF
   file out over a [Par] domain pool.  The coordinator builds the
   relation — and, when any CTL property will need it, the reachability
   fixpoint — once, exports them as a [Bdd.snapshot], and every task
   rehydrates into a fresh manager inside its domain ([design_of_shared]),
   skipping the per-task relation build and reach fixpoint entirely.

   No BDD state crosses domains while workers run — snapshots are plain
   int arrays.  Results are collected by task index, so the
   report lists properties in PIF order regardless of which worker
   finished first. *)
let run_pif_par ?(early_failure = true) ?(witnesses = false)
    ?(fail_fast = false) ?limits ~jobs d (pif : Pif.t) =
  let open Hsis_par in
  let limits = Option.value limits ~default:d.limits in
  let tasks =
    Array.of_list
      (List.map (fun (name, f) -> `Ctl (name, f)) pif.Pif.p_ctl
      @ List.map
          (fun name ->
            match Pif.find_automaton pif name with
            | Some aut -> `Lc aut
            | None -> invalid_arg ("run_pif_par: unknown automaton " ^ name))
          pif.Pif.p_lc)
  in
  (* One rehydrated design per worker domain, not per task: the first
     task a worker runs imports the snapshot, later tasks on the same
     worker reuse the warm manager — computed caches included, so
     neighbouring properties share fixpoint iterates just as they do
     sequentially.  The key is fresh per call, so nothing leaks between
     runs; worker domains die with the pool. *)
  let worker_design = Domain.DLS.new_key (fun () -> None) in
  let check_on ~limits sub = function
    | `Ctl (name, f) ->
        `Ctl
          (check_ctl ~fairness:pif.Pif.p_fairness ~early_failure
             ~explain:witnesses ~limits sub ~name f)
    | `Lc aut ->
        `Lc
          (check_lc ~fairness:pif.Pif.p_fairness ~early_failure
             ~trace:witnesses ~limits sub aut)
  in
  let zero_snap = Obs.merge [] in
  let run_task sd ~cancelled i =
    (* Bridge pool-level cancellation (fail-fast, sibling failure) into the
       task's own budget so BDD kernels poll it. *)
    let sub, before =
      match Domain.DLS.get worker_design with
      | Some (sd', sub) when sd' == sd ->
          (* warm: count only this task's increments, so the merged
             document still sums to the run's totals *)
          (sub, Some (snapshot sub))
      | _ ->
          let sub = design_of_shared sd in
          Domain.DLS.set worker_design (Some (sd, sub));
          (sub, None)
    in
    sub.profile_reach <- false;
    sub.simplify_reach <- d.simplify_reach;
    let res = check_on ~limits:(Par.with_cancelled limits cancelled) sub tasks.(i) in
    let snap =
      match before with
      | Some b -> Obs.diff b (snapshot sub)
      | None -> snapshot sub
    in
    (res, snap)
  in
  let failed (res, _snap) =
    match res with
    | `Ctl p -> ( match p.pr_verdict with Verdict.Fail _ -> true | _ -> false)
    | `Lc p -> ( match p.pr_verdict with Verdict.Fail _ -> true | _ -> false)
  in
  let results, worker_samples =
    if jobs <= 1 then begin
      (* A single worker cannot overlap anything: run the tasks in order
         on the coordinator design itself — no pool, no export, no extra
         manager, so -j 1 is a true no-regression against {!run_pif}
         (fail-fast still stops at the first definitive failure; skipped
         tasks come back cancelled below).  Per-task snapshots are zero:
         the parent design's own snapshot already carries the work. *)
      let n = Array.length tasks in
      let results = Array.make n None in
      let t0 = Obs.Clock.now () in
      let ran = ref 0 in
      (try
         for i = 0 to n - 1 do
           let res = check_on ~limits d tasks.(i) in
           incr ran;
           results.(i) <- Some (res, zero_snap);
           if fail_fast && failed (res, zero_snap) then raise Exit
         done
       with Exit -> ());
      (results, [ { Obs.w_tasks = !ran; w_time = Obs.Clock.now () -. t0 } ])
    end
    else begin
      (* The reach fixpoint is per-design work every CTL task repeats:
         run it once here so the export ships the result.  A budget
         interrupt just leaves the cache unfilled — workers then compute
         reach themselves under their own budgets. *)
      if pif.Pif.p_ctl <> [] then ignore (reachable ~limits d);
      let sd = share_design d in
      let stop_when = if fail_fast then Some (fun _ r -> failed r) else None in
      let results, pstats =
        Par.run ~jobs ~limits ?stop_when ~tasks:(Array.length tasks)
          (run_task sd)
      in
      (results, Par.worker_samples pstats)
    end
  in
  (* A task skipped by cancellation still yields a property result — an
     Inconclusive(Cancelled) verdict, tallied on the parent design so the
     merged verdict counts cover every property. *)
  let skipped name =
    let pr_verdict = Verdict.inconclusive Limits.Cancelled in
    tally d pr_verdict;
    { pr_name = name; pr_verdict; pr_time = 0.0; pr_early_step = None }
  in
  let ctl = ref [] and lc = ref [] and snaps = ref [] in
  Array.iteri
    (fun i task ->
      match (task, results.(i)) with
      | `Ctl (name, _), None -> ctl := skipped name :: !ctl
      | `Lc aut, None -> lc := skipped aut.Autom.a_name :: !lc
      | _, Some (`Ctl p, snap) ->
          ctl := p :: !ctl;
          snaps := snap :: !snaps
      | _, Some (`Lc p, snap) ->
          lc := p :: !lc;
          snaps := snap :: !snaps)
    tasks;
  let ctl = List.rev !ctl and lc = List.rev !lc in
  let merged = Obs.merge (snapshot d :: List.rev !snaps) in
  let merged = { merged with Obs.workers = worker_samples } in
  ( {
      design_name = d.flat.Ast.m_name;
      ctl;
      lc;
      mc_time = List.fold_left (fun acc r -> acc +. r.pr_time) 0.0 ctl;
      lc_time = List.fold_left (fun acc r -> acc +. r.pr_time) 0.0 lc;
    },
    merged )

(* CLI protocol over a whole report: any definitive failure wins (3), else
   any inconclusive result (4), else pass (0). *)
let report_exit_code r =
  let fold worst results =
    List.fold_left
      (fun acc p ->
        match p.pr_verdict with
        | Verdict.Fail _ -> 3
        | Verdict.Inconclusive _ -> if acc = 3 then acc else 4
        | Verdict.Pass -> acc)
      worst results
  in
  fold (fold 0 r.ctl) r.lc

let simulator d = Hsis_sim.Simulator.create d.net

let bisimulation ?class_cap d =
  Hsis_bisim.Bisim.compute ?class_cap ~limits:d.limits d.trans
    ~reach:(reachable d).Reach.reachable

let minimize d =
  Hsis_bisim.Dontcare.with_reachable d.trans
    ~reach:(reachable d).Reach.reachable

let verdict_cell v =
  match v with
  | Verdict.Pass -> "passed"
  | Verdict.Fail _ -> "FAILED"
  | Verdict.Inconclusive { Verdict.reason; _ } ->
      Printf.sprintf "inconclusive(%s)" (Limits.reason_name reason)

let pp_report fmt r =
  Format.fprintf fmt "design %s:@." r.design_name;
  let line kind p =
    Format.fprintf fmt "  %s %-24s %-22s %6.3fs%s@." kind p.pr_name
      (verdict_cell p.pr_verdict) p.pr_time
      (match p.pr_early_step with
      | Some k -> Printf.sprintf " (early failure at step %d)" k
      | None -> "")
  in
  List.iter (line "ctl") r.ctl;
  List.iter (line "lc ") r.lc

let property_to_json (p : 'ev property_result) =
  let verdict_members =
    match Verdict.to_json p.pr_verdict with
    | Obs.Json.Obj ms -> ms
    | j -> [ ("verdict", j) ]
  in
  Obs.Json.Obj
    (("name", Obs.Json.Str p.pr_name)
     :: verdict_members
    @ [ ("time_s", Obs.Json.Float p.pr_time) ]
    @
    match p.pr_early_step with
    | Some k -> [ ("early_step", Obs.Json.Int k) ]
    | None -> [])

let report_to_json r =
  Obs.Json.Obj
    [
      ("design", Obs.Json.Str r.design_name);
      ("ctl", Obs.Json.List (List.map property_to_json r.ctl));
      ("lc", Obs.Json.List (List.map property_to_json r.lc));
      ("mc_s", Obs.Json.Float r.mc_time);
      ("lc_s", Obs.Json.Float r.lc_time);
      ("exit_code", Obs.Json.Int (report_exit_code r));
    ]

(* ------------------------------------------------------------------ *)
(* Sessions: the explicit unit of design state.  A session pins one read
   design (flattened network, symbol table, relation BDDs, variable order,
   reach cache) under a content hash of its source, so callers that used
   to mutate per-call globals instead open a session, run property checks
   against it — possibly many, with per-run budgets — and close it.  The
   serve daemon's warm cache is a map from [hash] to open sessions; the
   batch CLI is the degenerate open-run-close case. *)

module Session = struct
  type source = Verilog of string | Blifmv of string | Flat of Ast.model

  (* Content hash of the design source (stable across processes): the key
     of the serve-mode session cache.  The source kind is folded in so a
     Verilog text and a BLIF-MV text that happen to be equal do not
     collide. *)
  let hash source =
    let tag, text =
      match source with
      | Verilog s -> ("verilog", s)
      | Blifmv s -> ("blifmv", s)
      | Flat m -> ("flat", Printer.model_to_string m)
    in
    Digest.to_hex (Digest.string (tag ^ "\x00" ^ text))

  type t = {
    s_id : string;
    s_heuristic : Trans.heuristic;
    s_design : design;
    mutable s_hits : int;
    mutable s_closed : bool;
  }

  let open_ ?(heuristic = Trans.Min_width) ?(tr = Trans.Partitioned)
      source =
    let design =
      match source with
      | Verilog s -> read_verilog ~heuristic ~strategy:tr s
      | Blifmv s -> read_blifmv ~heuristic ~strategy:tr s
      | Flat m -> read_flat ~heuristic ~strategy:tr m
    in
    { s_id = hash source; s_heuristic = heuristic; s_design = design;
      s_hits = 0; s_closed = false }

  let id s = s.s_id
  let design s = s.s_design
  let heuristic s = s.s_heuristic
  let tr s = Trans.strategy s.s_design.trans
  let hits s = s.s_hits
  let touch s = s.s_hits <- s.s_hits + 1
  let closed s = s.s_closed

  let live_nodes s =
    (Bdd.stats (Trans.man s.s_design.trans)).Obs.arena.Obs.Arena.live

  let snapshot_bytes s =
    match s.s_design.shared_cache with
    | Some { sc_payload; _ } -> Bdd.snapshot_bytes sc_payload.sd_snapshot
    | None -> 0

  let close s =
    s.s_closed <- true;
    s.s_design.reach_cache <- None;
    s.s_design.shared_cache <- None

  let run ?(early_failure = true) ?(witnesses = false) ?(fail_fast = false)
      ?(jobs = 1) ?limits ?tr s pif =
    if s.s_closed then invalid_arg "Hsis.Session.run: session is closed";
    (* A per-run [tr] flips the evaluation path for the duration of the
       run, then restores the session's resident setting.  Construction
       sharing is fixed at open time; runs are serialized per session, so
       the flip cannot race another run. *)
    let resident = Trans.strategy s.s_design.trans in
    (match tr with
    | Some strat -> Trans.set_strategy s.s_design.trans strat
    | None -> ());
    Fun.protect
      ~finally:(fun () -> Trans.set_strategy s.s_design.trans resident)
      (fun () ->
        if jobs > 1 || fail_fast then
          let r, snap =
            run_pif_par ~early_failure ~witnesses ~fail_fast ?limits ~jobs
              s.s_design pif
          in
          (r, Some snap)
        else (run_pif ~early_failure ~witnesses ?limits s.s_design pif, None))
end
