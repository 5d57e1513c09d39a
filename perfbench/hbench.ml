(* Benchmark worker: runs one design per process and prints one JSON line.

   hbench verify --verilog F.v --pif F.pif [--setups K]
     The default user path of [hsis check] (Session.open_ / Session.run,
     sequential, --tr part, kernel_jobs 1, no reach profiling, no
     witnesses), untraced.  Reports the time from design source to every
     verdict, the per-property verdicts and times, the reached-state
     count and the manager's peak live nodes.
     Then each CTL property is re-checked alone on the warm session, as
     the serve daemon does for a cached design; each re-check's wall time
     is reported under "rechecks".
     [K] extra opens of the same source time the read alone (the set-up).

   hbench trace --verilog F.v --pif F.pif --pid N --trace-out T.json
     The same work split by layer, each call into a layer's public
     function wrapped in a span (kept in memory, written at the end as
     Chrome trace events to T.json).  Counters come from what the layers
     already expose: Bdd.stats, Trans.rel_profile, Reach.t.  Image and
     preimage times come from a replay of reachability with Trans.image /
     Trans.preimage on a second read of the design, asserted equal to
     Hsis.reachable's set with Bdd.equal.

   An exception ends the process with a nonzero exit code.  Verdicts are
   not judged here: run.py compares them with the hand-written
   expected answers. *)

open Hsis_obs
open Hsis_bdd
open Hsis_fsm
open Hsis_auto
open Hsis_check
open Hsis_core
open Hsis_limits
module J = Obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all
let now = Obs.Clock.now

let prop_json ~kind name verdict time =
  J.Obj
    [
      ("name", J.Str name);
      ("kind", J.Str kind);
      ("verdict", J.Str (Verdict.name verdict));
      ("time_s", J.Float time);
    ]

(* ------------------------------------------------------------------ *)
(* verify *)

let verify ~verilog ~pif_path ~setups =
  let src = read_file verilog in
  let pif = Pif.parse (read_file pif_path) in
  let open_ () =
    let s = Hsis.Session.open_ (Hsis.Session.Verilog src) in
    Hsis.set_reach_profile (Hsis.Session.design s) false;
    s
  in
  let t0 = now () in
  let session = open_ () in
  let t1 = now () in
  let report, _ = Hsis.Session.run ~early_failure:true ~witnesses:false session pif in
  let d = Hsis.Session.design session in
  let reached = Hsis.reached_states d in
  let t2 = now () in
  let peak_live = (Hsis.stats d).Obs.arena.Obs.Arena.peak_live in
  let rechecks =
    List.map
      (fun (name, f) ->
        let one =
          { Pif.empty with p_fairness = pif.Pif.p_fairness; p_ctl = [ (name, f) ] }
        in
        let r0 = now () in
        let r, _ =
          Hsis.Session.run ~early_failure:true ~witnesses:false session one
        in
        let dt = now () -. r0 in
        match r.Hsis.ctl with
        | [ p ] -> prop_json ~kind:"ctl" p.Hsis.pr_name p.Hsis.pr_verdict dt
        | _ -> failwith ("hbench: re-check of " ^ name ^ " did not give one verdict"))
      pif.Pif.p_ctl
  in
  Hsis.Session.close session;
  let extra =
    List.init setups (fun _ ->
        let s0 = now () in
        let s = open_ () in
        let dt = now () -. s0 in
        Hsis.Session.close s;
        dt)
  in
  let props =
    List.map
      (fun (r : Hsis.ctl_evidence Hsis.property_result) ->
        prop_json ~kind:"ctl" r.Hsis.pr_name r.Hsis.pr_verdict r.Hsis.pr_time)
      report.Hsis.ctl
    @ List.map
        (fun (r : Hsis.lc_evidence Hsis.property_result) ->
          prop_json ~kind:"lc" r.Hsis.pr_name r.Hsis.pr_verdict r.Hsis.pr_time)
        report.Hsis.lc
  in
  J.Obj
    [
      ("verify_s", J.Float (t2 -. t0));
      ("setup_s", J.List (List.map (fun x -> J.Float x) ((t1 -. t0) :: extra)));
      ("reached", J.Float reached);
      ("peak_live", J.Int peak_live);
      ("props", J.List props);
      ("rechecks", J.List rechecks);
    ]

(* ------------------------------------------------------------------ *)
(* trace *)

type span = { s_name : string; s_cat : string; s_ts : float; s_dur : float }

let spans = ref []

let span cat name f =
  let t0 = now () in
  let r = f () in
  let dur = now () -. t0 in
  spans := { s_name = name; s_cat = cat; s_ts = t0; s_dur = dur } :: !spans;
  (r, dur)

let write_trace ~pid ~label path =
  let us x = J.Float (Float.round (x *. 1e6)) in
  let ev s =
    J.Obj
      [
        ("name", J.Str s.s_name);
        ("cat", J.Str s.s_cat);
        ("ph", J.Str "X");
        ("ts", us s.s_ts);
        ("dur", us s.s_dur);
        ("pid", J.Int pid);
        ("tid", J.Int 1);
      ]
  in
  let meta =
    J.Obj
      [
        ("name", J.Str "process_name");
        ("ph", J.Str "M");
        ("pid", J.Int pid);
        ("args", J.Obj [ ("name", J.Str label) ]);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (J.to_string (J.List (meta :: List.rev_map ev !spans))))

(* Computed-cache and arena counters of one manager. *)
let man_json (st : Obs.man_stats) =
  let c = st.Obs.cache in
  J.Obj
    [
      ( "ops",
        J.Obj
          (List.map
             (fun (o : Obs.Cache.op) ->
               ( o.Obs.Cache.name,
                 J.Obj
                   [
                     ("hits", J.Int o.Obs.Cache.hits);
                     ("misses", J.Int o.Obs.Cache.misses);
                   ] ))
             c.Obs.Cache.ops) );
      ("evictions", J.Int c.Obs.Cache.evictions);
      ("peak_live", J.Int st.Obs.arena.Obs.Arena.peak_live);
      ("gc_runs", J.Int st.Obs.gc.Obs.Gc.runs);
      ("gc_s", J.Float st.Obs.gc.Obs.Gc.time);
      ("reorder_runs", J.Int st.Obs.reorder.Obs.Reorder.runs);
    ]

(* Breadth-first reachability replayed with the public image operator,
   mirroring Reach.compute's frontier loop: image of the frontier, minus
   the reached set.  Returns the reached set, the onion rings and the
   number of image calls. *)
let replay_reach trans =
  let init = Trans.initial trans in
  let rec go reached frontier rings steps =
    if Bdd.is_false frontier then (reached, List.rev rings, steps)
    else
      let next, _ =
        span "fsm" "fsm.image" (fun () -> Trans.image trans frontier)
      in
      let fresh = Bdd.dand next (Bdd.dnot reached) in
      let rings = if Bdd.is_false fresh then rings else fresh :: rings in
      go (Bdd.dor reached fresh) fresh rings (steps + 1)
  in
  go init init [ init ] 0

let trace ~verilog ~pif_path ~pid ~trace_out =
  let label = Filename.remove_extension (Filename.basename verilog) in
  let src = read_file verilog in
  let pif = Pif.parse (read_file pif_path) in
  let fairness = pif.Pif.p_fairness in
  let t_start = now () in
  let ast, compile_s =
    span "verilog" "verilog.compile" (fun () -> Hsis_verilog.Elab.compile src)
  in
  let (flat, prov), flatten_s =
    span "blifmv" "blifmv.flatten" (fun () ->
        Hsis_blifmv.Flatten.flatten_prov ast)
  in
  let read () =
    let d =
      Hsis.read_flat ~prov ~verilog_lines:(Hsis_blifmv.Ast.line_count src) flat
    in
    Hsis.set_reach_profile d false;
    d
  in
  let d, relation_s = span "fsm" "fsm.relation" read in
  let reach, reach_s = span "check" "check.reach" (fun () -> Hsis.reachable d) in
  let mc_s = ref 0.0 and lc_s = ref 0.0 in
  let ctl =
    List.map
      (fun (name, f) ->
        let r, dt =
          span "check" ("check.mc " ^ name) (fun () ->
              Hsis.check_ctl ~fairness ~early_failure:true d ~name f)
        in
        mc_s := !mc_s +. dt;
        prop_json ~kind:"ctl" name r.Hsis.pr_verdict r.Hsis.pr_time)
      pif.Pif.p_ctl
  in
  let lc_managers = ref [] in
  let lc =
    List.map
      (fun name ->
        let aut = Option.get (Pif.find_automaton pif name) in
        let o, dt =
          span "check" ("check.lc " ^ name) (fun () ->
              Lc.check ~fairness ~early_failure:true flat aut)
        in
        lc_s := !lc_s +. dt;
        Option.iter
          (fun p -> lc_managers := Bdd.stats (Trans.man p.Lc.trans) :: !lc_managers)
          o.Lc.product;
        prop_json ~kind:"lc" name o.Lc.verdict dt)
      pif.Pif.p_lc
  in
  let t_end = now () in
  let reached = Reach.count_states d.Hsis.trans reach.Reach.reachable in
  let design_stats = Hsis.stats d in
  let rel = Trans.rel_profile d.Hsis.trans in
  (* Replay on a second read, so the replayed image calls neither warm nor
     count in the first manager's computed cache. *)
  let d2 = read () in
  let tr2 = d2.Hsis.trans in
  let replayed, rings, image_steps = replay_reach tr2 in
  let image_s =
    List.fold_left
      (fun a s -> if s.s_name = "fsm.image" then a +. s.s_dur else a)
      0.0 !spans
  in
  let (), preimage_s =
    span "fsm" "fsm.preimage" (fun () ->
        List.iter
          (fun r ->
            ignore (span "fsm" "fsm.preimage.ring" (fun () -> Trans.preimage tr2 r)))
          (List.rev rings))
  in
  let reach2 = Hsis.reachable d2 in
  if not (Bdd.equal replayed reach2.Reach.reachable) then
    failwith "replayed reachable set differs from Hsis.reachable";
  if image_steps <> reach.Reach.steps then
    failwith
      (Printf.sprintf "replay took %d image steps, Hsis.reachable %d" image_steps
         reach.Reach.steps);
  write_trace ~pid ~label trace_out;
  J.Obj
    [
      ("verify_s", J.Float (t_end -. t_start));
      ("compile_s", J.Float compile_s);
      ("blifmv_lines", J.Int d.Hsis.blifmv_lines);
      ("flatten_s", J.Float flatten_s);
      ("tables", J.Int (List.length flat.Hsis_blifmv.Ast.m_tables));
      ("relation_s", J.Float relation_s);
      ("relation_nodes", J.Int rel.Obs.rel_nodes);
      ("parts", J.Int rel.Obs.rel_parts);
      ("reach_s", J.Float reach_s);
      ("reach_steps", J.Int reach.Reach.steps);
      ("mc_s", J.Float !mc_s);
      ("lc_s", J.Float !lc_s);
      ("image_s", J.Float image_s);
      ("image_steps", J.Int image_steps);
      ("preimage_s", J.Float preimage_s);
      ("reached", J.Float reached);
      ("design_man", man_json design_stats);
      ("lc_mans", J.List (List.map man_json !lc_managers));
      ("props", J.List (ctl @ lc));
    ]

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  let mode, kvs =
    match args with
    | m :: rest -> (m, opts [] rest)
    | [] -> failwith "usage: hbench (verify|trace|version) [--key value]..."
  in
  let get k =
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> failwith ("missing --" ^ k)
  in
  let result =
    match mode with
    | "version" -> J.Obj [ ("ocaml", J.Str Sys.ocaml_version) ]
    | "verify" ->
        verify ~verilog:(get "verilog") ~pif_path:(get "pif")
          ~setups:
            (Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "setups" kvs))
    | "trace" ->
        trace ~verilog:(get "verilog") ~pif_path:(get "pif")
          ~pid:(int_of_string (get "pid")) ~trace_out:(get "trace-out")
    | m -> failwith ("unknown mode " ^ m)
  in
  print_endline (J.to_string result)
