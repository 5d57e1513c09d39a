(* The hsis command-line tool: read a design (Verilog or BLIF-MV), check
   PIF properties, print bug reports with error traces, simulate, and
   report statistics — the environment of the paper's Fig. 1. *)

open Hsis_obs
open Hsis_limits
open Hsis_core

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let heuristic_of_name = function
  | "min-width" -> Hsis_fsm.Trans.Min_width
  | "pairs" -> Hsis_fsm.Trans.Pair_clustering
  | "naive" -> Hsis_fsm.Trans.Naive
  | h -> failwith ("unknown heuristic " ^ h)

let tr_of_name name =
  match Hsis_fsm.Trans.strategy_of_name name with
  | Some s -> s
  | None -> failwith ("unknown TR strategy " ^ name ^ " (mono, part, iso)")

(* Every batch command runs through the Session API the serve daemon uses:
   open a session pinning the design's artifacts, run against it, close.
   Builtins additionally carry their bundled PIF property set. *)
let open_session ?(tr = "part") verilog blifmv builtin heuristic =
  let heuristic = heuristic_of_name heuristic in
  let tr = tr_of_name tr in
  match (verilog, blifmv, builtin) with
  | Some path, None, None ->
      ( Hsis.Session.open_ ~heuristic ~tr
          (Hsis.Session.Verilog (read_file path)),
        None )
  | None, Some path, None ->
      ( Hsis.Session.open_ ~heuristic ~tr
          (Hsis.Session.Blifmv (read_file path)),
        None )
  | None, None, Some name -> (
      match Hsis_models.Models.by_name name with
      | Some m ->
          ( Hsis.Session.open_ ~heuristic ~tr
              (Hsis.Session.Verilog m.Hsis_models.Model.verilog),
            Some (Hsis_models.Model.parse_pif m) )
      | None -> failwith ("unknown builtin design " ^ name))
  | _ -> failwith "give exactly one of --verilog, --blifmv, --builtin"

let wrap f =
  try f () with Failure m | Invalid_argument m | Sys_error m ->
    Printf.eprintf "hsis: %s\n" m;
    1

(* The shared --timeout/--max-nodes/--max-steps resource-budget flags,
   parsed once for every subcommand (check/reach/refine/fuzz/serve).
   [arm] fixes the absolute deadline at that call, covering every engine
   run of the command; serve instead keeps the raw spec and arms it per
   job ([to_proto]). *)
type budget_flags = {
  b_timeout : float option;
  b_max_nodes : int option;
  b_max_steps : int option;
}

let budget_is_none b =
  b.b_timeout = None && b.b_max_nodes = None && b.b_max_steps = None

let arm_budget b =
  if budget_is_none b then Limits.none
  else
    Limits.make ?timeout:b.b_timeout ?max_nodes:b.b_max_nodes
      ?max_steps:b.b_max_steps ()

let proto_budget b =
  {
    Hsis_serve.Proto.timeout_s = b.b_timeout;
    max_nodes = b.b_max_nodes;
    max_steps = b.b_max_steps;
  }

(* The shared --stats/--stats-json flags (check/reach/stats/fuzz/serve). *)
type stats_flags = { show_stats : bool; stats_json : string option }

let want_stats sf = sf.show_stats || sf.stats_json <> None

let write_json_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* Render an observability snapshot per the --stats/--stats-json flags.
   Takes the snapshot rather than the design so parallel runs can pass the
   pool-merged document. *)
let emit_stats snap sf =
  if want_stats sf then begin
    if sf.show_stats then Format.printf "@.%a" Obs.pp snap;
    match sf.stats_json with
    | Some path -> write_json_file path (Obs.json_string snap)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)

let check_cmd verilog blifmv builtin pif_path heuristic tr no_early witness
    jobs fail_fast simplify budget sf () =
  wrap (fun () ->
      let session, builtin_pif =
        open_session ~tr verilog blifmv builtin heuristic
      in
      let design = Hsis.Session.design session in
      Hsis.set_reach_profile design (want_stats sf);
      Hsis.set_reach_simplify design simplify;
      let pif =
        match (pif_path, builtin_pif) with
        | Some p, _ -> Hsis_auto.Pif.parse_file p
        | None, Some p -> p
        | None, None -> failwith "no properties: give --pif"
      in
      (* fail-fast rides on the pool's cancellation protocol, so a
         sequential --fail-fast run is just a one-worker pool *)
      let report, merged_snap =
        Hsis.Session.run ~early_failure:(not no_early) ~witnesses:witness
          ~fail_fast ~jobs ~limits:(arm_budget budget) session
          pif
      in
      Format.printf "%a" Hsis.pp_report report;
      if witness then begin
        List.iter
          (fun (l : Hsis.lc_evidence Hsis.property_result) ->
            match l.Hsis.pr_verdict with
            | Verdict.Fail { Hsis.le_trace = Some t; le_trans } ->
                Format.printf "@.error trace for %s:@.%a" l.Hsis.pr_name
                  (Hsis_debug.Trace.pp le_trans) t
            | _ -> ())
          report.Hsis.lc;
        List.iter
          (fun (c : Hsis.ctl_evidence Hsis.property_result) ->
            match c.Hsis.pr_verdict with
            | Verdict.Fail { Hsis.ce_explanation = Some e } ->
                Format.printf "@.debug tree for %s:@.%a" c.Hsis.pr_name
                  (Hsis_debug.Mcdbg.pp design.Hsis.trans)
                  e
            | _ -> ())
          report.Hsis.ctl
      end;
      (let snap =
         match merged_snap with
         | Some s -> s
         | None -> Hsis.snapshot design
       in
       emit_stats snap sf);
      Hsis.Session.close session;
      Hsis.report_exit_code report)

let reach_cmd verilog blifmv builtin heuristic tr simplify budget sf () =
  wrap (fun () ->
      let session, _ = open_session ~tr verilog blifmv builtin heuristic in
      let design = Hsis.Session.design session in
      Hsis.set_reach_profile design (want_stats sf);
      Hsis.set_reach_simplify design simplify;
      let r = Hsis.reachable ~limits:(arm_budget budget) design in
      Format.printf "design        : %s@." design.Hsis.flat.Hsis_blifmv.Ast.m_name;
      Format.printf "read time     : %.3fs@." design.Hsis.read_time;
      Format.printf "blif-mv lines : %d@." design.Hsis.blifmv_lines;
      (match r.Hsis_check.Reach.verdict with
      | Verdict.Inconclusive { Verdict.reason; _ } ->
          Format.printf "exploration   : interrupted (%s) after %d steps@."
            (Limits.reason_name reason) r.Hsis_check.Reach.steps
      | _ -> ());
      Format.printf "reached states: %.0f@."
        (Hsis_check.Reach.count_states design.Hsis.trans
           r.Hsis_check.Reach.reachable);
      Format.printf "bfs depth     : %d@." r.Hsis_check.Reach.steps;
      let st = Hsis.stats design in
      Format.printf "bdd nodes     : %d (%d vars)@." st.Obs.arena.Obs.Arena.live
        st.Obs.arena.Obs.Arena.vars;
      emit_stats (Hsis.snapshot design) sf;
      Hsis.Session.close session;
      Verdict.exit_code r.Hsis_check.Reach.verdict)

let sim_cmd verilog blifmv builtin heuristic steps seed () =
  wrap (fun () ->
      let session, _ = open_session verilog blifmv builtin heuristic in
      let design = Hsis.Session.design session in
      let sim = Hsis.simulator design in
      let net = Hsis_sim.Simulator.net sim in
      let state = ref seed in
      let rand n =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state / 7 mod n
      in
      Format.printf "   0: %a@." (Hsis_sim.Simulator.pp_state net)
        (Hsis_sim.Simulator.state sim);
      (try
         for i = 1 to steps do
           let opts = Hsis_sim.Simulator.options sim in
           if opts = [] then begin
             Format.printf "deadlock after %d steps@." (i - 1);
             raise Exit
           end;
           Hsis_sim.Simulator.step sim (rand (List.length opts));
           Format.printf "%4d: %a@." i (Hsis_sim.Simulator.pp_state net)
             (Hsis_sim.Simulator.state sim)
         done
       with Exit -> ());
      0)

let refine_cmd impl_path spec_path obs budget () =
  wrap (fun () ->
      let net_of path =
        let src = read_file path in
        let ast =
          if Filename.check_suffix path ".v" then Hsis_verilog.Elab.compile src
          else Hsis_blifmv.Parser.parse src
        in
        Hsis_blifmv.Net.of_ast ast
      in
      let impl = net_of impl_path in
      let spec = net_of spec_path in
      let obs = match obs with [] -> None | o -> Some o in
      let limits = arm_budget budget in
      let r = Hsis_bisim.Simrel.refines ?obs ~limits ~impl ~spec () in
      (match r.Hsis_bisim.Simrel.verdict with
      | Verdict.Pass ->
          Format.printf "refinement holds (%d iterations)@."
            r.Hsis_bisim.Simrel.iterations
      | Verdict.Fail _ ->
          Format.printf "refinement FAILS (%d iterations)@."
            r.Hsis_bisim.Simrel.iterations
      | Verdict.Inconclusive { Verdict.reason; _ } ->
          Format.printf "refinement inconclusive (%s) after %d iterations@."
            (Limits.reason_name reason) r.Hsis_bisim.Simrel.iterations);
      Verdict.exit_code r.Hsis_bisim.Simrel.verdict)

let fuzz_cmd iters seed limit ctl_per_iter no_lc no_shrink budget_mode out
    json jobs quiet bflags stats_json () =
  wrap (fun () ->
      let open Hsis_gen in
      let cfg =
        {
          Diff.default_config with
          Diff.iters;
          seed;
          state_limit = limit;
          ctl_per_iter;
          lc = not no_lc;
          shrink = not no_shrink;
          jobs;
          budget =
            (* The shared budget flags define the per-problem budget of
               the budgeted differential rerun; --budget alone uses a tiny
               deterministic default.  Prefer --max-steps/--max-nodes: a
               wall-clock deadline makes fuzz runs irreproducible. *)
            (if not (budget_is_none bflags) then Some (arm_budget bflags)
             else if budget_mode then
               Some (Limits.make ~max_steps:2 ~max_nodes:2000 ())
             else None);
          out_dir = out;
          log =
            (if quiet then None
             else Some (fun s -> Printf.eprintf "hsis fuzz: %s\n%!" s));
        }
      in
      let report = Diff.run cfg in
      Format.printf "%a" Diff.pp_report report;
      let report_json =
        lazy (Obs.Json.to_string (Diff.report_to_json report))
      in
      List.iter
        (function
          | Some path -> write_json_file path (Lazy.force report_json)
          | None -> ())
        [ json; stats_json ];
      if report.Diff.discrepancies = [] then 0 else 3)

let stats_cmd verilog blifmv builtin heuristic stats_json () =
  wrap (fun () ->
      let session, _ = open_session verilog blifmv builtin heuristic in
      let design = Hsis.Session.design session in
      ignore (Hsis.reachable design);
      Format.printf "%a" Obs.pp (Hsis.snapshot design);
      emit_stats (Hsis.snapshot design)
        { show_stats = false; stats_json };
      let report = Hsis.minimize design in
      Format.printf "don't-care minimization: %d -> %d part nodes@."
        report.Hsis_bisim.Dontcare.before report.Hsis_bisim.Dontcare.after;
      Hsis.Session.close session;
      0)

(* ------------------------------------------------------------------ *)

let serve_cmd socket cache_entries cache_nodes heuristic tr jobs budget sf () =
  wrap (fun () ->
      let open Hsis_serve in
      let config =
        {
          Server.cache_entries;
          cache_nodes;
          default_budget = proto_budget budget;
          default_jobs = jobs;
          heuristic = heuristic_of_name heuristic;
          tr = tr_of_name tr;
        }
      in
      let server = Server.create ~config () in
      (match socket with
      | Some path -> Server.listen server ~socket_path:path
      | None -> Server.run_channels server stdin stdout);
      (let stats = Obs.Json.to_string (Server.stats_json server) in
       if sf.show_stats then print_endline stats;
       match sf.stats_json with
       | Some path -> write_json_file path stats
       | None -> ());
      0)

(* ------------------------------------------------------------------ *)

open Cmdliner

let verilog_arg =
  Arg.(value & opt (some file) None & info [ "v"; "verilog" ] ~docv:"FILE.v")

let blifmv_arg =
  Arg.(value & opt (some file) None & info [ "b"; "blifmv" ] ~docv:"FILE.mv")

let builtin_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:
          "Use a built-in Table-1 design: philos, pingpong, gigamax, \
           scheduler, dcnew, mdlc (also scheduler5/8/12).")

let pif_arg =
  Arg.(value & opt (some file) None & info [ "p"; "pif" ] ~docv:"FILE.pif")

let heuristic_arg =
  Arg.(
    value & opt string "min-width"
    & info [ "heuristic" ] ~docv:"H"
        ~doc:"Early-quantification heuristic: min-width, pairs, naive.")

let tr_arg =
  Arg.(
    value & opt string "part"
    & info [ "tr" ] ~docv:"STRAT"
        ~doc:
          "Transition-relation strategy: $(b,mono) (one product BDD), \
           $(b,part) (conjunctive partition with early quantification, the \
           default), $(b,iso) (partitioned, with component BDDs built once \
           per isomorphic subckt/module instance group and materialized by \
           variable permutation).  Verdicts are identical across \
           strategies; peak node counts and times differ.")

let no_early_arg =
  Arg.(value & flag & info [ "no-early" ] ~doc:"Disable early failure detection.")

let witness_arg =
  Arg.(value & flag & info [ "witness" ] ~doc:"Print error traces / debug trees.")

let steps_arg = Arg.(value & opt int 20 & info [ "n"; "steps" ])
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ])

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the observability snapshot: per-operation cache hit rates, \
           GC/reorder pauses, arena occupancy, phase timings, and the \
           reachability fixpoint profile.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:"Write the observability snapshot as JSON to $(docv).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for all engine work.  An interrupted run \
           reports inconclusive verdicts and exits 4.")

let max_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Live BDD node budget (inconclusive + exit 4 when exceeded).")

let max_steps_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-steps" ] ~docv:"N"
        ~doc:
          "Fixpoint iteration budget (inconclusive + exit 4 when \
           exceeded).")

(* Worker counts come from outside input, so they are bounded here: a
   count the runtime cannot spawn is a usage error, not a crash. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= Hsis_par.Par.max_jobs -> Ok n
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "expected an integer between 1 and %d, got %S"
               Hsis_par.Par.max_jobs s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains.  With $(docv) > 1 the work (one property per \
           task for $(b,check), one iteration per task for $(b,fuzz)) is \
           spread over a domain pool.  $(b,check) builds the design once \
           and ships its BDDs to the workers as a snapshot (fuzz tasks \
           stay share-nothing — every seed is a different design); \
           results are collected in task order, so verdicts and findings \
           match a sequential run.")

let fail_fast_arg =
  Arg.(
    value & flag
    & info [ "fail-fast" ]
        ~doc:
          "Stop at the first definitive property failure: remaining \
           properties are cancelled and reported inconclusive.  The exit \
           code is still 3.")

let simplify_arg =
  Arg.(
    value & flag
    & info [ "simplify" ]
        ~doc:
          "Restrict-simplify each reachability frontier against the \
           already-reached interior before the image call.  Results are \
           unchanged; the image inputs may shrink (saved nodes appear in \
           the $(b,--stats) reach profile).")

(* The one budget parser and the one stats parser, shared by every
   subcommand that takes them (check/reach/refine/fuzz/serve), so flag
   names, docs and semantics cannot drift apart per command. *)
let budget_term =
  let make t n s = { b_timeout = t; b_max_nodes = n; b_max_steps = s } in
  Term.(const make $ timeout_arg $ max_nodes_arg $ max_steps_arg)

let stats_term =
  let make s j = { show_stats = s; stats_json = j } in
  Term.(const make $ stats_arg $ stats_json_arg)

let check =
  Cmd.v
    (Cmd.info "check" ~doc:"check CTL and language-containment properties"
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 if every property passes, 3 on a definitive failure, 4 \
               when a resource budget left some verdict inconclusive.";
         ])
    Term.(
      const (fun a b c d e f g h i j k l m ->
          check_cmd a b c d e f g h i j k l m ())
      $ verilog_arg $ blifmv_arg $ builtin_arg $ pif_arg $ heuristic_arg
      $ tr_arg $ no_early_arg $ witness_arg $ jobs_arg $ fail_fast_arg
      $ simplify_arg $ budget_term $ stats_term)

let reach =
  Cmd.v
    (Cmd.info "reach" ~doc:"compute the reachable state set")
    Term.(
      const (fun a b c d e f g h -> reach_cmd a b c d e f g h ())
      $ verilog_arg $ blifmv_arg $ builtin_arg $ heuristic_arg $ tr_arg
      $ simplify_arg $ budget_term $ stats_term)

let sim =
  Cmd.v
    (Cmd.info "sim" ~doc:"random-walk the state-based simulator")
    Term.(
      const (fun a b c d e f -> sim_cmd a b c d e f ())
      $ verilog_arg $ blifmv_arg $ builtin_arg $ heuristic_arg $ steps_arg
      $ seed_arg)

let stats =
  Cmd.v
    (Cmd.info "stats" ~doc:"BDD statistics and minimization report")
    Term.(
      const (fun a b c d e -> stats_cmd a b c d e ())
      $ verilog_arg $ blifmv_arg $ builtin_arg $ heuristic_arg
      $ stats_json_arg)

let refine =
  let impl_arg =
    Arg.(required & opt (some file) None & info [ "impl" ] ~docv:"IMPL")
  in
  let spec_arg =
    Arg.(required & opt (some file) None & info [ "spec" ] ~docv:"SPEC")
  in
  let obs_arg =
    Arg.(value & opt_all string [] & info [ "obs" ] ~docv:"SIGNAL")
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"check that IMPL refines SPEC over the observed signals")
    Term.(
      const (fun a b c d -> refine_cmd a b c d ())
      $ impl_arg $ spec_arg $ obs_arg $ budget_term)

let fuzz =
  let iters_arg =
    Arg.(
      value & opt int 100
      & info [ "n"; "iters" ] ~docv:"N" ~doc:"Differential iterations to run.")
  in
  let fseed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Master seed; every run is reproducible from it.")
  in
  let limit_arg =
    Arg.(
      value & opt int 20_000
      & info [ "limit" ] ~docv:"STATES"
          ~doc:
            "Explicit-engine state budget; larger systems are skipped, not \
             failed.")
  in
  let ctl_arg =
    Arg.(
      value & opt int 3
      & info [ "ctl-per-iter" ] ~docv:"K"
          ~doc:"CTL formulas cross-checked per generated network.")
  in
  let no_lc_arg =
    Arg.(
      value & flag
      & info [ "no-lc" ] ~doc:"Skip the language-containment cross-check.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failing inputs without minimizing.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR"
          ~doc:"Write shrunk $(b,.mv) repro files (plus detail sidecars) here.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the hsis-fuzz/1 report as JSON to $(docv).")
  in
  let budget_arg =
    Arg.(
      value & flag
      & info [ "budget" ]
          ~doc:
            "Also rerun every check under a tiny deterministic resource \
             budget and fail if a budgeted conclusive verdict contradicts \
             the unbounded one.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress on stderr.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "differential fuzzing: random BLIF-MV designs checked by the \
          symbolic engines against the explicit-state oracle")
    Term.(
      const (fun a b c d e f g h i j k l m ->
          fuzz_cmd a b c d e f g h i j k l m ())
      $ iters_arg $ fseed_arg $ limit_arg $ ctl_arg $ no_lc_arg
      $ no_shrink_arg $ budget_arg $ out_arg $ json_arg $ jobs_arg
      $ quiet_arg $ budget_term $ stats_json_arg)

let serve =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout.")
  in
  let cache_entries_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Session-cache entry budget (LRU eviction beyond it).")
  in
  let cache_nodes_arg =
    Arg.(
      value & opt int 2_000_000
      & info [ "cache-nodes" ] ~docv:"NODES"
          ~doc:"Session-cache total live-BDD-node budget.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "long-running verification daemon: line-delimited JSON jobs over \
          stdin/stdout or a Unix socket, with a warm session cache")
    Term.(
      const (fun a b c d e f g h -> serve_cmd a b c d e f g h ())
      $ socket_arg $ cache_entries_arg $ cache_nodes_arg $ heuristic_arg
      $ tr_arg $ jobs_arg $ budget_term $ stats_term)

let () =
  let doc = "HSIS: a BDD-based environment for formal verification" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "hsis" ~doc)
          [ check; reach; sim; stats; refine; fuzz; serve ]))
