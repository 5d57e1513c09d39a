open Hsis_obs
open Hsis_limits
open Hsis_core
open Hsis_fsm
open Hsis_models

type config = {
  cache_entries : int;
  cache_nodes : int;
  default_budget : Proto.budget;
  default_jobs : int;
  heuristic : Trans.heuristic;
  tr : Trans.strategy;
}

let default_config =
  {
    cache_entries = 8;
    cache_nodes = 2_000_000;
    default_budget = Proto.no_budget;
    default_jobs = 1;
    heuristic = Trans.Min_width;
    tr = Trans.Partitioned;
  }

type t = {
  config : config;
  scache : Scache.t;
  lock : Mutex.t;
  started : float;
  mutable served : int;
  mutable errors : int;
  mutable stop : bool;
  mutable listener : Unix.file_descr option;
}

let create ?(config = default_config) () =
  {
    config;
    scache =
      Scache.create ~max_entries:config.cache_entries
        ~max_live_nodes:config.cache_nodes ();
    lock = Mutex.create ();
    started = Obs.Clock.now ();
    served = 0;
    errors = 0;
    stop = false;
    listener = None;
  }

let cache t = t.scache
let jobs_served t = t.served
let stopping t = t.stop

let stats_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str Proto.schema_version);
      ("uptime_s", Obs.Json.Float (Obs.Clock.now () -. t.started));
      ("jobs_served", Obs.Json.Int t.served);
      ("errors", Obs.Json.Int t.errors);
      ("cache", Scache.to_json t.scache);
    ]

(* A builtin design resolves to its Verilog source — so a ["builtin"]
   request and a ["verilog"] request carrying the same text share one
   cached session — plus its bundled PIF property set as the default. *)
let resolve_design = function
  | Proto.Verilog s -> (Hsis.Session.Verilog s, None)
  | Proto.Blifmv s -> (Hsis.Session.Blifmv s, None)
  | Proto.Builtin name -> (
      match Models.by_name name with
      | Some m -> (Hsis.Session.Verilog m.Model.verilog, Some m.Model.pif)
      | None ->
          raise (Proto.Bad_request ("unknown builtin design \"" ^ name ^ "\"")))

let required_design req =
  match req.Proto.r_design with
  | Some d -> resolve_design d
  | None ->
      raise
        (Proto.Bad_request
           (Printf.sprintf "op %S needs a \"design\""
              (Proto.op_name req.Proto.r_op)))

let job_budget t req =
  if Proto.budget_is_none req.Proto.r_budget then t.config.default_budget
  else req.Proto.r_budget

let job_jobs t req =
  Option.value req.Proto.r_jobs ~default:t.config.default_jobs

let cache_member t interaction =
  let s = Scache.stats t.scache in
  Obs.Json.Obj
    (List.concat
       [
         (match interaction with
         | Some (hit, session) ->
             [
               ("hit", Obs.Json.Bool hit);
               ("session", Obs.Json.Str (Hsis.Session.id session));
               ("session_hits", Obs.Json.Int (Hsis.Session.hits session));
             ]
         | None -> []);
         [
           ("entries", Obs.Json.Int s.Scache.entries);
           ("live_nodes", Obs.Json.Int s.Scache.live_nodes);
           ("snapshot_bytes", Obs.Json.Int s.Scache.snapshot_bytes);
           ("hits", Obs.Json.Int s.Scache.hits);
           ("misses", Obs.Json.Int s.Scache.misses);
           ("evictions", Obs.Json.Int s.Scache.evictions);
         ];
       ])

(* Op handlers: each returns (result, exit_code, obs, cache interaction). *)

let do_check t req =
  let source, builtin_pif = required_design req in
  let pif_text =
    match (req.Proto.r_pif, builtin_pif) with
    | Some p, _ -> p
    | None, Some p -> p
    | None, None ->
        raise (Proto.Bad_request "op \"check\" needs a \"pif\" property set")
  in
  let pif = Hsis_auto.Pif.parse pif_text in
  let session, hit =
    Scache.find_or_open t.scache ~heuristic:t.config.heuristic
      ~tr:t.config.tr source
  in
  let limits = Proto.limits_of_budget (job_budget t req) in
  let report, snap =
    Hsis.Session.run ~witnesses:req.Proto.r_witnesses
      ~fail_fast:req.Proto.r_fail_fast ~jobs:(job_jobs t req) ~limits
      ?tr:req.Proto.r_tr session pif
  in
  Scache.enforce ~keep:session t.scache;
  let obs =
    if req.Proto.r_stats then
      Some
        (match snap with
        | Some s -> s
        | None -> Hsis.snapshot (Hsis.Session.design session))
    else None
  in
  (Hsis.report_to_json report, Hsis.report_exit_code report, obs,
   Some (hit, session))

let do_reach t req =
  let source, _ = required_design req in
  let session, hit =
    Scache.find_or_open t.scache ~heuristic:t.config.heuristic
      ~tr:t.config.tr source
  in
  let design = Hsis.Session.design session in
  let limits = Proto.limits_of_budget (job_budget t req) in
  (* Per-job TR override: flip the evaluation path for this job only. *)
  let resident = Trans.strategy design.Hsis.trans in
  (match req.Proto.r_tr with
  | Some s -> Trans.set_strategy design.Hsis.trans s
  | None -> ());
  let r =
    Fun.protect
      ~finally:(fun () -> Trans.set_strategy design.Hsis.trans resident)
      (fun () -> Hsis.reachable ~limits design)
  in
  Scache.enforce ~keep:session t.scache;
  let verdict_members =
    match Verdict.to_json r.Hsis_check.Reach.verdict with
    | Obs.Json.Obj ms -> ms
    | j -> [ ("verdict", j) ]
  in
  let result =
    Obs.Json.Obj
      (verdict_members
      @ [
          ( "reached_states",
            Obs.Json.Float
              (Hsis_check.Reach.count_states design.Hsis.trans
                 r.Hsis_check.Reach.reachable) );
          ("bfs_steps", Obs.Json.Int r.Hsis_check.Reach.steps);
        ])
  in
  let obs = if req.Proto.r_stats then Some (Hsis.snapshot design) else None in
  (result, Verdict.exit_code r.Hsis_check.Reach.verdict, obs,
   Some (hit, session))

let do_fuzz t req (f : Proto.fuzz_spec) =
  let open Hsis_gen in
  let cfg =
    {
      Diff.default_config with
      Diff.iters = f.Proto.f_iters;
      seed = f.Proto.f_seed;
      state_limit = f.Proto.f_state_limit;
      ctl_per_iter = f.Proto.f_ctl_per_iter;
      jobs = job_jobs t req;
      log = None;
      out_dir = None;
    }
  in
  let report = Diff.run cfg in
  ( Diff.report_to_json report,
    (if report.Diff.discrepancies = [] then 0 else 3),
    None,
    None )

let handle_request t req =
  let finish ~elapsed status result exit_code obs interaction =
    {
      Proto.p_id = req.Proto.r_id;
      p_op = Proto.op_name req.Proto.r_op;
      p_status = status;
      p_exit_code = exit_code;
      p_elapsed = elapsed;
      p_cache = cache_member t interaction;
      p_result = result;
      p_obs = obs;
    }
  in
  let outcome, elapsed =
    Obs.Clock.wall (fun () ->
        match
          match req.Proto.r_op with
          | Proto.Check -> do_check t req
          | Proto.Reach -> do_reach t req
          | Proto.Fuzz f -> do_fuzz t req f
          | Proto.Ping ->
              (Obs.Json.Obj [ ("pong", Obs.Json.Bool true) ], 0, None, None)
          | Proto.Stats -> (stats_json t, 0, None, None)
          | Proto.Shutdown ->
              (Obs.Json.Obj [ ("stopping", Obs.Json.Bool true) ], 0, None,
               None)
        with
        | result, exit_code, obs, interaction ->
            `Ok (result, exit_code, obs, interaction)
        | exception Proto.Bad_request m -> `Err (Proto.Request_error, m)
        | exception (Failure m | Invalid_argument m | Sys_error m) ->
            `Err (Proto.Job_error, m)
        | exception Hsis_auto.Pif.Error m ->
            `Err (Proto.Job_error, "pif: " ^ m)
        | exception exn -> `Err (Proto.Job_error, Printexc.to_string exn))
  in
  t.served <- t.served + 1;
  match outcome with
  | `Ok (result, exit_code, obs, interaction) ->
      finish ~elapsed `Ok (Some result) exit_code obs interaction
  | `Err (kind, message) ->
      t.errors <- t.errors + 1;
      finish ~elapsed (`Error (kind, message)) None 2 None None

let is_blank line = String.trim line = ""

let handle_line t line =
  if is_blank line then (None, `Continue)
  else begin
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        let error ~id kind message =
          t.served <- t.served + 1;
          t.errors <- t.errors + 1;
          {
            Proto.p_id = id;
            p_op = "";
            p_status = `Error (kind, message);
            p_exit_code = 2;
            p_elapsed = 0.0;
            p_cache = cache_member t None;
            p_result = None;
            p_obs = None;
          }
        in
        match Obs.Json.parse line with
        | exception Obs.Json.Parse_error m ->
            (Some (error ~id:Obs.Json.Null Proto.Parse_error
                     ("invalid JSON: " ^ m)),
             `Continue)
        | j -> (
            let id =
              match Obs.Json.member "id" j with
              | Some v -> v
              | None -> Obs.Json.Null
            in
            match Proto.request_of_json j with
            | exception Proto.Bad_request m ->
                (Some (error ~id Proto.Request_error m), `Continue)
            | req ->
                let resp = handle_request t req in
                let stop =
                  match req.Proto.r_op with
                  | Proto.Shutdown ->
                      t.stop <- true;
                      `Stop
                  | _ -> `Continue
                in
                (Some resp, stop)))
  end

let write_response oc resp =
  output_string oc (Proto.print_response resp);
  output_char oc '\n';
  flush oc

let run_channels t ic oc =
  let continue = ref true in
  while !continue do
    match input_line ic with
    | exception End_of_file -> continue := false
    | line -> (
        let resp, stop = handle_line t line in
        (try Option.iter (write_response oc) resp
         with Sys_error _ -> continue := false);
        match stop with `Stop -> continue := false | `Continue -> ())
  done

(* Unix-socket mode: accept until shutdown, one thread per client.  The
   dispatch lock inside [handle_line] serializes job execution, so client
   threads only race on their own channels. *)

let close_listener t =
  match t.listener with
  | Some fd ->
      t.listener <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

let client_thread t cfd =
  let ic = Unix.in_channel_of_descr cfd in
  let oc = Unix.out_channel_of_descr cfd in
  (try
     let continue = ref true in
     while !continue do
       match input_line ic with
       | exception End_of_file -> continue := false
       | line -> (
           let resp, stop = handle_line t line in
           (try Option.iter (write_response oc) resp
            with Sys_error _ -> continue := false);
           match stop with `Stop -> continue := false | `Continue -> ())
     done
   with Sys_error _ -> ());
  try Unix.close cfd with Unix.Unix_error _ -> ()

let listen t ~socket_path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX socket_path);
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  t.listener <- Some fd;
  let clients = ref [] in
  (* Poll with a short select timeout rather than blocking in accept:
     closing the listener from another thread does not interrupt a
     blocked accept(2) on Linux, so a shutdown request would otherwise
     leave the daemon wedged until the next connection. *)
  (try
     while not t.stop do
       match Unix.select [ fd ] [] [] 0.2 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | [], _, _ -> ()
       | _ ->
           let cfd, _ = Unix.accept fd in
           clients := Thread.create (client_thread t) cfd :: !clients
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  close_listener t;
  List.iter Thread.join !clients;
  try Unix.unlink socket_path with Unix.Unix_error _ -> ()
