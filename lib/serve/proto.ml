open Hsis_obs
open Hsis_limits

let schema_version = "hsis-serve/1"

type budget = {
  timeout_s : float option;
  max_nodes : int option;
  max_steps : int option;
}

let no_budget = { timeout_s = None; max_nodes = None; max_steps = None }

let budget_is_none b =
  b.timeout_s = None && b.max_nodes = None && b.max_steps = None

let limits_of_budget b =
  if budget_is_none b then Limits.none
  else
    Limits.make ?timeout:b.timeout_s ?max_nodes:b.max_nodes
      ?max_steps:b.max_steps ()

type design_src = Verilog of string | Blifmv of string | Builtin of string

type fuzz_spec = {
  f_iters : int;
  f_seed : int;
  f_state_limit : int;
  f_ctl_per_iter : int;
}

type op = Check | Reach | Fuzz of fuzz_spec | Stats | Ping | Shutdown

let op_name = function
  | Check -> "check"
  | Reach -> "reach"
  | Fuzz _ -> "fuzz"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

type request = {
  r_id : Obs.Json.t;
  r_op : op;
  r_design : design_src option;
  r_pif : string option;
  r_budget : budget;
  r_jobs : int option;
  r_tr : Hsis_fsm.Trans.strategy option;
  r_fail_fast : bool;
  r_witnesses : bool;
  r_stats : bool;
}

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* Typed member accessors that distinguish "absent" from "wrong type":
   a member that is present with the wrong type is a protocol error, not
   a silent default. *)

let mem name j = Obs.Json.member name j

let opt_str name j =
  match mem name j with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Str s) -> Some s
  | Some _ -> bad "member %S must be a string" name

let opt_int name j =
  match mem name j with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Int n) -> Some n
  | Some _ -> bad "member %S must be an integer" name

let opt_float name j =
  match mem name j with
  | None | Some Obs.Json.Null -> None
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int n) -> Some (float_of_int n)
  | Some _ -> bad "member %S must be a number" name

let opt_bool ?(default = false) name j =
  match mem name j with
  | None | Some Obs.Json.Null -> default
  | Some (Obs.Json.Bool b) -> b
  | Some _ -> bad "member %S must be a boolean" name

let design_of_json j =
  match (opt_str "verilog" j, opt_str "blifmv" j, opt_str "builtin" j) with
  | Some s, None, None -> Verilog s
  | None, Some s, None -> Blifmv s
  | None, None, Some n -> Builtin n
  | None, None, None ->
      bad "design needs one of \"verilog\", \"blifmv\", \"builtin\""
  | _ -> bad "design takes exactly one of \"verilog\", \"blifmv\", \"builtin\""

let design_to_json = function
  | Verilog s -> Obs.Json.Obj [ ("verilog", Obs.Json.Str s) ]
  | Blifmv s -> Obs.Json.Obj [ ("blifmv", Obs.Json.Str s) ]
  | Builtin n -> Obs.Json.Obj [ ("builtin", Obs.Json.Str n) ]

let budget_of_json j =
  match mem "budget" j with
  | None | Some Obs.Json.Null -> no_budget
  | Some b ->
      {
        timeout_s = opt_float "timeout_s" b;
        max_nodes = opt_int "max_nodes" b;
        max_steps = opt_int "max_steps" b;
      }

let budget_to_json b =
  Obs.Json.Obj
    (List.concat
       [
         (match b.timeout_s with
         | Some f -> [ ("timeout_s", Obs.Json.Float f) ]
         | None -> []);
         (match b.max_nodes with
         | Some n -> [ ("max_nodes", Obs.Json.Int n) ]
         | None -> []);
         (match b.max_steps with
         | Some n -> [ ("max_steps", Obs.Json.Int n) ]
         | None -> []);
       ])

let fuzz_of_json j =
  let spec = match mem "fuzz" j with Some s -> s | None -> Obs.Json.Obj [] in
  {
    f_iters = Option.value ~default:20 (opt_int "iters" spec);
    f_seed = Option.value ~default:0 (opt_int "seed" spec);
    f_state_limit = Option.value ~default:20_000 (opt_int "state_limit" spec);
    f_ctl_per_iter = Option.value ~default:3 (opt_int "ctl_per_iter" spec);
  }

let request_of_json j =
  (match j with Obs.Json.Obj _ -> () | _ -> bad "request must be an object");
  let op =
    match opt_str "op" j with
    | Some "check" -> Check
    | Some "reach" -> Reach
    | Some "fuzz" -> Fuzz (fuzz_of_json j)
    | Some "stats" -> Stats
    | Some "ping" -> Ping
    | Some "shutdown" -> Shutdown
    | Some other -> bad "unknown op %S" other
    | None -> bad "missing \"op\" member"
  in
  {
    r_id = (match mem "id" j with Some v -> v | None -> Obs.Json.Null);
    r_op = op;
    r_design =
      (match mem "design" j with
      | None | Some Obs.Json.Null -> None
      | Some d -> Some (design_of_json d));
    r_pif = opt_str "pif" j;
    r_budget = budget_of_json j;
    r_jobs =
      (match opt_int "jobs" j with
      | Some n when n < 1 || n > Hsis_par.Par.max_jobs ->
          bad "\"jobs\" must be between 1 and %d" Hsis_par.Par.max_jobs
      | v -> v);
    r_tr =
      (match opt_str "tr" j with
      | None -> None
      | Some s -> (
          match Hsis_fsm.Trans.strategy_of_name s with
          | Some _ as v -> v
          | None -> bad "\"tr\" must be one of \"mono\", \"part\", \"iso\""));
    r_fail_fast = opt_bool "fail_fast" j;
    r_witnesses = opt_bool "witnesses" j;
    r_stats = opt_bool "stats" j;
  }

let parse_request line =
  let j =
    try Obs.Json.parse line
    with Obs.Json.Parse_error m -> bad "invalid JSON: %s" m
  in
  request_of_json j

let request_to_json r =
  Obs.Json.Obj
    (List.concat
       [
         (match r.r_id with Obs.Json.Null -> [] | v -> [ ("id", v) ]);
         [ ("op", Obs.Json.Str (op_name r.r_op)) ];
         (match r.r_design with
         | Some d -> [ ("design", design_to_json d) ]
         | None -> []);
         (match r.r_pif with
         | Some p -> [ ("pif", Obs.Json.Str p) ]
         | None -> []);
         (if budget_is_none r.r_budget then []
          else [ ("budget", budget_to_json r.r_budget) ]);
         (match r.r_jobs with
         | Some n -> [ ("jobs", Obs.Json.Int n) ]
         | None -> []);
         (match r.r_tr with
         | Some s ->
             [ ("tr", Obs.Json.Str (Hsis_fsm.Trans.strategy_name s)) ]
         | None -> []);
         (if r.r_fail_fast then [ ("fail_fast", Obs.Json.Bool true) ] else []);
         (if r.r_witnesses then [ ("witnesses", Obs.Json.Bool true) ] else []);
         (if r.r_stats then [ ("stats", Obs.Json.Bool true) ] else []);
         (match r.r_op with
         | Fuzz f ->
             [
               ( "fuzz",
                 Obs.Json.Obj
                   [
                     ("iters", Obs.Json.Int f.f_iters);
                     ("seed", Obs.Json.Int f.f_seed);
                     ("state_limit", Obs.Json.Int f.f_state_limit);
                     ("ctl_per_iter", Obs.Json.Int f.f_ctl_per_iter);
                   ] );
             ]
         | _ -> []);
       ])

type error_kind = Parse_error | Request_error | Job_error

let error_kind_name = function
  | Parse_error -> "parse"
  | Request_error -> "request"
  | Job_error -> "job"

type response = {
  p_id : Obs.Json.t;
  p_op : string;
  p_status : [ `Ok | `Error of error_kind * string ];
  p_exit_code : int;
  p_elapsed : float;
  p_cache : Obs.Json.t;
  p_result : Obs.Json.t option;
  p_obs : Obs.snapshot option;
}

let response_to_json p =
  Obs.Json.Obj
    (List.concat
       [
         [
           ("schema", Obs.Json.Str schema_version);
           ("id", p.p_id);
           ("op", Obs.Json.Str p.p_op);
           ( "status",
             Obs.Json.Str
               (match p.p_status with `Ok -> "ok" | `Error _ -> "error") );
           ("exit_code", Obs.Json.Int p.p_exit_code);
           ("elapsed_s", Obs.Json.Float p.p_elapsed);
           ("cache", p.p_cache);
         ];
         (match p.p_result with Some r -> [ ("result", r) ] | None -> []);
         (match p.p_status with
         | `Ok -> []
         | `Error (kind, message) ->
             [
               ( "error",
                 Obs.Json.Obj
                   [
                     ("kind", Obs.Json.Str (error_kind_name kind));
                     ("message", Obs.Json.Str message);
                   ] );
             ]);
         (match p.p_obs with
         | Some snap -> [ ("obs", Obs.to_json snap) ]
         | None -> []);
       ])

let response_of_json j =
  let str name = Option.value ~default:"" (opt_str name j) in
  let status =
    match str "status" with
    | "ok" -> `Ok
    | "error" ->
        let e = match mem "error" j with Some e -> e | None -> Obs.Json.Null in
        let kind =
          match opt_str "kind" e with
          | Some "parse" -> Parse_error
          | Some "request" -> Request_error
          | _ -> Job_error
        in
        `Error (kind, Option.value ~default:"" (opt_str "message" e))
    | other -> bad "unknown status %S" other
  in
  {
    p_id = (match mem "id" j with Some v -> v | None -> Obs.Json.Null);
    p_op = str "op";
    p_status = status;
    p_exit_code = Option.value ~default:0 (opt_int "exit_code" j);
    p_elapsed = Option.value ~default:0.0 (opt_float "elapsed_s" j);
    p_cache =
      (match mem "cache" j with Some c -> c | None -> Obs.Json.Obj []);
    p_result = mem "result" j;
    p_obs =
      (match mem "obs" j with
      | Some o -> Some (Obs.of_json o)
      | None -> None);
  }

let print_response p = Obs.Json.to_string (response_to_json p)
