open Hsis_obs
open Hsis_limits

(** The serve-mode wire protocol (schema ["hsis-serve/1"]).

    One JSON document per line in each direction: clients write requests,
    the daemon writes exactly one response per request line — including
    for lines it could not parse, which come back as in-band [status =
    "error"] responses rather than killing the connection.

    Request grammar (members beyond [op] optional unless noted):
    {v
    {"id": <any json, echoed back>,
     "op": "check" | "reach" | "fuzz" | "stats" | "ping" | "shutdown",
     "design": {"verilog": "<source>"}        -- check/reach: required
             | {"blifmv": "<source>"}
             | {"builtin": "<table-1 name>"},
     "pif": "<pif text>",                     -- check: property set
                                                 (builtins default to theirs)
     "budget": {"timeout_s": f, "max_nodes": n, "max_steps": n},
     "jobs": n, "tr": "mono" | "part" | "iso",
     "fail_fast": b, "witnesses": b,
     "stats": b,                              -- attach an obs snapshot
     "fuzz": {"iters": n, "seed": n, "state_limit": n, "ctl_per_iter": n}}
    v}

    Responses always carry ["schema"], the echoed ["id"], ["op"],
    ["status"] (["ok"] / ["error"]), the CLI-equivalent ["exit_code"]
    (0 pass / 3 fail / 4 inconclusive; 2 for protocol errors),
    ["elapsed_s"], and a ["cache"] member describing the session-cache
    interaction (hit/miss, session id, entry counters).  [status = "ok"]
    adds the op-specific ["result"]; [status = "error"] adds ["error"]
    with a ["kind"] (["parse"] / ["request"] / ["job"]) and ["message"]. *)

val schema_version : string
(** ["hsis-serve/1"]. *)

type budget = {
  timeout_s : float option;  (** per-job, relative seconds *)
  max_nodes : int option;
  max_steps : int option;
}

val no_budget : budget

val budget_is_none : budget -> bool

val limits_of_budget : budget -> Limits.t
(** Arm the budget now: the deadline becomes absolute at this call. *)

type design_src =
  | Verilog of string
  | Blifmv of string
  | Builtin of string  (** resolved against the Table-1 model registry *)

type fuzz_spec = {
  f_iters : int;
  f_seed : int;
  f_state_limit : int;
  f_ctl_per_iter : int;
}

type op =
  | Check
  | Reach
  | Fuzz of fuzz_spec
  | Stats  (** session-cache and daemon counters *)
  | Ping
  | Shutdown

val op_name : op -> string

type request = {
  r_id : Obs.Json.t;  (** echoed verbatim; [Null] when absent *)
  r_op : op;
  r_design : design_src option;
  r_pif : string option;
  r_budget : budget;
  r_jobs : int option;
      (** worker domains for this job, [1 .. Par.max_jobs] *)
  r_tr : Hsis_fsm.Trans.strategy option;
      (** per-job transition-relation strategy override; [None] leaves the
          daemon default (configured at startup, [part] out of the box).
          Named on the wire as ["mono"] / ["part"] / ["iso"]. *)
  r_fail_fast : bool;
  r_witnesses : bool;
  r_stats : bool;
}

exception Bad_request of string
(** Structurally valid JSON that is not a valid request (unknown op,
    wrong member type, ...). *)

val request_of_json : Obs.Json.t -> request
(** Raises {!Bad_request}. *)

val parse_request : string -> request
(** One line -> request.  Raises {!Bad_request} (also wrapping JSON
    parse errors, so callers have a single failure path). *)

val request_to_json : request -> Obs.Json.t
(** Inverse of {!request_of_json} (round-trips through it). *)

type error_kind = Parse_error | Request_error | Job_error

val error_kind_name : error_kind -> string

type response = {
  p_id : Obs.Json.t;
  p_op : string;
  p_status : [ `Ok | `Error of error_kind * string ];
  p_exit_code : int;
  p_elapsed : float;
  p_cache : Obs.Json.t;  (** session-cache interaction record *)
  p_result : Obs.Json.t option;  (** op-specific payload when [`Ok] *)
  p_obs : Obs.snapshot option;  (** when the request asked for stats *)
}

val response_to_json : response -> Obs.Json.t
val response_of_json : Obs.Json.t -> response
(** Client-side decoding (used by tests and the bench harness); [p_obs]
    round-trips through [Obs.of_json]. *)

val print_response : response -> string
(** One line, no trailing newline. *)
