open Hsis_obs
open Hsis_blifmv
open Hsis_fsm
open Hsis_auto
open Hsis_check
open Hsis_debug
open Hsis_limits

(** The unified HSIS environment (paper Fig. 1): read a design from Verilog
    or BLIF-MV, build its symbolic transition structure, check CTL and
    containment properties from a PIF file under an optional resource
    budget, and produce bug reports with error traces. *)

type design = {
  flat : Ast.model;  (** flattened BLIF-MV *)
  prov : Flatten.provenance;
      (** instance provenance recorded by flattening — which contiguous
          runs of the flat table/latch lists came from which [.subckt]
          instance; what [Trans.build ~strategy:Iso_shared] mines for
          isomorphic instance groups.  Empty for designs read from an
          already-flat model. *)
  net : Net.t;
  trans : Trans.t;
  heuristic : Trans.heuristic;
      (** ordering heuristic the relation was built with; {!run_pif_par}
          tasks rebuild the design with the same heuristic (and TR
          strategy / provenance) so parallel verdicts match sequential
          ones *)
  verilog_lines : int option;
  blifmv_lines : int;
  read_time : float;
      (** wall-clock seconds to build the symbol table + relation BDDs *)
  timers : Obs.Timers.t;
      (** accumulated per-phase wall-clock timings: [parse], [flatten],
          [order], [relation], then [reach] / [mc] / [lc] as the engines
          run.  Rendered by {!snapshot}. *)
  verdicts : Obs.Tally.t;
      (** per-verdict counts ([pass] / [fail] / [inconclusive]) across every
          property checked on this design; rendered by {!snapshot} *)
  mutable limits : Limits.t;  (** see {!set_limits} *)
  mutable reach_cache : Reach.t option;  (** filled by {!reachable} *)
  mutable reach_order_rev : int;
      (** reorder-run count of the BDD manager when {!reach_cache} was
          filled; the cache is dropped when the variable order has moved
          since (see {!reach_cache_valid}) *)
  mutable profile_reach : bool;
      (** record the per-step fixpoint profile during {!reachable}
          (default [true]; see {!set_reach_profile}) *)
  mutable simplify_reach : bool;
      (** [restrict]-simplify each reachability frontier against the
          already-reached interior before the image call (default [false];
          see {!set_reach_simplify}) *)
  mutable shared_cache : shared_cell option;
      (** last {!share_design} payload, keyed to the manager's reorder
          generation; reused by later shared-work runs on the same design
          (e.g. a warm serve session) instead of re-exporting *)
}

and shared_design
(** The exported, domain-shareable form of a design: the flattened network
    and relation {e shape} (plain immutable data) plus one [Bdd.snapshot]
    carrying the directly-constructed relation parts — under [Iso_shared]
    one component per master; permuted copies travel as renamings inside
    the shape — and, when the coordinator's reach cache was conclusive,
    the reachable set and its onion rings.  Produced by {!share_design},
    consumed by {!design_of_shared}. *)

and shared_cell = { sc_payload : shared_design; sc_order_rev : int }

val set_reach_profile : design -> bool -> unit
(** Enable or disable per-step reachability profiling before the first
    {!reachable} call.  Profiling walks the frontier and the full reached
    set with [Bdd.dag_size] each image step; the CLI enables it only when
    [--stats] / [--stats-json] is passed, and benchmarks disable it. *)

val set_reach_simplify : design -> bool -> unit
(** Enable frontier simplification for subsequent {!reachable} calls: each
    frontier is Coudert-Madre-[restrict]ed against the complement of the
    reached interior before the image computation, which can shrink the
    image input without changing the reachable set, the onion rings or the
    verdict (see [Reach.compute ~simplify]).  Nodes saved per step appear
    in the reach profile.  Default off. *)

val set_limits : design -> Limits.t -> unit
(** Install a resource budget governing every subsequent engine call on
    this design ({!reachable}, {!check_ctl}, {!check_lc},
    {!bisimulation}).  Engines interrupted by the budget return
    [Verdict.Inconclusive] results instead of raising.  Deadlines are
    absolute: a [Limits.make ~timeout] value expires once and every later
    call under it fails fast.  Default [Limits.none]. *)

val limits : design -> Limits.t

val read_verilog :
  ?heuristic:Trans.heuristic ->
  ?strategy:Trans.strategy ->
  string ->
  design

val read_blifmv :
  ?heuristic:Trans.heuristic ->
  ?strategy:Trans.strategy ->
  string ->
  design
(** [strategy] (default [Partitioned]) selects the transition-relation
    representation ({!Trans.strategy}).  The hierarchical front ends record
    flattening provenance and hand it to the relation builder, so
    [~strategy:Iso_shared] shares component BDDs across isomorphic
    [.subckt] / Verilog-module instances. *)

val read_flat :
  ?heuristic:Trans.heuristic ->
  ?strategy:Trans.strategy ->
  ?prov:Flatten.provenance ->
  ?verilog_lines:int ->
  ?timers:Obs.Timers.t ->
  Ast.model ->
  design
(** Already-flat entry point.  [prov] (default empty) supplies instance
    provenance when the caller flattened with [Flatten.flatten_prov]
    itself; without it [Iso_shared] has nothing to mine and degrades to
    [Partitioned] behaviour. *)

val reachable : ?limits:Limits.t -> design -> Reach.t
(** Runs under [limits] (default: the design's installed {!val-limits}).
    Conclusive results are cached; a truncated exploration (verdict
    [Inconclusive]) is returned but recomputed on the next call.  The
    cache is keyed to the manager's variable order: if sifting ran since
    it was filled (a later job triggering auto-reorder, an explicit
    [Bdd.sift] between serve jobs), it is invalidated and the set is
    recomputed under the new order. *)

val reach_cache_valid : design -> bool
(** Whether a cached reachable set exists {e and} is still keyed to the
    manager's current variable order.  [false] either when nothing is
    cached or when a reorder since the fill has invalidated it. *)

val reached_states : design -> float

type ctl_evidence = {
  ce_explanation : Mcdbg.explanation option;
      (** bug report, when requested with [~explain:true] *)
}

type lc_evidence = {
  le_trace : Trace.t option;  (** error trace when containment fails *)
  le_trans : Trans.t;  (** product structure, for printing the trace *)
}

type 'ev property_result = {
  pr_name : string;
  pr_verdict : 'ev Verdict.t;
      (** [Fail] carries the engine-specific evidence *)
  pr_time : float;
  pr_early_step : int option;
      (** reachability step at which the failure was detected, when the
          early-failure scan caught it before the fixpoint converged *)
}
(** One checked property, CTL or language containment: the two legacy
    result records ([ctl_result] / [lc_result]) unified over the verdict
    API. *)

val check_ctl :
  ?fairness:Fair.syntactic list ->
  ?early_failure:bool ->
  ?explain:bool ->
  ?limits:Limits.t ->
  design ->
  name:string ->
  Ctl.t ->
  ctl_evidence property_result
(** [limits] overrides the design's installed budget for this one check —
    the serve daemon's per-job budgets use this instead of mutating the
    shared session. *)

val check_lc :
  ?fairness:Fair.syntactic list ->
  ?early_failure:bool ->
  ?trace:bool ->
  ?limits:Limits.t ->
  design ->
  Autom.t ->
  lc_evidence property_result

type report = {
  design_name : string;
  ctl : ctl_evidence property_result list;
  lc : lc_evidence property_result list;
  mc_time : float;
  lc_time : float;
}

val run_pif :
  ?early_failure:bool ->
  ?witnesses:bool ->
  ?limits:Limits.t ->
  design ->
  Pif.t ->
  report
(** Check every [ctl] and [lc] property of the PIF file under its fairness
    constraints (and [limits], default the design's installed
    {!val-limits}). *)

val share_design : design -> shared_design
(** Export the design for cross-domain rehydration: the relation parts —
    and, when {!reach_cache_valid} holds, the reachable set with its onion
    rings — as one [Bdd.snapshot], alongside the relation shape
    ([Trans.share]).  Cached on the design ({!design.shared_cache}) keyed
    to the manager's reorder generation, so repeated shared-work runs
    export once. *)

val design_of_shared : shared_design -> design
(** Rehydrate inside a worker domain: fresh BDD manager, deterministic
    symbol table ([Sym.make] on the shared net gives identical variable
    indices), one linear-pass [Bdd.import], and a pre-filled conclusive
    reach cache when the payload carried one.  The result is a full
    {!design} whose property checks skip both the relation build and the
    reachability fixpoint.  Reach profiling starts disabled; budgets start
    at [Limits.none]. *)

val run_pif_par :
  ?early_failure:bool ->
  ?witnesses:bool ->
  ?fail_fast:bool ->
  ?limits:Limits.t ->
  jobs:int ->
  design ->
  Pif.t ->
  report * Obs.snapshot
(** {!run_pif} fanned out over a [Par] domain pool, one task per property.
    The coordinator builds the relation — and the reachability fixpoint,
    when any CTL property is present — once, exports them with
    {!share_design}, and each task rehydrates with {!design_of_shared}
    into its own fresh manager: per-design work is done once instead of
    once per property.  Language-containment products are still built
    per task ([Lc.check] works from the flattened AST).  With
    [jobs <= 1] the tasks run in order on the design itself, with no
    pool and no export.  Results are keyed by
    property index, so the report lists properties in PIF order and
    verdicts match {!run_pif} regardless of scheduling.  The design's
    {!val-limits} deadline / cancellation governs the whole pool; with
    [fail_fast] the first definitive [Fail] cancels the remaining tasks,
    which come back as [Inconclusive (Cancelled)].  Also returns the
    merged observability snapshot ([Obs.merge] of the parent and every
    task snapshot, with the pool's per-worker activity in its [workers]
    member and the snapshot export/import traffic in each manager's
    [snap] counters) — per-task manager counters are not otherwise
    reachable once the tasks finish. *)

val report_exit_code : report -> int
(** CLI protocol: [3] if any property has a definitive [Fail] verdict,
    else [4] if any is [Inconclusive], else [0]. *)

val property_to_json : 'ev property_result -> Obs.Json.t
(** [{"name", "verdict" (+ "reason"/"at_step"), "time_s", "early_step"?}];
    evidence is not serialized. *)

val report_to_json : report -> Obs.Json.t
(** The whole report — per-property verdicts plus engine times and the
    {!report_exit_code} — as dependency-free JSON (the ["result"] member
    of serve-mode responses). *)

val simulator : design -> Hsis_sim.Simulator.t

val bisimulation : ?class_cap:int -> design -> Hsis_bisim.Bisim.result
(** Runs under {!val-limits}. *)

val minimize : design -> Hsis_bisim.Dontcare.report
(** Restrict the relation parts with the reachable care set. *)

val stats : design -> Obs.man_stats
(** Structured counters of the design's BDD manager (see {!Hsis_obs.Obs}). *)

val snapshot : design -> Obs.snapshot
(** Full observability snapshot: manager counters, per-phase timings, the
    relation-partition profile, the verdict tally, and (once {!reachable}
    has run) the per-iteration reachability profile.  Render with [Obs.pp]
    or [Obs.to_json]. *)

val pp_report : Format.formatter -> report -> unit

(** {1 Sessions}

    The explicit unit of design state replacing ad-hoc per-call facade
    mutation: a session pins one read design — flattened network, symbol
    table, relation BDDs, variable order, reach cache — under a content
    hash of its source.  Callers open a session, run property checks
    against it (many, with independent per-run budgets via the [?limits]
    overrides above), and close it.  The serve daemon keeps a bounded
    cache of open sessions keyed by {!Session.hash} so a re-check of an
    already-read design skips straight to the engines; the batch CLI is
    the degenerate open-run-close case, so both share one code path. *)

module Session : sig
  type source = Verilog of string | Blifmv of string | Flat of Ast.model

  val hash : source -> string
  (** Stable content hash (hex) of the design source, folding in the
      source kind.  Cache key of the serve-mode session cache. *)

  type t

  val open_ :
    ?heuristic:Trans.heuristic ->
    ?tr:Trans.strategy ->
    source ->
    t
  (** Read the design and pin its artifacts.  [tr] (default [Partitioned])
      is the construction-time TR strategy ({!read_blifmv}).
      [Session.id] of the result is [hash source]. *)

  val id : t -> string
  val design : t -> design
  val heuristic : t -> Trans.heuristic

  val tr : t -> Trans.strategy
  (** The design's resident TR strategy (as opened, or as left by the
      last {!run} override restore — i.e. the opened one). *)

  val hits : t -> int
  (** Warm reuses recorded by {!touch}; [0] for a fresh session. *)

  val touch : t -> unit
  (** Record a warm reuse (called by the serve cache on a hit). *)

  val live_nodes : t -> int
  (** Live BDD nodes held by the session's manager — the unit of the
      serve cache's memory budget. *)

  val snapshot_bytes : t -> int
  (** Wire bytes of the session design's cached {!share_design} payload
      (0 when none): counted into the serve cache's per-entry weight so a
      warm session's retained export is paid for. *)

  val run :
    ?early_failure:bool ->
    ?witnesses:bool ->
    ?fail_fast:bool ->
    ?jobs:int ->
    ?limits:Limits.t ->
    ?tr:Trans.strategy ->
    t ->
    Pif.t ->
    report * Obs.snapshot option
  (** Check a PIF property set against the session's design: {!run_pif}
      when [jobs <= 1] and not [fail_fast], {!run_pif_par} (returning the
      pool-merged snapshot) otherwise.  [limits] governs this run only.
      [tr] flips the relation's image/preimage evaluation path
      ([Trans.set_strategy]) for this run only — the session's resident
      strategy is restored afterwards; construction-time sharing stays as
      opened.  [jobs] workers each get their own manager.  Raises
      [Invalid_argument] on a closed session. *)

  val close : t -> unit
  (** Drop the session's cached artifacts and mark it closed ({!run}
      refuses).  Safe to call twice. *)

  val closed : t -> bool
end
