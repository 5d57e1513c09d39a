(** Pipeline-wide observability for the HSIS environment.

    This module is the single diagnostics surface of the system: the BDD
    manager, the transition-relation builder, the reachability engine and
    the {!Hsis} facade all report into the record types below, and every
    consumer (CLI [--stats] / [--stats-json], the bench harness, the tests)
    reads them back through {!snapshot} values.

    The design is deliberately plain data + pure functions: producers fill
    records in, {!diff} subtracts two snapshots counter-wise, and
    {!pp} / {!to_json} render them.  JSON emission and parsing are
    hand-rolled (no external dependencies). *)

(** {1 Clock} *)

module Clock : sig
  val now : unit -> float
  (** Monotonicized wall-clock seconds: based on the system wall clock but
      clamped to never run backwards, so differences are non-negative.
      Unlike [Sys.time] this measures elapsed real time, not CPU time. *)

  val wall : (unit -> 'a) -> 'a * float
  (** [wall f] runs [f] and returns its result with the elapsed wall-clock
      seconds. *)
end

(** {1 JSON} *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val to_string : t -> string
  (** Compact one-line rendering.  Non-finite floats become [null]. *)

  val parse : string -> t
  (** Strict parser for the subset emitted by {!to_string} (full JSON minus
      surrogate-pair [\u] escapes).  Raises {!Parse_error}. *)

  (** Accessors for digging into parsed values; missing members yield the
      neutral element ([0], [""], [[]]). *)

  val member : string -> t -> t option
  val to_int : t option -> int
  val to_float : t option -> float
  val to_str : t option -> string
  val to_list : t option -> t list
end

(** {1 Counter taxonomy}

    The structured replacement for the old flat [Man.stats] record. *)

module Cache : sig
  type op = { name : string; hits : int; misses : int }
  (** Computed-cache behaviour of one operation kernel ([and], [or], [xor],
      [not], [ite], [exists], [and_exists], [restrict], [constrain],
      [permute]).  [hits + misses] is the number of cache lookups; terminal
      cases short-circuit before the cache and are not counted. *)

  type t = { entries : int; slots : int; evictions : int; ops : op list }
  (** [entries] is the current cache population and [slots] its capacity
      (both gauges of the direct-mapped computed cache); [evictions] counts
      entries overwritten by colliding stores (monotone); [ops] holds the
      per-operation hit/miss counters (monotone). *)

  val lookups : op -> int

  (** [occupancy t] is [entries / slots], the fraction of the cache in
      use; 0 when the cache has no slots. *)
  val occupancy : t -> float
  val op_hit_rate : op -> float
  val hits : t -> int
  val misses : t -> int
  val hit_rate : t -> float
end

module Gc : sig
  type t = { runs : int; freed : int; time : float }
  (** Collections run, total nodes freed, and total wall-clock seconds
      spent collecting (including collections triggered inside
      reordering). *)
end

module Reorder : sig
  type t = { runs : int; time : float }
  (** Sifting runs and their total wall-clock seconds (inclusive of the
      cache-clearing collections sifting performs). *)
end

module Arena : sig
  type t = {
    live : int;  (** referenced nodes *)
    dead : int;  (** allocated nodes whose refcount dropped to 0 *)
    vars : int;
    peak_live : int;  (** high-water mark of [live] over the manager's life *)
    capacity : int;  (** allocated arena slots *)
  }
end

module Limit : sig
  type t = { checks : int; interrupts : (string * int) list }
  (** Resource-governor activity: [checks] counts budget polls performed by
      the manager's apply kernels, [interrupts] counts interrupts fired per
      reason label (["deadline"], ["nodes"], ["cancelled"]).  Both
      monotone. *)

  val zero : t
end

module Snap : sig
  type t = {
    exports : int;  (** snapshots produced by [Bdd.export] *)
    imports : int;  (** snapshots consumed by [Bdd.import] *)
    nodes : int;  (** total DAG nodes shipped, both directions *)
    bytes : int;  (** total wire bytes shipped, both directions *)
    export_time : float;  (** wall-clock seconds spent exporting *)
    import_time : float;  (** wall-clock seconds spent importing *)
  }
  (** BDD snapshot traffic of the shared-work parallel path.  All
      monotone. *)

  val zero : t
end

type man_stats = {
  cache : Cache.t;
  gc : Gc.t;
  reorder : Reorder.t;
  arena : Arena.t;
  limits : Limit.t;
  snap : Snap.t;
}
(** One BDD manager's counters, as returned by [Bdd.stats]. *)

type reach_sample = {
  step : int;  (** BFS depth; step 0 is the initial states *)
  frontier_nodes : int;  (** dag size of the new-states frontier *)
  reachable_nodes : int;  (** dag size of the reached-set BDD so far *)
  step_time : float;  (** seconds to compute this frontier (0 at step 0) *)
  simplify_saved : int;
      (** dag nodes shaved off the image input by frontier [restrict]
          simplification ([Reach.compute ~simplify]); 0 when off *)
}
(** One point of the per-iteration fixpoint profile recorded by [Reach]. *)

type worker_sample = {
  w_tasks : int;  (** tasks this pool worker executed *)
  w_time : float;  (** wall-clock seconds it spent inside tasks *)
}
(** Per-worker activity of a parallel run ([Par] pool), carried on merged
    snapshots as the [workers] member (since schema hsis-obs/4). *)

type rel_profile = { rel_parts : int; rel_nodes : int; rel_largest : int }
(** Shape of the conjunctively partitioned transition relation. *)

type tr_profile = {
  tr_strategy : string;
      (** construction strategy name (["mono"], ["part"], ["iso"]) *)
  tr_masters : int;
      (** isomorphic instance groups whose component BDDs were built once *)
  tr_instances : int;
      (** relation parts materialized by [Bdd.permute] from a master part
          instead of direct construction *)
  tr_shared_nodes_saved : int;
      (** total dag size of the master parts each permuted instance
          avoided re-constructing *)
  tr_permute_time : float;  (** wall-clock seconds spent permuting *)
}
(** Transition-relation strategy and isomorphism-sharing counters, carried
    on snapshots as the [tr] member (since schema hsis-obs/6). *)

(** {1 Phase timers} *)

module Timers : sig
  type t
  (** A mutable, insertion-ordered [phase name -> accumulated seconds]
      map. *)

  val create : unit -> t

  val add : t -> string -> float -> unit
  (** Accumulate seconds onto a phase (created on first use). *)

  val time : t -> string -> (unit -> 'a) -> 'a
  (** Run a thunk, accumulating its wall-clock time onto the phase. *)

  val find : t -> string -> float option
  val to_list : t -> (string * float) list
  val total : t -> float
end

(** {1 Tallies} *)

module Tally : sig
  type t
  (** A mutable, insertion-ordered [label -> count] map for event counters
      whose label set is open-ended — e.g. the fuzz harness's per-reason
      skip and per-kind discrepancy counts. *)

  val create : unit -> t

  val incr : ?by:int -> t -> string -> unit
  (** Add [by] (default 1) to a label's count (created at 0 on first use). *)

  val get : t -> string -> int
  (** 0 for labels never incremented. *)

  val to_list : t -> (string * int) list
  val total : t -> int
  val to_json : t -> Json.t
  val of_json : Json.t -> t
end

(** {1 Snapshots} *)

type snapshot = {
  man : man_stats;
  phases : (string * float) list;  (** phase name -> seconds, in order *)
  reach : reach_sample list;
  relation : rel_profile option;
  tr : tr_profile option;
      (** transition-relation strategy and sharing counters, when the
          snapshot came from a built design *)
  verdicts : (string * int) list;
      (** verdict name (["pass"], ["fail"], ["inconclusive"]) -> count of
          property results produced, in first-seen order (monotone) *)
  workers : worker_sample list;
      (** per-worker activity when this snapshot aggregates a parallel run
          ({!merge}); empty for single-manager snapshots *)
}

val snapshot :
  ?phases:(string * float) list ->
  ?reach:reach_sample list ->
  ?relation:rel_profile ->
  ?tr:tr_profile ->
  ?verdicts:(string * int) list ->
  ?workers:worker_sample list ->
  man_stats ->
  snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff before after]: monotone counters (cache hits/misses, gc, reorder,
    limit checks/interrupts, verdict tallies, phase times) subtracted and
    clamped at zero; gauges (arena, cache entries, reach profile, relation
    profile, workers) taken from [after]. *)

val merge : snapshot list -> snapshot
(** Aggregate the snapshots of a parallel run (one BDD manager per
    worker) into one document.  Counters (cache hits/misses,
    evictions, gc, reorder, limit activity, verdict tallies, phase times)
    and additive gauges (live/dead/peak nodes, capacities, cache slots)
    are summed; [vars] takes the maximum; the reach profile is the first
    non-empty one and the relation profile the first present one (the
    parent design's, by convention, when it is the head of the list);
    [workers] lists are concatenated.  Associative: [merge [a; merge [b;
    c]]] = [merge [merge [a; b]; c]] — so per-worker partial merges
    compose.  [merge [] ] is the all-zero snapshot. *)

val schema_version : string
(** Value of the ["schema"] member of emitted JSON ("hsis-obs/8"; /2 added
    the additive cache ["slots"]/["evictions"] members, /3 the ["limits"]
    object and ["verdicts"] tally, /4 the ["workers"] member and the
    per-step ["simplify_saved"] reach-profile member, /5 the ["snapshot"]
    object with BDD export/import traffic, /6 the ["tr"] object with the
    transition-relation strategy and isomorphism-sharing counters, /7 the
    ["intra"] object with the intra-operation parallel kernel counters,
    which /8 removed together with those kernels; {!of_json} ignores it). *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable multi-line report. *)

val to_json : snapshot -> Json.t
(** See the "Observability" section of DESIGN.md for the schema. *)

val of_json : Json.t -> snapshot
(** Inverse of {!to_json} (missing members default to zero/empty). *)

val json_string : snapshot -> string
