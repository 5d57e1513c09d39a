(** Low-level BDD manager: hash-consed nodes in integer arenas.

    This is the engine room of the package — raw node ids, explicit
    reference counting, and in-place reordering.  User code should go
    through {!Bdd}, whose handles tie node lifetimes to the OCaml GC; this
    interface exists for the handle layer and for white-box tests.

    Invariants (checked by {!check}): nodes are reduced ([lo <> hi]) and
    ordered (children live at strictly greater levels); every live node is
    registered in the unique table of its variable; stored reference
    counts dominate the internal parent counts. *)

type t
(** A manager: node arena, per-variable unique tables, operation caches,
    variable order, and garbage-collection bookkeeping. *)

type node_id = int
(** Raw node index.  [0] and [1] are the constants. *)

val false_id : node_id
val true_id : node_id

val create : ?initial_capacity:int -> unit -> t

(** {1 Variables and structure} *)

val new_var : ?name:string -> t -> int
(** Allocate a fresh variable at the bottom of the order; returns its
    index. *)

val num_vars : t -> int
val name_of_var : t -> int -> string
val is_const : node_id -> bool
val var : t -> node_id -> int
val lo : t -> node_id -> node_id
val hi : t -> node_id -> node_id
val level : t -> node_id -> int
(** Position of the node's variable in the current order;
    [terminal_level] for constants. *)

val terminal_level : int
val order : t -> int list
(** Variables from the outermost level down. *)

val node_count : t -> int
(** Live (referenced) nodes. *)

(** {1 Reference counting} *)

val incr_ref : t -> node_id -> unit
val decr_ref : t -> node_id -> unit
(** Raises [Invalid_argument] on underflow. *)

(** {1 Node construction and operations}

    All operations return raw ids whose reference counts are {e not}
    incremented; callers must protect results before the next collection
    point.  Operations never collect internally. *)

val mk : t -> int -> node_id -> node_id -> node_id
(** [mk m v lo hi] is the canonical node for [if v then hi else lo]. *)

val ithvar : t -> int -> node_id
val nithvar : t -> int -> node_id
val apply_and : t -> node_id -> node_id -> node_id
val apply_or : t -> node_id -> node_id -> node_id
val apply_xor : t -> node_id -> node_id -> node_id
val apply_not : t -> node_id -> node_id
val apply_ite : t -> node_id -> node_id -> node_id -> node_id

val apply_exists : t -> node_id -> node_id -> node_id
(** [apply_exists m f cube]: existential quantification of the positive
    cube from [f]. *)

val apply_and_exists : t -> node_id -> node_id -> node_id -> node_id
(** [apply_and_exists m f g cube]: the relational product
    [exists cube (f /\ g)] without materializing the conjunction. *)

val register_map : t -> int array -> int
(** Register a variable relabeling for caching; returns its id. *)

val apply_permute : t -> int -> int array -> node_id -> node_id
val apply_restrict : t -> node_id -> node_id -> node_id
(** Coudert-Madre restrict (don't-care minimization). *)

val apply_constrain : t -> node_id -> node_id -> node_id
(** Generalized cofactor. *)

(** {1 Queries} *)

val support : t -> node_id -> int list
val dag_size : t -> node_id -> int
val satcount : t -> node_id -> int -> float
val satcount_vars : t -> node_id -> int list -> float
val eval : t -> node_id -> (int -> bool) -> bool
val pick_cube : t -> node_id -> (int * bool) list
val iter_cubes : t -> node_id -> nvars:int -> ((int -> bool option) -> unit) -> unit

(** {1 Collection and reordering} *)

val collect : t -> int
(** Free all dead nodes (cascading); clears the caches; returns the number
    of nodes freed. *)

val clear_caches : t -> unit
val maybe_collect : t -> unit
val set_gc_enabled : t -> bool -> unit
val set_gc_threshold : t -> int -> unit

val swap_levels : t -> int -> unit
(** Swap the variables at a level and the one below, in place.  Caches
    must be clear.  External ids remain valid. *)

val sift_var : t -> int -> unit
(** Move one variable to its locally optimal level (Rudell sifting). *)

val sift : ?max_vars:int -> t -> unit
val set_auto_reorder : t -> bool -> unit
val set_reorder_threshold : t -> int -> unit

val entry_hook : t -> unit
(** Called by the handle layer at operation entry: polls the resource
    budget, then runs collection and automatic reordering when thresholds
    are crossed. *)

(** {1 Resource governor} *)

exception Interrupted of Hsis_limits.Limits.reason
(** Alias of [Hsis_limits.Limits.Interrupted] (same runtime constructor:
    catching either catches both).  Raised from inside the apply kernels
    when the installed budget is breached.  The manager is left
    consistent: computed caches are wiped before raising, intermediate
    nodes are ordinary dead arena entries reclaimed by the next
    collection, and {!check} passes. *)

val set_limits : t -> Hsis_limits.Limits.t -> unit
(** Install a budget.  The apply kernels poll it amortized (every few
    hundred computed-cache misses) and every {!entry_hook} call; a breach
    raises {!Interrupted}.  Install [Limits.none] to disarm. *)

val limits : t -> Hsis_limits.Limits.t

val note_interrupt : t -> Hsis_limits.Limits.reason -> unit
(** Record an engine-originated interrupt (e.g. a step-quota breach the
    manager cannot see) in this manager's obs counters. *)

(** {1 Diagnostics} *)

val note_snapshot :
  t -> [ `Export | `Import ] -> nodes:int -> bytes:int -> seconds:float -> unit
(** Record one snapshot export/import (node count, wire bytes, wall time)
    in this manager's obs counters; rendered by {!stats} as the [snap]
    member. *)

val stats : t -> Hsis_obs.Obs.man_stats
(** Structured per-manager counters: computed-cache hit/miss rates per
    operation kernel, GC and reorder run counts with cumulative wall-clock
    pause time, and arena occupancy including the live-node high-water
    mark.  See {!Hsis_obs.Obs} for the taxonomy. *)

val check : t -> string list
(** Invariant violations, empty when healthy. *)
