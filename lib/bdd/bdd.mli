(** Reduced ordered binary decision diagrams.

    This is the public face of the HSIS BDD package: handles returned by the
    operations below are tied to the OCaml garbage collector, so user code
    never manages node reference counts explicitly.  Each handle belongs to a
    {!man}; mixing handles from two managers raises [Invalid_argument]. *)

type man
(** A BDD manager: node arena, unique tables, caches, variable order. *)

type t
(** A BDD handle.  Structural equality of functions is pointer equality,
    exposed as {!equal}. *)

val new_man : ?initial_capacity:int -> unit -> man
(** Create a fresh manager with no variables. *)

val new_var : ?name:string -> man -> t
(** Allocate a fresh variable at the bottom of the current order and return
    its positive literal. *)

val num_vars : man -> int
val node_count : man -> int

val man_of : t -> man
val var_index : t -> int
(** Variable index of the literal returned by {!new_var} / {!ithvar}.
    Raises [Invalid_argument] on non-literal BDDs. *)

val ithvar : man -> int -> t
(** Positive literal of variable [i] (which must already exist). *)

val dtrue : man -> t
val dfalse : man -> t

val is_true : t -> bool
val is_false : t -> bool
val equal : t -> t -> bool
val id : t -> int
(** Stable node id, for hashing and ordering of handles. *)

(** {1 Boolean connectives} *)

val dnot : t -> t
val dand : t -> t -> t
val dor : t -> t -> t
val xor : t -> t -> t
val nand : t -> t -> t
val nor : t -> t -> t
val imp : t -> t -> t
val eqv : t -> t -> t

val iff : t -> t -> t
(** Alias of {!eqv}: true exactly where the two functions agree (so
    [is_true (iff a b)] is semantic equivalence). *)

val ite : t -> t -> t -> t
val conj : man -> t list -> t
val disj : man -> t list -> t

(** {1 Quantification} *)

val cube : man -> t list -> t
(** Conjunction of positive literals, used as a quantification set. *)

val exists : cube:t -> t -> t
val forall : cube:t -> t -> t
val and_exists : cube:t -> t -> t -> t
(** [and_exists ~cube f g] is [exists ~cube (dand f g)] computed without
    materializing the conjunction (relational product). *)

(** {1 Substitution} *)

type varmap
(** A registered variable relabeling, cached across calls. *)

val make_varmap : man -> (int * int) list -> varmap
(** [make_varmap m pairs] maps each [fst] variable to its [snd]; variables
    not mentioned are fixed. *)

val permute : varmap -> t -> t

(** {1 Don't-care minimization} *)

val restrict : t -> care:t -> t
(** Coudert-Madre [restrict]: minimize the first argument assuming inputs
    outside [care] never occur.  Result agrees with the argument on [care]. *)

val constrain : t -> care:t -> t
(** Generalized cofactor. *)

(** {1 Queries} *)

val support : t -> int list
(** Variable indices occurring in the BDD, sorted increasingly. *)

val dag_size : t -> int
val satcount : t -> nvars:int -> float

(** Satisfying assignments counted over exactly [vars]; the BDD's support
    must be a subset of [vars]. *)
val satcount_vars : t -> vars:int list -> float
val eval : t -> (int -> bool) -> bool

val pick_cube : t -> (int * bool) list
(** One satisfying partial assignment (a path to 1).
    Raises [Not_found] if the BDD is false. *)

val pick_state : t -> over:int list -> (int * bool) list
(** Like {!pick_cube} but completed to a total assignment over [over]
    (unconstrained variables are set to [false]). *)

val iter_cubes : t -> ((int -> bool option) -> unit) -> unit
(** Iterate the satisfying paths; the callback receives a partial
    assignment lookup. *)

(** {1 Snapshots}

    A compact, manager-independent serialization of a set of BDDs: the
    reachable DAG as a flat int array in topological (children-first)
    order, one [(var, low, high, complement)] record per node, plus the
    exporting manager's variable order.  Snapshots are plain immutable
    data — safe to share across domains — and rehydrate with a single
    linear pass.  They are how the shared-work parallel path ships a
    transition relation built once on the coordinator into fresh
    per-worker managers. *)

type snapshot

val export : man -> t list -> snapshot
(** Serialize the DAG reachable from the given handles (all of which must
    belong to [man]).  Shared subgraphs are stored once; root order is
    preserved.  Linear in the DAG size. *)

val import : ?strict:bool -> man -> snapshot -> t list
(** Rehydrate a snapshot, returning one handle per exported root (in
    order).  Every variable mentioned by the snapshot must already exist
    in [man] (raises [Invalid_argument] otherwise — allocate them first,
    e.g. by building the same symbol table).  When the importing order
    agrees with the exporting order on the snapshot's variables, this is
    a single linear pass of unique-table inserts; on a mismatch the nodes
    are re-canonicalized one by one under the local order ([ite] per
    record), or rejected with [Invalid_argument] when [strict] is set.
    Counts toward the manager's snapshot obs counters either way. *)

val snapshot_nodes : snapshot -> int
(** DAG nodes recorded in the snapshot. *)

val snapshot_bytes : snapshot -> int
(** Wire size in bytes (8 per stored word): the unit of snapshot obs
    accounting and serve-cache budgets. *)

val snapshot_order : snapshot -> int list
(** The exporting manager's variable order, outermost first. *)

(** {1 Garbage collection and reordering} *)

val gc : man -> int
(** Collect dead nodes; returns the number of nodes freed. *)

val set_gc_threshold : man -> int -> unit
val sift : ?max_vars:int -> man -> unit
(** Rudell sifting over the whole order (or the [max_vars] largest). *)

val set_auto_reorder : man -> bool -> unit
val set_reorder_threshold : man -> int -> unit
val order : man -> int list
(** Current variable order, outermost first. *)

val name_of_var : man -> int -> string

(** {1 Resource governor}

    See {!Hsis_limits.Limits}: a budget installed on a manager is polled
    from inside the operation kernels (amortized over computed-cache
    misses); a breach raises {!Interrupted} with the manager left
    consistent (caches wiped, invariant audit clean). *)

exception Interrupted of Hsis_limits.Limits.reason
(** Alias of [Hsis_limits.Limits.Interrupted]; catching either catches
    both. *)

val set_limits : man -> Hsis_limits.Limits.t -> unit
(** Install a budget; [Limits.none] disarms. *)

val limits : man -> Hsis_limits.Limits.t

val with_limits : man -> Hsis_limits.Limits.t -> (unit -> 'a) -> 'a
(** Install a budget for the duration of the thunk only; the previous
    budget is restored on any exit, including an escaping interrupt. *)

val note_interrupt : man -> Hsis_limits.Limits.reason -> unit
(** Record an engine-originated interrupt (e.g. a step-quota breach) in
    this manager's obs counters. *)

(** Structured diagnostics: nested [cache] (per-operation hit/miss
    counters), [gc], [reorder], [arena], and [limits] sub-records — see
    {!Hsis_obs.Obs}. *)
val stats : man -> Hsis_obs.Obs.man_stats
val check : man -> string list
(** Internal-invariant violations (empty when healthy); for tests. *)

val pp : Format.formatter -> t -> unit
(** Print as a sum of cubes using variable names (for debugging; linear in
    the number of cubes). *)
