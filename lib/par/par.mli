open Hsis_obs
open Hsis_limits

(** Share-nothing task-level parallelism on OCaml 5 domains.

    A fixed-size pool of worker domains executes a statically known set of
    tasks.  Task indices are dealt round-robin onto one work-stealing deque
    per worker: owners consume their own share in ascending index order
    (so a one-worker pool degenerates to a plain sequential loop), idle
    workers steal from the back of a sibling's deque, so imbalanced
    workloads (one huge design among small ones) drain evenly without a
    central lock on the hot path.

    The pool shares {e nothing} between tasks: a task is expected to build
    its own world (its own [Net], [Trans] and BDD manager) inside the
    worker domain.  Results are collected keyed by task index, so the
    output of a run is independent of worker count and scheduling order —
    the foundation of the [-j]-invariance guarantees of [hsis fuzz] and
    [hsis check].

    Cancellation is cooperative and bridged through {!Limits}: the pool
    watches an optional pool-wide budget (deadline / user callback), and
    each task receives a [cancelled] thunk it can thread into its own
    engine-level [Limits.t] (see {!with_cancelled}).  [stop_when] turns on
    fail-fast mode: once a designated result (say, a definitive
    [Verdict.Fail]) lands, sibling tasks are cancelled — running ones see
    their [cancelled] thunk flip, queued ones are skipped and reported as
    [None]. *)

type stats = {
  jobs : int;  (** worker count actually used *)
  tasks : int;  (** tasks submitted *)
  completed : int;  (** tasks that ran to completion *)
  cancelled : int;  (** tasks skipped by cancellation / fail-fast *)
  steals : int;  (** successful steals from a sibling's deque *)
  wall : float;  (** wall-clock seconds for the whole run *)
  worker_tasks : int array;  (** per-worker tasks executed *)
  worker_busy : float array;  (** per-worker seconds spent inside tasks *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val max_jobs : int
(** Largest worker count {!run} can start: the OCaml 5.1/5.2 runtime runs
    at most 128 domains at once, and the calling domain is one of them.
    Front ends reject a larger [jobs] from outside input; {!run} clamps
    to it. *)

val utilization : stats -> float array
(** Per-worker busy / wall fraction (0 when wall is 0). *)

val with_cancelled : Limits.t -> (unit -> bool) -> Limits.t
(** [with_cancelled limits extra] composes [extra] into the budget's
    cancellation callback (keeping deadline / node / step quotas), so an
    engine polling the returned budget also observes pool-level
    cancellation. *)

val run :
  ?jobs:int ->
  ?limits:Limits.t ->
  ?stop_when:(int -> 'a -> bool) ->
  tasks:int ->
  (cancelled:(unit -> bool) -> int -> 'a) ->
  'a option array * stats
(** [run ~tasks f] executes [f ~cancelled i] for every [i] in
    [0 .. tasks-1] on [jobs] worker domains (default
    {!default_jobs}, clamped to [tasks] and {!max_jobs}; [jobs = 1] runs
    inline on the calling domain, no spawn) and returns the results keyed
    by task index.

    [results.(i) = None] iff task [i] was skipped by cancellation.
    [limits] is a pool-wide budget: once its deadline passes (or its own
    [cancelled] callback fires) no further task starts, and running tasks
    observe it through their [cancelled] thunk.  [stop_when i r] is
    consulted on each completed result; returning [true] cancels the
    remaining siblings (fail-fast).

    If a task raises, the exception with the smallest task index is
    re-raised on the calling domain after all workers have drained. *)

val map_array :
  ?jobs:int -> ?limits:Limits.t -> ('a -> 'b) -> 'a array -> 'b array * stats
(** Parallel [Array.map] (no fail-fast); cancellation by pool [limits]
    raises [Limits.Interrupted] rather than returning partial results. *)

val map :
  ?jobs:int -> ?limits:Limits.t -> ('a -> 'b) -> 'a list -> 'b list * stats
(** Parallel [List.map]; see {!map_array}. *)

val worker_samples : stats -> Obs.worker_sample list
(** The pool's per-worker activity as observability samples, ready to
    attach to a merged {!Obs.snapshot} (its [workers] member). *)
