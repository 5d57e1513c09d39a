(* Share-nothing parallel task execution on OCaml 5 domains.

   The shape is a classic fixed-size work-stealing pool specialized to a
   statically known task set: task indices are dealt round-robin onto one
   deque per worker up front, owners consume their own share FIFO from the
   front (so a one-worker pool runs tasks in ascending index order — what
   a sequential fail-fast caller expects), and an idle worker scans its
   siblings stealing from the back (the task its owner would reach last).
   Because no task ever enqueues further work, "every deque empty" is a
   sound termination condition: any remaining task is already executing in
   some worker.

   Deques are guarded by one mutex each rather than a lock-free Chase-Lev
   structure: tasks here are verification problems (milliseconds to
   minutes), so deque traffic is a few dozen operations per second and
   correctness-by-construction wins.  All cross-domain communication is
   the deques, one cancellation flag, one steal counter, and the results
   array — each slot of which is written by exactly one worker (the one
   that owns that task index) and read only after every domain is
   joined. *)

open Hsis_obs
open Hsis_limits

type stats = {
  jobs : int;
  tasks : int;
  completed : int;
  cancelled : int;
  steals : int;
  wall : float;
  worker_tasks : int array;
  worker_busy : float array;
}

let default_jobs () = Domain.recommended_domain_count ()
let max_jobs = 127

let utilization st =
  Array.map
    (fun busy -> if st.wall > 0.0 then busy /. st.wall else 0.0)
    st.worker_busy

let with_cancelled (l : Limits.t) extra =
  {
    l with
    Limits.cancelled =
      Some
        (match l.Limits.cancelled with
        | None -> extra
        | Some own -> fun () -> extra () || own ());
  }

(* ------------------------------------------------------------------ *)
(* Work-stealing deque (mutex-guarded; owner front, thieves back) *)

module Deque = struct
  type t = {
    lock : Mutex.t;
    buf : int array;  (** task indices; filled once at pool setup *)
    mutable top : int;  (** owner end (inclusive) *)
    mutable bot : int;  (** steal end (exclusive) *)
  }

  let of_list items =
    let buf = Array.of_list items in
    { lock = Mutex.create (); buf; top = 0; bot = Array.length buf }

  let locked d f =
    Mutex.lock d.lock;
    let r = f () in
    Mutex.unlock d.lock;
    r

  let pop d =
    locked d (fun () ->
        if d.bot <= d.top then None
        else begin
          let i = d.buf.(d.top) in
          d.top <- d.top + 1;
          Some i
        end)

  let steal d =
    locked d (fun () ->
        if d.bot <= d.top then None
        else begin
          d.bot <- d.bot - 1;
          Some d.buf.(d.bot)
        end)
end

(* ------------------------------------------------------------------ *)
(* The pool *)

type 'a slot = Empty | Done of 'a | Raised of exn * Printexc.raw_backtrace

let run ?jobs ?(limits = Limits.none) ?stop_when ~tasks f =
  let jobs =
    let j = match jobs with Some j -> max 1 j | None -> default_jobs () in
    max 1 (min (min j max_jobs) (max 1 tasks))
  in
  let t0 = Obs.Clock.now () in
  let cancel = Atomic.make false in
  let steals = Atomic.make 0 in
  let cancelled_tasks = Atomic.make 0 in
  (* Pool-wide budget: consulting [breach] with live:0 checks the user
     callback and the deadline but never the node quota, which is a
     per-manager notion the pool has no view of. *)
  let pool_cancelled () =
    Atomic.get cancel
    || (not (Limits.is_none limits))
       && (match Limits.breach limits ~live:0 with
          | Some _ ->
              Atomic.set cancel true;
              true
          | None -> false)
  in
  let results = Array.make tasks Empty in
  let worker_tasks = Array.make jobs 0 in
  let worker_busy = Array.make jobs 0.0 in
  (* Deal task indices round-robin; each worker's own list is ascending,
     so owners run their share lowest-index first and thieves take the
     highest (the one its owner would reach last) — either way every index
     runs exactly once. *)
  let deques =
    Array.init jobs (fun w ->
        Deque.of_list
          (List.filter (fun i -> i mod jobs = w) (List.init tasks Fun.id)))
  in
  let next_task w =
    match Deque.pop deques.(w) with
    | Some i -> Some i
    | None ->
        let rec scan k =
          if k >= jobs then None
          else
            match Deque.steal deques.((w + k) mod jobs) with
            | Some i ->
                Atomic.incr steals;
                Some i
            | None -> scan (k + 1)
        in
        scan 1
  in
  let worker w () =
    let rec loop () =
      match next_task w with
      | None -> ()
      | Some i ->
          if pool_cancelled () then begin
            Atomic.incr cancelled_tasks;
            loop ()
          end
          else begin
            let t1 = Obs.Clock.now () in
            (match f ~cancelled:pool_cancelled i with
            | r ->
                results.(i) <- Done r;
                (match stop_when with
                | Some p when p i r -> Atomic.set cancel true
                | _ -> ())
            | exception e ->
                results.(i) <- Raised (e, Printexc.get_raw_backtrace ());
                (* an exception is never part of a deterministic result
                   set: drain the pool and re-raise on the caller *)
                Atomic.set cancel true);
            worker_tasks.(w) <- worker_tasks.(w) + 1;
            worker_busy.(w) <- worker_busy.(w) +. (Obs.Clock.now () -. t1);
            loop ()
          end
    in
    loop ()
  in
  if jobs = 1 then worker 0 ()
  else begin
    let domains = Array.init jobs (fun w -> Domain.spawn (worker w)) in
    Array.iter Domain.join domains
  end;
  (* Deterministic error protocol: the smallest-index exception wins,
     whatever order the workers actually hit them in. *)
  Array.iter
    (function
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Empty | Done _ -> ())
    results;
  let completed =
    Array.fold_left
      (fun acc -> function Done _ -> acc + 1 | _ -> acc)
      0 results
  in
  let stats =
    {
      jobs;
      tasks;
      completed;
      cancelled = tasks - completed;
      steals = Atomic.get steals;
      wall = Obs.Clock.now () -. t0;
      worker_tasks;
      worker_busy;
    }
  in
  ( Array.map (function Done r -> Some r | _ -> None) results,
    stats )

let map_array ?jobs ?limits f xs =
  let results, stats =
    run ?jobs ?limits ~tasks:(Array.length xs) (fun ~cancelled:_ i ->
        f xs.(i))
  in
  ( Array.map
      (function
        | Some r -> r
        | None -> raise (Limits.Interrupted Limits.Cancelled))
      results,
    stats )

let map ?jobs ?limits f xs =
  let rs, stats = map_array ?jobs ?limits f (Array.of_list xs) in
  (Array.to_list rs, stats)

let worker_samples st =
  List.init st.jobs (fun w ->
      {
        Obs.w_tasks = st.worker_tasks.(w);
        Obs.w_time = st.worker_busy.(w);
      })
