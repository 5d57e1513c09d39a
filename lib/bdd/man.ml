(* Low-level BDD manager: hash-consed nodes in integer arenas, per-variable
   unique tables, computed caches, eager reference counting with deferred
   collection, and in-place adjacent-level swaps used by sifting.

   Node ids: 0 = logical false, 1 = logical true; real nodes start at 2.
   Convention: a node [(v, lo, hi)] denotes [if v then hi else lo], and the
   reduced-ordered invariant is [lo <> hi] with both children at strictly
   greater levels than [v]'s level.

   The two hot data structures are allocation-free flat arrays (see the
   "BDD manager memory layout" section of DESIGN.md):

   - Unique tables are CUDD-style chained subtables: one power-of-two
     [buckets : int array] of chain heads per variable, with collision
     chains threaded through node ids by the global [next_arr]. A [mk]
     probe is a few int-array reads — no tuple key, no polymorphic hash,
     no allocation.

   - The computed cache is a single direct-mapped lossy [int array] with
     four slots per entry (tag, f, g, result). The tag packs the operation
     code (5 bits) with the third operand (ite's else-branch, and_exists'
     cube, permute's map id), so ternary ops fit the same entry shape.
     Collisions overwrite (counted as evictions); GC and reordering wipe
     the cache by index range instead of rebuilding a hashtable. *)

open Hsis_obs
open Hsis_limits

type node_id = int

let false_id = 0
let true_id = 1

(* Computed-cache operation tags; all fit in the 5 low bits of a cache tag
   word, the extra operand (if any) is packed above them. *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_ite = 4
let op_exists = 5
let op_and_exists = 6
let op_restrict = 7
let op_constrain = 8
let op_permute = 9
(* permute cache tags pack the registered map id as the extra operand *)

let num_op_slots = 10

let op_names =
  [| "and"; "or"; "xor"; "not"; "ite"; "exists"; "and_exists"; "restrict";
     "constrain"; "permute" |]

(* One variable's unique table: power-of-two bucket heads; collision chains
   live in the manager-wide [next_arr]. *)
type subtable = {
  mutable buckets : int array; (* chain head per hash of (lo, hi); -1 empty *)
  mutable st_count : int; (* nodes currently chained in this subtable *)
}

type t = {
  mutable var_arr : int array; (* node -> variable index, -1 when free *)
  mutable lo_arr : int array; (* node -> else-child; freelist thread when free *)
  mutable hi_arr : int array; (* node -> then-child *)
  mutable rc_arr : int array; (* node -> internal parents + external refs *)
  mutable next_arr : int array; (* node -> next in its unique-table chain *)
  mutable used : int; (* high-water mark of allocated ids *)
  mutable free_list : int; (* head of freed ids, -1 when empty *)
  mutable nodecount : int; (* allocated, not yet freed (live + dead) *)
  mutable deadcount : int; (* allocated nodes whose rc dropped to 0 *)
  mutable subtables : subtable array; (* unique table per var *)
  mutable perm : int array; (* var -> level *)
  mutable invperm : int array; (* level -> var *)
  mutable nvars : int;
  mutable names : string array;
  (* direct-mapped computed cache: 4 ints per entry (tag, f, g, result);
     tag -1 marks an empty entry *)
  mutable cache : int array;
  mutable cache_mask : int; (* entry count - 1 (power of two) *)
  mutable cache_used : int; (* occupied entries (gauge) *)
  mutable cache_evictions : int; (* overwrites of live entries (counter) *)
  satcache : (int, float) Hashtbl.t;
  mutable maps : int array array; (* registered permutation maps *)
  mutable gc_enabled : bool;
  mutable gc_threshold : int;
  mutable gc_runs : int;
  mutable reorder_runs : int;
  mutable auto_reorder : bool;
  mutable reorder_threshold : int;
  (* observability counters (see Obs): per-op computed-cache hits/misses,
     cumulative GC/reorder wall time, and the live-node high-water mark *)
  cache_hits : int array;
  cache_misses : int array;
  mutable gc_freed : int;
  mutable gc_time : float;
  mutable reorder_time : float;
  mutable peak_live : int;
  (* resource governor *)
  mutable limits : Limits.t;
  mutable limit_countdown : int; (* cache misses until the next budget poll *)
  mutable limit_checks : int; (* budget polls performed (counter) *)
  mutable intr_deadline : int; (* interrupts raised, per reason (counters) *)
  mutable intr_nodes : int;
  mutable intr_steps : int;
  mutable intr_cancelled : int;
  (* snapshot traffic: Bdd.export/Bdd.import activity on this manager *)
  mutable snap_exports : int;
  mutable snap_imports : int;
  mutable snap_nodes : int;
  mutable snap_bytes : int;
  mutable snap_export_time : float;
  mutable snap_import_time : float;
}

let initial_cache_slots = 1 lsl 12
let max_cache_slots = 1 lsl 21
let initial_bucket_count = 16

let create ?(initial_capacity = 1 lsl 12) () =
  let cap = max 16 initial_capacity in
  {
    var_arr = Array.make cap (-1);
    lo_arr = Array.make cap (-1);
    hi_arr = Array.make cap (-1);
    rc_arr = Array.make cap 0;
    next_arr = Array.make cap (-1);
    used = 2;
    free_list = -1;
    nodecount = 0;
    deadcount = 0;
    subtables = [||];
    perm = [||];
    invperm = [||];
    nvars = 0;
    names = [||];
    cache = Array.make (4 * initial_cache_slots) (-1);
    cache_mask = initial_cache_slots - 1;
    cache_used = 0;
    cache_evictions = 0;
    satcache = Hashtbl.create 64;
    maps = [||];
    gc_enabled = true;
    gc_threshold = 1 lsl 18;
    gc_runs = 0;
    reorder_runs = 0;
    auto_reorder = false;
    reorder_threshold = 1 lsl 20;
    cache_hits = Array.make num_op_slots 0;
    cache_misses = Array.make num_op_slots 0;
    gc_freed = 0;
    gc_time = 0.0;
    reorder_time = 0.0;
    peak_live = 0;
    limits = Limits.none;
    limit_countdown = max_int;
    limit_checks = 0;
    intr_deadline = 0;
    intr_nodes = 0;
    intr_steps = 0;
    intr_cancelled = 0;
    snap_exports = 0;
    snap_imports = 0;
    snap_nodes = 0;
    snap_bytes = 0;
    snap_export_time = 0.0;
    snap_import_time = 0.0;
  }

let is_const u = u < 2
let terminal_level = max_int

let level m u = if is_const u then terminal_level else m.perm.(m.var_arr.(u))
let var m u = m.var_arr.(u)
let lo m u = m.lo_arr.(u)
let hi m u = m.hi_arr.(u)
let num_vars m = m.nvars
let node_count m = m.nodecount - m.deadcount

let name_of_var m v =
  if v >= 0 && v < Array.length m.names && m.names.(v) <> "" then m.names.(v)
  else "v" ^ string_of_int v

(* ------------------------------------------------------------------ *)
(* Unique-table hashing *)

(* Cheap multiplicative mix of a child pair onto a power-of-two range.
   Multiplication wraps silently in OCaml's native ints; [land mask]
   discards the sign, so negative intermediates are harmless. *)
let[@inline] utbl_hash lo_child hi_child mask =
  let h = (lo_child * 0x9e3779b1) lxor (hi_child * 0x7feb352d) in
  (h lxor (h lsr 16)) land mask

let fresh_subtable () =
  { buckets = Array.make initial_bucket_count (-1); st_count = 0 }

(* Double a subtable and re-thread every chained node; no allocation per
   node — the chains are relinked in place through [next_arr]. *)
let grow_subtable m st =
  let old = st.buckets in
  let nmask = (2 * Array.length old) - 1 in
  let nb = Array.make (nmask + 1) (-1) in
  Array.iter
    (fun head ->
      let id = ref head in
      while !id >= 0 do
        let nxt = m.next_arr.(!id) in
        let h = utbl_hash m.lo_arr.(!id) m.hi_arr.(!id) nmask in
        m.next_arr.(!id) <- nb.(h);
        nb.(h) <- !id;
        id := nxt
      done)
    old;
  st.buckets <- nb

(* Unlink a node from its variable's unique table. Must be called while
   the node's [lo]/[hi] (and hence its hash) are still intact. *)
let unlink_node m v id =
  let st = m.subtables.(v) in
  let h = utbl_hash m.lo_arr.(id) m.hi_arr.(id) (Array.length st.buckets - 1) in
  if st.buckets.(h) = id then st.buckets.(h) <- m.next_arr.(id)
  else begin
    let p = ref st.buckets.(h) in
    while m.next_arr.(!p) <> id do
      p := m.next_arr.(!p)
    done;
    m.next_arr.(!p) <- m.next_arr.(id)
  end;
  st.st_count <- st.st_count - 1

(* ------------------------------------------------------------------ *)
(* Variables *)

let new_var ?(name = "") m =
  let v = m.nvars in
  m.nvars <- v + 1;
  let grow a fill =
    let old = Array.length a in
    if v >= old then begin
      let b = Array.make (max 8 (2 * (v + 1))) fill in
      Array.blit a 0 b 0 old;
      b
    end
    else a
  in
  m.perm <- grow m.perm 0;
  m.invperm <- grow m.invperm 0;
  m.names <-
    (let old = Array.length m.names in
     if v >= old then begin
       let b = Array.make (max 8 (2 * (v + 1))) "" in
       Array.blit m.names 0 b 0 old;
       b
     end
     else m.names);
  m.subtables <-
    (let old = Array.length m.subtables in
     if v >= old then
       Array.init (max 8 (2 * (v + 1))) (fun i ->
           if i < old then m.subtables.(i) else fresh_subtable ())
     else m.subtables);
  m.perm.(v) <- v;
  m.invperm.(v) <- v;
  m.names.(v) <- name;
  v

(* ------------------------------------------------------------------ *)
(* Reference counting and node allocation *)

let incr_ref m u =
  if not (is_const u) then begin
    let rc = m.rc_arr.(u) in
    if rc = 0 then begin
      m.deadcount <- m.deadcount - 1;
      let live = m.nodecount - m.deadcount in
      if live > m.peak_live then m.peak_live <- live
    end;
    m.rc_arr.(u) <- rc + 1
  end

let decr_ref m u =
  if not (is_const u) then begin
    let rc = m.rc_arr.(u) in
    if rc <= 0 then invalid_arg "Man.decr_ref: reference count underflow";
    m.rc_arr.(u) <- rc - 1;
    if rc = 1 then m.deadcount <- m.deadcount + 1
  end

let grow_arenas m needed =
  let old = Array.length m.var_arr in
  if needed >= old then begin
    let ncap = max (2 * old) (needed + 1) in
    let g a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 old;
      b
    in
    m.var_arr <- g m.var_arr (-1);
    m.lo_arr <- g m.lo_arr (-1);
    m.hi_arr <- g m.hi_arr (-1);
    m.rc_arr <- g m.rc_arr 0;
    m.next_arr <- g m.next_arr (-1)
  end

let alloc_id m =
  if m.free_list >= 0 then begin
    let id = m.free_list in
    m.free_list <- m.lo_arr.(id);
    id
  end
  else begin
    let id = m.used in
    grow_arenas m id;
    m.used <- id + 1;
    id
  end

(* [mk v lo hi] returns the canonical node for [if v then hi else lo].
   Children reference counts are incremented only when a fresh node is
   created (they gain one new internal parent). The probe walks the
   variable's bucket chain by raw int reads — no allocation on hit or
   miss. *)
let mk m v lo_child hi_child =
  if lo_child = hi_child then lo_child
  else begin
    let st = m.subtables.(v) in
    let mask = Array.length st.buckets - 1 in
    let h = utbl_hash lo_child hi_child mask in
    let rec find id =
      if id < 0 then -1
      else if m.lo_arr.(id) = lo_child && m.hi_arr.(id) = hi_child then id
      else find m.next_arr.(id)
    in
    let found = find st.buckets.(h) in
    if found >= 0 then found
    else begin
      let id = alloc_id m in
      m.var_arr.(id) <- v;
      m.lo_arr.(id) <- lo_child;
      m.hi_arr.(id) <- hi_child;
      m.rc_arr.(id) <- 0;
      m.nodecount <- m.nodecount + 1;
      m.deadcount <- m.deadcount + 1;
      incr_ref m lo_child;
      incr_ref m hi_child;
      m.next_arr.(id) <- st.buckets.(h);
      st.buckets.(h) <- id;
      st.st_count <- st.st_count + 1;
      (* Keep chains short: grow once the load factor reaches 4. *)
      if st.st_count > 4 * (mask + 1) then grow_subtable m st;
      id
    end
  end

let ithvar m v = mk m v false_id true_id
let nithvar m v = mk m v true_id false_id

(* ------------------------------------------------------------------ *)
(* Computed cache: direct-mapped, lossy, one flat int array *)

(* tag = op lor (extra lsl 5): [extra] is ite's else-branch, and_exists'
   cube, or permute's map id; 0 for binary/unary ops. *)
let[@inline] cache_hash tag f g mask =
  let h = (tag * 0x9e3779b1) + (f * 0x85ebca77) + (g * 0x27d4eb2f) in
  (h lxor (h lsr 21)) land mask

let cache_wipe m =
  Array.fill m.cache 0 (Array.length m.cache) (-1);
  m.cache_used <- 0

let clear_caches m =
  cache_wipe m;
  Hashtbl.reset m.satcache

(* ------------------------------------------------------------------ *)
(* Resource governor *)

exception Interrupted = Limits.Interrupted

(* The budget is polled every [limit_poll_interval] computed-cache misses:
   each miss is one real recursive apply step, so the poll cost is
   amortized over actual work, and a run that keeps hitting the cache (no
   new nodes, no new work) still gets polled from [entry_hook]. *)
let limit_poll_interval = 256

let note_interrupt m (r : Limits.reason) =
  match r with
  | Limits.Limit_deadline -> m.intr_deadline <- m.intr_deadline + 1
  | Limits.Limit_nodes -> m.intr_nodes <- m.intr_nodes + 1
  | Limits.Limit_steps -> m.intr_steps <- m.intr_steps + 1
  | Limits.Cancelled -> m.intr_cancelled <- m.intr_cancelled + 1

(* Consistency protocol on a breach: wipe the computed caches *before*
   raising, so no entry built by the aborted recursion survives (its
   result nodes may become dead and be reclaimed).  Intermediate nodes
   themselves are ordinary rc-0 arena entries picked up by the next
   collection — the unique tables and refcounts stay audit-clean
   ([check m] passes right after an interrupt). *)
let[@inline never] do_limit_check m =
  if Limits.is_none m.limits then m.limit_countdown <- max_int
  else begin
    m.limit_countdown <- limit_poll_interval;
    m.limit_checks <- m.limit_checks + 1;
    match Limits.breach m.limits ~live:(m.nodecount - m.deadcount) with
    | None -> ()
    | Some r ->
        note_interrupt m r;
        clear_caches m;
        raise (Interrupted r)
  end

let set_limits m l =
  m.limits <- l;
  (* Poll at the next opportunity so a freshly armed (or disarmed) budget
     takes effect immediately. *)
  m.limit_countdown <- 0

let limits m = m.limits

(* Probe; returns the cached node id or -1 on miss (node ids are always
   non-negative). The op's hit/miss counters are bumped as a side effect,
   and the miss path — one per recursive apply step — drives the
   amortized budget poll. *)
let[@inline] cache_lookup m slot tag f g =
  let i = 4 * cache_hash tag f g m.cache_mask in
  let c = m.cache in
  if c.(i) = tag && c.(i + 1) = f && c.(i + 2) = g then begin
    m.cache_hits.(slot) <- m.cache_hits.(slot) + 1;
    c.(i + 3)
  end
  else begin
    m.cache_misses.(slot) <- m.cache_misses.(slot) + 1;
    m.limit_countdown <- m.limit_countdown - 1;
    if m.limit_countdown <= 0 then do_limit_check m;
    -1
  end

let[@inline] cache_store m tag f g r =
  let i = 4 * cache_hash tag f g m.cache_mask in
  let c = m.cache in
  let t0 = c.(i) in
  if t0 < 0 then m.cache_used <- m.cache_used + 1
  else if not (t0 = tag && c.(i + 1) = f && c.(i + 2) = g) then
    m.cache_evictions <- m.cache_evictions + 1;
  c.(i) <- tag;
  c.(i + 1) <- f;
  c.(i + 2) <- g;
  c.(i + 3) <- r

(* Size the cache against the live-node count: grow (wiping — the cache is
   lossy anyway) whenever live nodes outnumber entries 2:1, up to a cap.
   Called only at operation-entry boundaries, never mid-recursion. *)
let maybe_resize_cache m =
  let live = m.nodecount - m.deadcount in
  let slots = m.cache_mask + 1 in
  if slots < max_cache_slots && live > 2 * slots then begin
    let nslots = ref slots in
    while !nslots < max_cache_slots && live > 2 * !nslots do
      nslots := 2 * !nslots
    done;
    m.cache <- Array.make (4 * !nslots) (-1);
    m.cache_mask <- !nslots - 1;
    m.cache_used <- 0
  end

(* ------------------------------------------------------------------ *)
(* Collection of dead nodes *)

(* Free a node known dead: unlink from its unique table, release children
   (cascading via the worklist), thread onto the freelist. *)
let collect m =
  let t0 = Obs.Clock.now () in
  clear_caches m;
  let stack = ref [] in
  for id = 2 to m.used - 1 do
    if m.var_arr.(id) >= 0 && m.rc_arr.(id) = 0 then stack := id :: !stack
  done;
  let freed = ref 0 in
  let rec drain () =
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        (* A node on the stack may have been resurrected or already freed. *)
        if m.var_arr.(id) >= 0 && m.rc_arr.(id) = 0 then begin
          let v = m.var_arr.(id) and l = m.lo_arr.(id) and h = m.hi_arr.(id) in
          unlink_node m v id;
          m.var_arr.(id) <- -1;
          m.lo_arr.(id) <- m.free_list;
          m.free_list <- id;
          m.nodecount <- m.nodecount - 1;
          m.deadcount <- m.deadcount - 1;
          incr freed;
          let release c =
            if not (is_const c) then begin
              decr_ref m c;
              if m.rc_arr.(c) = 0 then stack := c :: !stack
            end
          in
          release l;
          release h
        end;
        drain ()
  in
  drain ();
  m.gc_runs <- m.gc_runs + 1;
  m.gc_freed <- m.gc_freed + !freed;
  m.gc_time <- m.gc_time +. (Obs.Clock.now () -. t0);
  !freed

let maybe_collect m =
  if m.gc_enabled && m.nodecount > m.gc_threshold then begin
    let freed = collect m in
    (* If collection reclaimed little, raise the bar to avoid thrashing. *)
    if freed < m.gc_threshold / 4 then m.gc_threshold <- 2 * m.gc_threshold
  end

let set_gc_enabled m b = m.gc_enabled <- b
let set_gc_threshold m n = m.gc_threshold <- max 16 n

(* ------------------------------------------------------------------ *)
(* Core operations; all recursion is over raw ids and never collects. *)

let cofactors m u v =
  if is_const u || m.var_arr.(u) <> v then (u, u)
  else (m.lo_arr.(u), m.hi_arr.(u))

let top_of2 m f g =
  let lf = level m f and lg = level m g in
  if lf <= lg then m.var_arr.(f) else m.var_arr.(g)

let rec apply_and m f g =
  if f = g then f
  else if f = false_id || g = false_id then false_id
  else if f = true_id then g
  else if g = true_id then f
  else begin
    let f, g = if f < g then (f, g) else (g, f) in
    let r = cache_lookup m op_and op_and f g in
    if r >= 0 then r
    else begin
      let v = top_of2 m f g in
      let f0, f1 = cofactors m f v and g0, g1 = cofactors m g v in
      let r0 = apply_and m f0 g0 in
      let r1 = apply_and m f1 g1 in
      let r = mk m v r0 r1 in
      cache_store m op_and f g r;
      r
    end
  end

let rec apply_or m f g =
  if f = g then f
  else if f = true_id || g = true_id then true_id
  else if f = false_id then g
  else if g = false_id then f
  else begin
    let f, g = if f < g then (f, g) else (g, f) in
    let r = cache_lookup m op_or op_or f g in
    if r >= 0 then r
    else begin
      let v = top_of2 m f g in
      let f0, f1 = cofactors m f v and g0, g1 = cofactors m g v in
      let r0 = apply_or m f0 g0 in
      let r1 = apply_or m f1 g1 in
      let r = mk m v r0 r1 in
      cache_store m op_or f g r;
      r
    end
  end

let rec apply_xor m f g =
  if f = g then false_id
  else if f = false_id then g
  else if g = false_id then f
  else begin
    let f, g = if f < g then (f, g) else (g, f) in
    let r = cache_lookup m op_xor op_xor f g in
    if r >= 0 then r
    else begin
      let v = top_of2 m f g in
      let f0, f1 = cofactors m f v and g0, g1 = cofactors m g v in
      let r0 = apply_xor m f0 g0 in
      let r1 = apply_xor m f1 g1 in
      let r = mk m v r0 r1 in
      cache_store m op_xor f g r;
      r
    end
  end

let rec apply_not m f =
  if f = false_id then true_id
  else if f = true_id then false_id
  else begin
    let r = cache_lookup m op_not op_not f 0 in
    if r >= 0 then r
    else begin
      let v = m.var_arr.(f) in
      let r = mk m v (apply_not m m.lo_arr.(f)) (apply_not m m.hi_arr.(f)) in
      cache_store m op_not f 0 r;
      r
    end
  end

let rec apply_ite m f g h =
  if f = true_id then g
  else if f = false_id then h
  else if g = h then g
  else if g = true_id && h = false_id then f
  else if g = false_id && h = true_id then apply_not m f
  else begin
    let tag = op_ite lor (h lsl 5) in
    let r = cache_lookup m op_ite tag f g in
    if r >= 0 then r
    else begin
      let lf = level m f and lg = level m g and lh = level m h in
      let lmin = min lf (min lg lh) in
      let v = m.invperm.(lmin) in
      let f0, f1 = cofactors m f v in
      let g0, g1 = cofactors m g v in
      let h0, h1 = cofactors m h v in
      let r0 = apply_ite m f0 g0 h0 in
      let r1 = apply_ite m f1 g1 h1 in
      let r = mk m v r0 r1 in
      cache_store m tag f g r;
      r
    end
  end

(* Existential quantification of the positive cube [cube] from [f]. *)
let rec apply_exists m f cube =
  if is_const f || cube = true_id then f
  else begin
    let lf = level m f in
    (* Skip cube variables above f's support. *)
    let rec advance cube =
      if cube = true_id then cube
      else if level m cube < lf then advance m.hi_arr.(cube)
      else cube
    in
    let cube = advance cube in
    if cube = true_id then f
    else begin
      let r = cache_lookup m op_exists op_exists f cube in
      if r >= 0 then r
      else begin
        let v = m.var_arr.(f) in
        let r =
          if level m cube = lf then begin
            let r0 = apply_exists m m.lo_arr.(f) m.hi_arr.(cube) in
            let r1 = apply_exists m m.hi_arr.(f) m.hi_arr.(cube) in
            apply_or m r0 r1
          end
          else begin
            let r0 = apply_exists m m.lo_arr.(f) cube in
            let r1 = apply_exists m m.hi_arr.(f) cube in
            mk m v r0 r1
          end
        in
        cache_store m op_exists f cube r;
        r
      end
    end
  end

(* Relational product: exists cube (f /\ g), without building f /\ g. *)
let rec apply_and_exists m f g cube =
  if f = false_id || g = false_id then false_id
  else if cube = true_id then apply_and m f g
  else if f = true_id then apply_exists m g cube
  else if g = true_id then apply_exists m f cube
  else begin
    let f, g = if f < g then (f, g) else (g, f) in
    let lf = level m f and lg = level m g in
    let ltop = min lf lg in
    let rec advance cube =
      if cube = true_id then cube
      else if level m cube < ltop then advance m.hi_arr.(cube)
      else cube
    in
    let cube = advance cube in
    if cube = true_id then apply_and m f g
    else begin
      let tag = op_and_exists lor (cube lsl 5) in
      let r = cache_lookup m op_and_exists tag f g in
      if r >= 0 then r
      else begin
        let v = m.invperm.(ltop) in
        let f0, f1 = cofactors m f v and g0, g1 = cofactors m g v in
        let r =
          if level m cube = ltop then begin
            let r0 = apply_and_exists m f0 g0 m.hi_arr.(cube) in
            if r0 = true_id then true_id
            else begin
              let r1 = apply_and_exists m f1 g1 m.hi_arr.(cube) in
              apply_or m r0 r1
            end
          end
          else begin
            let r0 = apply_and_exists m f0 g0 cube in
            let r1 = apply_and_exists m f1 g1 cube in
            mk m v r0 r1
          end
        in
        cache_store m tag f g r;
        r
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Permutation (variable relabeling) *)

let register_map m map =
  let id = Array.length m.maps in
  m.maps <- Array.append m.maps [| Array.copy map |];
  id

let rec apply_permute m map_id map f =
  if is_const f then f
  else begin
    let tag = op_permute lor (map_id lsl 5) in
    let r = cache_lookup m op_permute tag f 0 in
    if r >= 0 then r
    else begin
      let v = m.var_arr.(f) in
      let nv = if v < Array.length map then map.(v) else v in
      let r0 = apply_permute m map_id map m.lo_arr.(f) in
      let r1 = apply_permute m map_id map m.hi_arr.(f) in
      (* The image variable must still sit above both rewritten children;
         relabelings used here (present<->next swaps) preserve levels
         pairwise, so [mk] keeps canonicity. Build via ite to stay safe
         even if the permutation is not level-monotonic. *)
      let r =
        let lv = m.perm.(nv) in
        if level m r0 > lv && level m r1 > lv then mk m nv r0 r1
        else apply_ite m (ithvar m nv) r1 r0
      in
      cache_store m tag f 0 r;
      r
    end
  end

(* ------------------------------------------------------------------ *)
(* Don't-care minimization *)

let rec apply_restrict m f c =
  if c = true_id || is_const f then f
  else if c = false_id then f
  else begin
    let r = cache_lookup m op_restrict op_restrict f c in
    if r >= 0 then r
    else begin
      let lf = level m f and lc = level m c in
      let r =
        if lc < lf then
          (* variable absent from f: merge the two care branches *)
          apply_restrict m f (apply_or m m.lo_arr.(c) m.hi_arr.(c))
        else begin
          let v = m.var_arr.(f) in
          let c0, c1 = cofactors m c v in
          if c0 = false_id then apply_restrict m m.hi_arr.(f) c1
          else if c1 = false_id then apply_restrict m m.lo_arr.(f) c0
          else
            mk m v
              (apply_restrict m m.lo_arr.(f) c0)
              (apply_restrict m m.hi_arr.(f) c1)
        end
      in
      cache_store m op_restrict f c r;
      r
    end
  end

let rec apply_constrain m f c =
  if c = true_id || is_const f then f
  else if c = false_id then false_id
  else if f = c then true_id
  else begin
    let r = cache_lookup m op_constrain op_constrain f c in
    if r >= 0 then r
    else begin
      let lf = level m f and lc = level m c in
      let lmin = min lf lc in
      let v = m.invperm.(lmin) in
      let f0, f1 = cofactors m f v and c0, c1 = cofactors m c v in
      let r =
        if c0 = false_id then apply_constrain m f1 c1
        else if c1 = false_id then apply_constrain m f0 c0
        else mk m v (apply_constrain m f0 c0) (apply_constrain m f1 c1)
      in
      cache_store m op_constrain f c r;
      r
    end
  end

(* ------------------------------------------------------------------ *)
(* Structural queries *)

let support m f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 16 in
  let rec go u =
    if (not (is_const u)) && not (Hashtbl.mem seen u) then begin
      Hashtbl.add seen u ();
      Hashtbl.replace vars m.var_arr.(u) ();
      go m.lo_arr.(u);
      go m.hi_arr.(u)
    end
  in
  go f;
  let l = Hashtbl.fold (fun v () acc -> v :: acc) vars [] in
  List.sort compare l

let dag_size m f =
  let seen = Hashtbl.create 64 in
  let rec go u acc =
    if is_const u || Hashtbl.mem seen u then acc
    else begin
      Hashtbl.add seen u ();
      go m.hi_arr.(u) (go m.lo_arr.(u) (acc + 1))
    end
  in
  go f 0

(* Number of satisfying assignments over [n] variables. *)
let satcount m f n =
  Hashtbl.reset m.satcache;
  let rec go u =
    if u = false_id then 0.0
    else if u = true_id then 1.0
    else
      match Hashtbl.find_opt m.satcache u with
      | Some c -> c
      | None ->
          let l = m.lo_arr.(u) and h = m.hi_arr.(u) in
          let lev_u = level m u in
          let gap c =
            let lev_c = if is_const c then n else level m c in
            Float.of_int (lev_c - lev_u - 1)
          in
          let c = (go l *. (2.0 ** gap l)) +. (go h *. (2.0 ** gap h)) in
          Hashtbl.replace m.satcache u c;
          c
  in
  if is_const f then if f = true_id then 2.0 ** Float.of_int n else 0.0
  else go f *. (2.0 ** Float.of_int (level m f))

(* Number of satisfying assignments over exactly the variables in [vars]
   (the support of [f] must be a subset).  Levels outside [vars] contribute
   no factor. *)
let satcount_vars m f vars =
  let levels = List.sort compare (List.map (fun v -> m.perm.(v)) vars) in
  let k = List.length levels in
  (* rank.(i): number of counted levels strictly below level i; plus a
     sentinel giving k for the terminal level. *)
  let rank =
    let tbl = Hashtbl.create (2 * k) in
    List.iteri (fun i l -> Hashtbl.replace tbl l i) levels;
    fun l ->
      if l = terminal_level then k
      else
        match Hashtbl.find_opt tbl l with
        | Some i -> i
        | None ->
            (* level not counted: rank = number of counted levels below *)
            let rec count i = function
              | [] -> i
              | x :: rest -> if x < l then count (i + 1) rest else i
            in
            count 0 levels
  in
  let memo = Hashtbl.create 64 in
  let rec go u =
    if u = false_id then 0.0
    else if u = true_id then 1.0
    else
      match Hashtbl.find_opt memo u with
      | Some c -> c
      | None ->
          let lu = level m u in
          let branch c =
            let skipped = rank (level m c) - rank lu - 1 in
            go c *. (2.0 ** Float.of_int skipped)
          in
          let c = branch m.lo_arr.(u) +. branch m.hi_arr.(u) in
          Hashtbl.replace memo u c;
          c
  in
  if f = false_id then 0.0
  else if f = true_id then 2.0 ** Float.of_int k
  else go f *. (2.0 ** Float.of_int (rank (level m f)))

(* One satisfying path as [(var, value)] pairs; raises [Not_found] on 0. *)
let pick_cube m f =
  if f = false_id then raise Not_found;
  let rec go u acc =
    if u = true_id then List.rev acc
    else begin
      let v = m.var_arr.(u) in
      if m.lo_arr.(u) <> false_id then go m.lo_arr.(u) ((v, false) :: acc)
      else go m.hi_arr.(u) ((v, true) :: acc)
    end
  in
  go f []

(* Iterate all satisfying cubes (paths to 1); values: Some b or None (free). *)
let iter_cubes m f ~nvars:(_ : int) k =
  let assign = Hashtbl.create 16 in
  let rec go u =
    if u = true_id then
      k (fun v -> Hashtbl.find_opt assign v)
    else if u <> false_id then begin
      let v = m.var_arr.(u) in
      Hashtbl.replace assign v false;
      go m.lo_arr.(u);
      Hashtbl.replace assign v true;
      go m.hi_arr.(u);
      Hashtbl.remove assign v
    end
  in
  go f

(* Evaluate under a total assignment given as a function var -> bool. *)
let rec eval m f env =
  if f = true_id then true
  else if f = false_id then false
  else if env m.var_arr.(f) then eval m m.hi_arr.(f) env
  else eval m m.lo_arr.(f) env

(* ------------------------------------------------------------------ *)
(* Consistency checking (used by the test suite) *)

let check m =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* Per-node structural invariants + unique-table membership. *)
  for id = 2 to m.used - 1 do
    let v = m.var_arr.(id) in
    if v >= 0 then begin
      let l = m.lo_arr.(id) and h = m.hi_arr.(id) in
      if l = h then err "node %d: lo = hi" id;
      if level m id >= level m l then err "node %d: lo level order" id;
      if level m id >= level m h then err "node %d: hi level order" id;
      let st = m.subtables.(v) in
      let mask = Array.length st.buckets - 1 in
      let rec find id' =
        if id' < 0 then -1
        else if m.lo_arr.(id') = l && m.hi_arr.(id') = h then id'
        else find m.next_arr.(id')
      in
      match find st.buckets.(utbl_hash l h mask) with
      | id' when id' = id -> ()
      | -1 -> err "node %d: missing from unique table" id
      | id' -> err "node %d: duplicate of %d in unique table" id id'
    end
  done;
  (* Arena-wide canonicity: no two live nodes share a (var, lo, hi)
     triple, even across different hash buckets. *)
  let triples = Hashtbl.create 256 in
  for id = 2 to m.used - 1 do
    if m.var_arr.(id) >= 0 then begin
      let key = (m.var_arr.(id), m.lo_arr.(id), m.hi_arr.(id)) in
      (match Hashtbl.find_opt triples key with
      | Some other -> err "node %d: same (var,lo,hi) as node %d" id other
      | None -> ());
      Hashtbl.replace triples key id
    end
  done;
  (* Subtable bookkeeping: every chained id belongs to the variable, and
     the per-subtable counts match the chains. *)
  let chained = ref 0 in
  for v = 0 to m.nvars - 1 do
    let st = m.subtables.(v) in
    let cnt = ref 0 in
    Array.iter
      (fun head ->
        let id = ref head in
        let steps = ref 0 in
        while !id >= 0 && !steps <= m.used do
          if m.var_arr.(!id) <> v then
            err "node %d: chained under var %d but labeled %d" !id v
              m.var_arr.(!id);
          incr cnt;
          incr steps;
          id := m.next_arr.(!id)
        done;
        if !steps > m.used then err "var %d: unique-table chain cycle" v)
      st.buckets;
    if !cnt <> st.st_count then
      err "var %d: subtable count %d but %d chained" v st.st_count !cnt;
    chained := !chained + !cnt
  done;
  if !chained <> m.nodecount then
    err "unique tables hold %d nodes but arena has %d allocated" !chained
      m.nodecount;
  (* Freelist: freed slots are unlabeled, and freed + allocated covers the
     arena's used range. *)
  let free = ref 0 in
  let fl = ref m.free_list in
  while !fl >= 0 && !free <= m.used do
    if m.var_arr.(!fl) <> -1 then err "freelist node %d still labeled" !fl;
    incr free;
    fl := m.lo_arr.(!fl)
  done;
  if !free > m.used then err "freelist cycle"
  else if !free + m.nodecount <> m.used - 2 then
    err "freelist %d + allocated %d <> used %d" !free m.nodecount (m.used - 2);
  (* Internal-parent counts must never exceed stored reference counts. *)
  let parents = Hashtbl.create 256 in
  let bump u =
    if not (is_const u) then
      Hashtbl.replace parents u (1 + Option.value ~default:0 (Hashtbl.find_opt parents u))
  in
  for id = 2 to m.used - 1 do
    if m.var_arr.(id) >= 0 then begin
      bump m.lo_arr.(id);
      bump m.hi_arr.(id)
    end
  done;
  Hashtbl.iter
    (fun u p ->
      if m.rc_arr.(u) < p then err "node %d: rc %d < parents %d" u m.rc_arr.(u) p)
    parents;
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Dynamic reordering: adjacent-level swap + sifting *)

(* Remove dead node [id] during a swap; children may cascade. *)
let rec purge m id =
  if m.var_arr.(id) >= 0 && m.rc_arr.(id) = 0 then begin
    let v = m.var_arr.(id) and l = m.lo_arr.(id) and h = m.hi_arr.(id) in
    unlink_node m v id;
    m.var_arr.(id) <- -1;
    m.lo_arr.(id) <- m.free_list;
    m.free_list <- id;
    m.nodecount <- m.nodecount - 1;
    m.deadcount <- m.deadcount - 1;
    let release c =
      if not (is_const c) then begin
        decr_ref m c;
        if m.rc_arr.(c) = 0 then purge m c
      end
    in
    release l;
    release h
  end

(* All node ids currently chained in a variable's unique table. *)
let subtable_nodes m v =
  let acc = ref [] in
  Array.iter
    (fun head ->
      let id = ref head in
      while !id >= 0 do
        acc := !id :: !acc;
        id := m.next_arr.(!id)
      done)
    m.subtables.(v).buckets;
  !acc

(* Swap the variables at levels [l] and [l+1]. Caches must be clear.

   Unique-table protocol: a rewritten node keeps its id but changes both
   its variable (x -> y) and its children, so it is unlinked from x's
   subtable while its old (lo, hi) key is still intact, then re-chained
   into y's subtable under the new key. The two [mk] calls that build the
   new children go through x's subtable as usual and can never collide
   with the stale entry (the keys differ because children sit at strictly
   greater levels). *)
let swap_levels m l =
  let x = m.invperm.(l) and y = m.invperm.(l + 1) in
  let xs = subtable_nodes m x in
  let rewrite id =
    if m.var_arr.(id) = x then begin
      if m.rc_arr.(id) = 0 then purge m id
      else begin
        let f0 = m.lo_arr.(id) and f1 = m.hi_arr.(id) in
        let dep0 = (not (is_const f0)) && m.var_arr.(f0) = y in
        let dep1 = (not (is_const f1)) && m.var_arr.(f1) = y in
        if dep0 || dep1 then begin
          let f00 = if dep0 then m.lo_arr.(f0) else f0 in
          let f01 = if dep0 then m.hi_arr.(f0) else f0 in
          let f10 = if dep1 then m.lo_arr.(f1) else f1 in
          let f11 = if dep1 then m.hi_arr.(f1) else f1 in
          (* New structure: y ? (x ? f11 : f01) : (x ? f10 : f00) *)
          let c0 = mk m x f00 f10 in
          incr_ref m c0;
          let c1 = mk m x f01 f11 in
          incr_ref m c1;
          (* Unlink before rewriting lo/hi: the hash still needs (f0, f1). *)
          unlink_node m x id;
          decr_ref m f0;
          if m.rc_arr.(f0) = 0 then purge m f0;
          decr_ref m f1;
          if (not (is_const f1)) && m.var_arr.(f1) >= 0 && m.rc_arr.(f1) = 0
          then purge m f1;
          m.var_arr.(id) <- y;
          m.lo_arr.(id) <- c0;
          m.hi_arr.(id) <- c1;
          (* rc transfer: the two incr_ref above are now the node's own
             references to its children; drop the temporary protection. *)
          let st = m.subtables.(y) in
          let mask = Array.length st.buckets - 1 in
          let h = utbl_hash c0 c1 mask in
          let rec find id' =
            if id' < 0 then -1
            else if m.lo_arr.(id') = c0 && m.hi_arr.(id') = c1 then id'
            else find m.next_arr.(id')
          in
          (match find st.buckets.(h) with
          | other when other >= 0 && other <> id ->
              (* Cannot happen for reduced diagrams: two distinct nodes
                 would denote the same function. *)
              invalid_arg
                (Printf.sprintf "swap_levels: collision %d/%d" id other)
          | _ ->
              m.next_arr.(id) <- st.buckets.(h);
              st.buckets.(h) <- id;
              st.st_count <- st.st_count + 1;
              if st.st_count > 4 * (mask + 1) then grow_subtable m st)
        end
      end
    end
  in
  List.iter rewrite xs;
  m.perm.(x) <- l + 1;
  m.perm.(y) <- l;
  m.invperm.(l) <- y;
  m.invperm.(l + 1) <- x

(* Sift a single variable to its locally optimal level. *)
let sift_var m v =
  let n = m.nvars in
  if n > 1 then begin
    let best_size = ref (node_count m) in
    let best_lev = ref m.perm.(v) in
    let move_to target =
      while m.perm.(v) < target do
        swap_levels m m.perm.(v)
      done;
      while m.perm.(v) > target do
        swap_levels m (m.perm.(v) - 1)
      done
    in
    let start = m.perm.(v) in
    (* Explore toward the closer end first, then the other. *)
    let down_first = start >= n / 2 in
    let explore_down () =
      while m.perm.(v) < n - 1 do
        swap_levels m m.perm.(v);
        let s = node_count m in
        if s < !best_size then begin
          best_size := s;
          best_lev := m.perm.(v)
        end
      done
    in
    let explore_up () =
      while m.perm.(v) > 0 do
        swap_levels m (m.perm.(v) - 1);
        let s = node_count m in
        if s < !best_size then begin
          best_size := s;
          best_lev := m.perm.(v)
        end
      done
    in
    if down_first then begin
      explore_down ();
      explore_up ()
    end
    else begin
      explore_up ();
      explore_down ()
    end;
    move_to !best_lev
  end

(* Sift the [max_vars] largest variables (all by default). *)
let sift ?max_vars m =
  let t0 = Obs.Clock.now () in
  clear_caches m;
  ignore (collect m);
  let order =
    List.init m.nvars (fun v -> (m.subtables.(v).st_count, v))
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.map snd
  in
  let order =
    match max_vars with
    | None -> order
    | Some k -> List.filteri (fun i _ -> i < k) order
  in
  List.iter (fun v -> sift_var m v) order;
  m.reorder_runs <- m.reorder_runs + 1;
  clear_caches m;
  m.reorder_time <- m.reorder_time +. (Obs.Clock.now () -. t0)

let set_auto_reorder m b = m.auto_reorder <- b
let set_reorder_threshold m n = m.reorder_threshold <- max 16 n

(* Hook called by the handle layer at operation entry.  Also polls the
   budget unconditionally: a workload that never misses the cache makes no
   progress through the amortized in-kernel poll, but still enters ops. *)
let entry_hook m =
  if not (Limits.is_none m.limits) then do_limit_check m;
  maybe_collect m;
  maybe_resize_cache m;
  if m.auto_reorder && node_count m > m.reorder_threshold then begin
    sift m;
    m.reorder_threshold <- max (2 * node_count m) m.reorder_threshold
  end

let stats m : Obs.man_stats =
  let ops =
    List.init num_op_slots (fun i ->
        {
          Obs.Cache.name = op_names.(i);
          hits = m.cache_hits.(i);
          misses = m.cache_misses.(i);
        })
  in
  {
    Obs.cache =
      {
        Obs.Cache.entries = m.cache_used;
        slots = m.cache_mask + 1;
        evictions = m.cache_evictions;
        ops;
      };
    gc = { Obs.Gc.runs = m.gc_runs; freed = m.gc_freed; time = m.gc_time };
    reorder = { Obs.Reorder.runs = m.reorder_runs; time = m.reorder_time };
    arena =
      {
        Obs.Arena.live = node_count m;
        dead = m.deadcount;
        vars = m.nvars;
        peak_live = m.peak_live;
        capacity = Array.length m.var_arr;
      };
    limits =
      {
        Obs.Limit.checks = m.limit_checks;
        interrupts =
          List.filter
            (fun (_, n) -> n > 0)
            [ ("deadline", m.intr_deadline); ("nodes", m.intr_nodes);
              ("steps", m.intr_steps); ("cancelled", m.intr_cancelled) ];
      };
    snap =
      {
        Obs.Snap.exports = m.snap_exports;
        imports = m.snap_imports;
        nodes = m.snap_nodes;
        bytes = m.snap_bytes;
        export_time = m.snap_export_time;
        import_time = m.snap_import_time;
      };
  }

let order m = Array.to_list (Array.sub m.invperm 0 m.nvars)

let note_snapshot m dir ~nodes ~bytes ~seconds =
  m.snap_nodes <- m.snap_nodes + nodes;
  m.snap_bytes <- m.snap_bytes + bytes;
  match dir with
  | `Export ->
      m.snap_exports <- m.snap_exports + 1;
      m.snap_export_time <- m.snap_export_time +. seconds
  | `Import ->
      m.snap_imports <- m.snap_imports + 1;
      m.snap_import_time <- m.snap_import_time +. seconds
