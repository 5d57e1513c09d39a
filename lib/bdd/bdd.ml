type man = Man.t

type t = { node : int; man : man }

let wrap man node =
  Man.incr_ref man node;
  let h = { node; man } in
  Gc.finalise (fun h -> Man.decr_ref h.man h.node) h;
  h

let same_man a b =
  if a.man != b.man then invalid_arg "Bdd: handles from different managers"

let new_man ?initial_capacity () = Man.create ?initial_capacity ()

let man_of h = h.man
let num_vars = Man.num_vars
let node_count = Man.node_count

let new_var ?name m =
  let v = Man.new_var ?name m in
  wrap m (Man.ithvar m v)

let ithvar m v =
  if v < 0 || v >= Man.num_vars m then invalid_arg "Bdd.ithvar";
  wrap m (Man.ithvar m v)

let var_index h =
  if Man.is_const h.node then invalid_arg "Bdd.var_index: constant";
  if
    Man.lo h.man h.node = Man.false_id
    && Man.hi h.man h.node = Man.true_id
  then Man.var h.man h.node
  else invalid_arg "Bdd.var_index: not a positive literal"

let dtrue m = wrap m Man.true_id
let dfalse m = wrap m Man.false_id
let is_true h = h.node = Man.true_id
let is_false h = h.node = Man.false_id
let equal a b = a.man == b.man && a.node = b.node
let id h = h.node

let unary f h =
  Man.entry_hook h.man;
  wrap h.man (f h.man h.node)

let binary f a b =
  same_man a b;
  Man.entry_hook a.man;
  wrap a.man (f a.man a.node b.node)

let dnot h = unary Man.apply_not h
let dand a b = binary Man.apply_and a b
let dor a b = binary Man.apply_or a b
let xor a b = binary Man.apply_xor a b
let nand a b = dnot (dand a b)
let nor a b = dnot (dor a b)
let imp a b = dor (dnot a) b
let eqv a b = dnot (xor a b)
let iff = eqv

let ite f g h =
  same_man f g;
  same_man g h;
  Man.entry_hook f.man;
  wrap f.man (Man.apply_ite f.man f.node g.node h.node)

let conj m hs = List.fold_left dand (dtrue m) hs
let disj m hs = List.fold_left dor (dfalse m) hs
let cube m hs = conj m hs

let exists ~cube f =
  same_man cube f;
  Man.entry_hook f.man;
  wrap f.man (Man.apply_exists f.man f.node cube.node)

let forall ~cube f = dnot (exists ~cube (dnot f))

let and_exists ~cube f g =
  same_man cube f;
  same_man f g;
  Man.entry_hook f.man;
  wrap f.man (Man.apply_and_exists f.man f.node g.node cube.node)

type varmap = { vm_man : man; vm_id : int; vm_map : int array }

let make_varmap m pairs =
  let map = Array.init (Man.num_vars m) (fun i -> i) in
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= Array.length map then invalid_arg "Bdd.make_varmap";
      map.(src) <- dst)
    pairs;
  { vm_man = m; vm_id = Man.register_map m map; vm_map = map }

let permute vm f =
  if vm.vm_man != f.man then invalid_arg "Bdd.permute: manager mismatch";
  Man.entry_hook f.man;
  wrap f.man (Man.apply_permute f.man vm.vm_id vm.vm_map f.node)

let restrict f ~care =
  same_man f care;
  Man.entry_hook f.man;
  wrap f.man (Man.apply_restrict f.man f.node care.node)

let constrain f ~care =
  same_man f care;
  Man.entry_hook f.man;
  wrap f.man (Man.apply_constrain f.man f.node care.node)

let support h = Man.support h.man h.node
let dag_size h = Man.dag_size h.man h.node
let satcount h ~nvars = Man.satcount h.man h.node nvars
let satcount_vars h ~vars = Man.satcount_vars h.man h.node vars
let eval h env = Man.eval h.man h.node env
let pick_cube h = Man.pick_cube h.man h.node

let pick_state h ~over =
  let partial = pick_cube h in
  List.map
    (fun v ->
      match List.assoc_opt v partial with
      | Some b -> (v, b)
      | None -> (v, false))
    over

let iter_cubes h k = Man.iter_cubes h.man h.node ~nvars:(Man.num_vars h.man) k
let gc m = Man.collect m
let set_gc_threshold = Man.set_gc_threshold
let sift ?max_vars m = Man.sift ?max_vars m
let set_auto_reorder = Man.set_auto_reorder
let set_reorder_threshold = Man.set_reorder_threshold
let order = Man.order
let name_of_var = Man.name_of_var

exception Interrupted = Man.Interrupted

let set_limits = Man.set_limits
let limits = Man.limits
let note_interrupt = Man.note_interrupt

(* Install a budget for the duration of [f] only, restoring the previous
   one on any exit (including an interrupt escaping [f]). *)
let with_limits m l f =
  let saved = Man.limits m in
  Man.set_limits m l;
  Fun.protect ~finally:(fun () -> Man.set_limits m saved) f

let stats = Man.stats
let check = Man.check

(* ------------------------------------------------------------------ *)
(* Snapshots: compact cross-manager serialization of shared DAGs.

   Wire layout: [snap_nodes] holds one 4-int record per DAG node in
   topological (children-first) order — (variable index, low ref, high
   ref, complement bit).  The complement bit is reserved 0: this package
   has no complement edges, but the slot keeps the record shape stable if
   they are ever added.  A child ref is 0 for false, 1 for true, and
   [k + 2] for the node of record [k] — always an earlier record, so
   rehydration is a single linear pass of [Man.mk] calls with no
   unique-table misses beyond the nodes themselves.  [snap_order] is the
   exporting manager's variable order (outermost first): a snapshot is
   directly valid in any manager whose order agrees on these variables;
   on a mismatch {!import} either rejects ([strict]) or re-canonicalizes
   node-by-node via ite. *)

type snapshot = {
  snap_order : int array;
  snap_nodes : int array;
  snap_roots : int array;
}

let snapshot_nodes s = Array.length s.snap_nodes / 4

(* Wire size if written as 64-bit words: records + roots + order + a
   length header.  Used for Obs accounting and cache budgets. *)
let snapshot_bytes s =
  8
  * (Array.length s.snap_nodes + Array.length s.snap_roots
    + Array.length s.snap_order + 1)

let snapshot_order s = Array.to_list s.snap_order

let export m roots =
  List.iter
    (fun h ->
      if h.man != m then invalid_arg "Bdd.export: handle from another manager")
    roots;
  let t0 = Hsis_obs.Obs.Clock.now () in
  let idx = Hashtbl.create 256 in
  (* records, appended 4 ints at a time *)
  let buf = ref (Array.make 1024 0) in
  let len = ref 0 in
  let push x =
    if !len = Array.length !buf then begin
      let b = Array.make (2 * !len) 0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- x;
    incr len
  in
  let ref_of u =
    if u = Man.false_id then 0
    else if u = Man.true_id then 1
    else Hashtbl.find idx u + 2
  in
  (* Explicit-stack post-order DFS: children are always emitted before
     their parents, which is exactly the topological record order. *)
  let stack = Stack.create () in
  let visit u =
    if not (Man.is_const u || Hashtbl.mem idx u) then
      Stack.push (`Enter u) stack
  in
  List.iter (fun h -> visit h.node) roots;
  while not (Stack.is_empty stack) do
    match Stack.pop stack with
    | `Enter u ->
        if not (Hashtbl.mem idx u) then begin
          Stack.push (`Emit u) stack;
          visit (Man.hi m u);
          visit (Man.lo m u)
        end
    | `Emit u ->
        if not (Hashtbl.mem idx u) then begin
          push (Man.var m u);
          push (ref_of (Man.lo m u));
          push (ref_of (Man.hi m u));
          push 0;
          Hashtbl.replace idx u ((!len / 4) - 1)
        end
  done;
  let s =
    {
      snap_order = Array.of_list (Man.order m);
      snap_nodes = Array.sub !buf 0 !len;
      snap_roots = Array.of_list (List.map (fun h -> ref_of h.node) roots);
    }
  in
  Man.note_snapshot m `Export ~nodes:(snapshot_nodes s)
    ~bytes:(snapshot_bytes s)
    ~seconds:(Hsis_obs.Obs.Clock.now () -. t0);
  s

(* Level of a variable in [m]'s current order (via its literal, which
   [mk]-probes but allocates at most once). *)
let var_level m v = Man.level m (Man.ithvar m v)

let import ?(strict = false) m s =
  let t0 = Hsis_obs.Obs.Clock.now () in
  let nvars = Man.num_vars m in
  (* Order compatibility: the exporting order restricted to variables this
     manager knows must be increasing under the local order too. *)
  let order_ok =
    let last = ref (-1) in
    Array.for_all
      (fun v ->
        v >= nvars
        ||
        let l = var_level m v in
        let ok = l > !last in
        last := l;
        ok)
      s.snap_order
  in
  if strict && not order_ok then
    invalid_arg "Bdd.import: variable order mismatch";
  let n = Array.length s.snap_nodes / 4 in
  let ids = Array.make n Man.false_id in
  let resolve r =
    if r = 0 then Man.false_id
    else if r = 1 then Man.true_id
    else ids.(r - 2)
  in
  (* Single linear pass; no operation entry hooks run, so no collection
     can reclaim a record before a later record (or a root handle) takes
     its reference. *)
  for k = 0 to n - 1 do
    let v = s.snap_nodes.(4 * k) in
    if v < 0 || v >= nvars then
      invalid_arg "Bdd.import: snapshot variable not allocated here";
    let l = resolve s.snap_nodes.(4 * k + 1) in
    let h = resolve s.snap_nodes.(4 * k + 2) in
    ids.(k) <-
      (if order_ok then Man.mk m v l h
       else begin
         (* Re-permute under the local order: mk is only sound when both
            children still sit strictly below the variable; otherwise
            rebuild the node with ite, which re-canonicalizes. *)
         let lv = var_level m v in
         if Man.level m l > lv && Man.level m h > lv then Man.mk m v l h
         else Man.apply_ite m (Man.ithvar m v) h l
       end)
  done;
  let roots =
    List.map (fun r -> wrap m (resolve r)) (Array.to_list s.snap_roots)
  in
  Man.note_snapshot m `Import ~nodes:n ~bytes:(snapshot_bytes s)
    ~seconds:(Hsis_obs.Obs.Clock.now () -. t0);
  roots

let pp fmt h =
  if is_true h then Format.fprintf fmt "true"
  else if is_false h then Format.fprintf fmt "false"
  else begin
    let first = ref true in
    let cubes = ref 0 in
    iter_cubes h (fun lookup ->
        incr cubes;
        if !cubes <= 64 then begin
          if not !first then Format.fprintf fmt " + ";
          first := false;
          let lits = ref [] in
          for v = Man.num_vars h.man - 1 downto 0 do
            match lookup v with
            | Some true -> lits := Man.name_of_var h.man v :: !lits
            | Some false -> lits := ("!" ^ Man.name_of_var h.man v) :: !lits
            | None -> ()
          done;
          Format.fprintf fmt "%s" (String.concat "." !lits)
        end);
    if !cubes > 64 then Format.fprintf fmt " + ... (%d cubes)" !cubes
  end
