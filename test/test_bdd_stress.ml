(* Randomized stress test for the flat-array BDD manager: interleaves a
   soup of random operations with forced collections and sifting, then
   checks ROBDD canonicity and unique-table/arena consistency via
   [Bdd.check] (no duplicate (var, lo, hi) triples, lo <> hi, children at
   strictly greater levels, chains and counts consistent, freelist sane).

   Handles are dropped continuously (a sliding window of live results), so
   collections run against real garbage, and the OCaml GC's finalizers
   exercise the refcount-decrement path.

   Randomness comes from the shared splittable [Hsis_gen.Rng]: the run is
   reproducible from one seed, overridable with HSIS_TEST_SEED, and every
   failure message carries the seed that produced it. *)

open Hsis_bdd
module Rng = Hsis_gen.Rng

let seed = Rng.seed_from_env ~default:0x2545F491 ()

let assert_healthy man label =
  match Bdd.check man with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s (HSIS_TEST_SEED=%d): %d invariant violations, first: %s"
        label seed (List.length errs) (List.hd errs)

(* One random function over the window and the variables. *)
let random_op rng man vars window =
  let nv = Array.length vars in
  let pick () = window.(Rng.int rng (Array.length window)) in
  let pick_cube () =
    let k = 1 + Rng.int rng 3 in
    Bdd.cube man (List.init k (fun _ -> vars.(Rng.int rng nv)))
  in
  match Rng.int rng 10 with
  | 0 -> Bdd.dand (pick ()) (pick ())
  | 1 -> Bdd.dor (pick ()) (pick ())
  | 2 -> Bdd.xor (pick ()) (pick ())
  | 3 -> Bdd.dnot (pick ())
  | 4 -> Bdd.ite (pick ()) (pick ()) (pick ())
  | 5 -> Bdd.exists ~cube:(pick_cube ()) (pick ())
  | 6 -> Bdd.and_exists ~cube:(pick_cube ()) (pick ()) (pick ())
  | 7 -> Bdd.restrict (pick ()) ~care:(Bdd.dor (pick ()) vars.(Rng.int rng nv))
  | 8 -> Bdd.eqv (pick ()) (pick ())
  | _ -> Bdd.dand (pick ()) (Bdd.dnot (pick ()))

(* Algebraic identities that must hold on canonical diagrams; hash-consing
   makes each an O(1) id comparison. *)
let spot_identities rng man vars window =
  let f = window.(Rng.int rng (Array.length window)) in
  let g = window.(Rng.int rng (Array.length window)) in
  let cube = Bdd.cube man [ vars.(Rng.int rng (Array.length vars)) ] in
  let label what = Printf.sprintf "%s (HSIS_TEST_SEED=%d)" what seed in
  Alcotest.(check bool) (label "double negation") true
    (Bdd.equal f (Bdd.dnot (Bdd.dnot f)));
  Alcotest.(check bool) (label "De Morgan") true
    (Bdd.equal (Bdd.dnot (Bdd.dand f g)) (Bdd.dor (Bdd.dnot f) (Bdd.dnot g)));
  Alcotest.(check bool) (label "and commutes") true
    (Bdd.equal (Bdd.dand f g) (Bdd.dand g f));
  Alcotest.(check bool) (label "ite collapse") true (Bdd.equal (Bdd.ite f g g) g);
  Alcotest.(check bool) (label "exists distributes over or") true
    (Bdd.equal
       (Bdd.exists ~cube (Bdd.dor f g))
       (Bdd.dor (Bdd.exists ~cube f) (Bdd.exists ~cube g)));
  Alcotest.(check bool) (label "and_exists = exists of and") true
    (Bdd.equal (Bdd.and_exists ~cube f g) (Bdd.exists ~cube (Bdd.dand f g)))

let test_soup () =
  let rng = Rng.make seed in
  let man = Bdd.new_man () in
  (* A low threshold forces many real collections during the run. *)
  Bdd.set_gc_threshold man 64;
  let vars = Array.init 10 (fun i -> Bdd.new_var ~name:(Printf.sprintf "s%d" i) man) in
  let window =
    Array.init 24 (fun i -> if i mod 2 = 0 then vars.(i mod 10) else Bdd.dnot vars.(i mod 10))
  in
  for step = 1 to 4000 do
    window.(Rng.int rng (Array.length window)) <- random_op rng man vars window;
    if step mod 200 = 0 then spot_identities rng man vars window;
    if step mod 500 = 0 then begin
      (* Drop unreachable handles so their finalizers release refs, then
         force a manager collection and audit every invariant. *)
      Gc.full_major ();
      ignore (Bdd.gc man);
      assert_healthy man (Printf.sprintf "after gc at step %d" step)
    end;
    if step mod 1500 = 0 then begin
      Bdd.sift man;
      assert_healthy man (Printf.sprintf "after sift at step %d" step);
      spot_identities rng man vars window
    end
  done;
  Gc.full_major ();
  ignore (Bdd.gc man);
  assert_healthy man "final";
  (* Touching the window here keeps its handles alive through the forced
     collection above; the largest surviving function bounds the arena
     population from below. *)
  let largest = Array.fold_left (fun acc f -> max acc (Bdd.dag_size f)) 0 window in
  Alcotest.(check bool) "window nodes accounted for" true
    (largest <= Bdd.node_count man)

(* Same soup but with automatic reordering enabled, so sifting fires from
   inside the operation entry hook at unpredictable points. *)
let test_soup_auto_reorder () =
  let rng = Rng.make (seed lxor 0x5bd1e995) in
  let man = Bdd.new_man () in
  Bdd.set_gc_threshold man 128;
  Bdd.set_auto_reorder man true;
  Bdd.set_reorder_threshold man 64;
  let vars = Array.init 8 (fun _ -> Bdd.new_var man) in
  let window = Array.init 16 (fun i -> vars.(i mod 8)) in
  for step = 1 to 1500 do
    window.(Rng.int rng (Array.length window)) <- random_op rng man vars window;
    if step mod 300 = 0 then begin
      Gc.full_major ();
      ignore (Bdd.gc man);
      assert_healthy man (Printf.sprintf "auto-reorder step %d" step)
    end
  done;
  assert_healthy man "auto-reorder final"

(* Deterministic evaluation crosscheck: a random function built two ways
   (structurally vs via Shannon expansion on evaluations) must agree on
   every assignment. *)
let test_eval_crosscheck () =
  let rng = Rng.make (seed + 1) in
  let man = Bdd.new_man () in
  let n = 6 in
  let vars = Array.init n (fun _ -> Bdd.new_var man) in
  let window = Array.copy vars in
  for _ = 1 to 300 do
    window.(Rng.int rng n) <- random_op rng man vars window
  done;
  Gc.full_major ();
  ignore (Bdd.gc man);
  assert_healthy man "before crosscheck";
  let f = window.(Rng.int rng n) and g = window.(Rng.int rng n) in
  let h = Bdd.dand f g and x = Bdd.xor f g in
  for bits = 0 to (1 lsl n) - 1 do
    let env v = bits land (1 lsl v) <> 0 in
    Alcotest.(check bool)
      (Printf.sprintf "and agrees on %d (HSIS_TEST_SEED=%d)" bits seed)
      (Bdd.eval f env && Bdd.eval g env)
      (Bdd.eval h env);
    Alcotest.(check bool)
      (Printf.sprintf "xor agrees on %d (HSIS_TEST_SEED=%d)" bits seed)
      (Bdd.eval f env <> Bdd.eval g env)
      (Bdd.eval x env)
  done

let () =
  Alcotest.run "bdd-stress"
    [
      ( "soup",
        [
          Alcotest.test_case "ops + gc + sift" `Quick test_soup;
          Alcotest.test_case "auto reorder" `Quick test_soup_auto_reorder;
          Alcotest.test_case "eval crosscheck" `Quick test_eval_crosscheck;
        ] );
    ]
