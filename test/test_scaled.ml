(* Sanity for the parameterized scaled families (philos N / ring N /
   scheduler N): symbolic reach counts match the explicit-state engine at
   small N, every generated property holds, [Models.by_name] parses the
   suffixed names, and shared-work parallel runs produce verdicts and
   exit codes identical to sequential ones. *)

open Hsis_models
open Hsis_core
open Hsis_check

let holds v = Hsis_limits.Verdict.holds v

let all_pass report =
  List.for_all (fun (c : Hsis.ctl_evidence Hsis.property_result) ->
      holds c.Hsis.pr_verdict)
    report.Hsis.ctl
  && List.for_all (fun (l : Hsis.lc_evidence Hsis.property_result) ->
         holds l.Hsis.pr_verdict)
       report.Hsis.lc

let check_family make family ns =
  List.iter
    (fun n ->
      let m = make n in
      let d = Hsis.read_verilog m.Model.verilog in
      let states = Hsis.reached_states d in
      Alcotest.(check int)
        (Printf.sprintf "%s%d: symbolic matches explicit" family n)
        (Enum.count_reachable (Model.net m))
        (int_of_float states);
      let report = Hsis.run_pif ~witnesses:false d (Model.parse_pif m) in
      Alcotest.(check int)
        (Printf.sprintf "%s%d: 2n ctl properties" family n)
        (2 * n)
        (List.length report.Hsis.ctl);
      Alcotest.(check bool)
        (Printf.sprintf "%s%d: all properties hold" family n)
        true (all_pass report))
    ns

let test_philos_family () = check_family (fun n -> Philos.make ~n ()) "philos" [ 3; 4 ]
let test_ring_family () = check_family (fun n -> Ring.make ~n ()) "ring" [ 3; 4 ]

let test_scheduler_family () =
  (* scheduler reaches exactly n * 2^n states *)
  List.iter
    (fun n ->
      let m = Scheduler.make ~n () in
      let d = Hsis.read_verilog m.Model.verilog in
      Alcotest.(check (float 0.1))
        (Printf.sprintf "scheduler%d: n*2^n states" n)
        (float_of_int (n * (1 lsl n)))
        (Hsis.reached_states d))
    [ 3; 6 ]

let test_by_name () =
  let name n = Option.map (fun m -> m.Model.name) (Models.by_name n) in
  Alcotest.(check (option string)) "philos5" (Some "philos5") (name "philos5");
  Alcotest.(check (option string)) "ring12" (Some "ring12") (name "ring12");
  Alcotest.(check (option string))
    "scheduler9" (Some "scheduler9") (name "scheduler9");
  Alcotest.(check (option string)) "bare ring" (Some "ring") (name "ring");
  Alcotest.(check (option string)) "ring1 too small" None (name "ring1");
  Alcotest.(check (option string)) "junk suffix" None (name "philosx");
  Alcotest.(check int) "scaled family size" 9
    (List.length (Models.scaled ()))

(* Shared-work fan-out must be observationally identical to the
   sequential engine: same verdict per property (by name, in order) and
   the same exit code, on every scaled family. *)
let test_parallel_matches_sequential () =
  List.iter
    (fun (m : Model.t) ->
      let pif = Model.parse_pif m in
      let verdicts (r : Hsis.report) =
        List.map
          (fun (c : Hsis.ctl_evidence Hsis.property_result) ->
            (c.Hsis.pr_name, holds c.Hsis.pr_verdict))
          r.Hsis.ctl
        @ List.map
            (fun (l : Hsis.lc_evidence Hsis.property_result) ->
              (l.Hsis.pr_name, holds l.Hsis.pr_verdict))
            r.Hsis.lc
      in
      let seq =
        let d = Hsis.read_verilog m.Model.verilog in
        Hsis.run_pif ~witnesses:false d pif
      in
      let d = Hsis.read_verilog m.Model.verilog in
      let par, _obs = Hsis.run_pif_par ~witnesses:false ~jobs:2 d pif in
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "%s: shared-work verdicts match" m.Model.name)
        (verdicts seq) (verdicts par);
      Alcotest.(check int)
        (Printf.sprintf "%s: shared-work exit code matches" m.Model.name)
        (Hsis.report_exit_code seq)
        (Hsis.report_exit_code par))
    [ Philos.make ~n:3 (); Ring.make ~n:3 (); Scheduler.make ~n:4 () ]

let () =
  Alcotest.run "scaled"
    [
      ( "families",
        [
          Alcotest.test_case "philos N" `Quick test_philos_family;
          Alcotest.test_case "ring N" `Quick test_ring_family;
          Alcotest.test_case "scheduler N" `Quick test_scheduler_family;
          Alcotest.test_case "by_name parsing" `Quick test_by_name;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "shared-work matches sequential" `Quick
            test_parallel_matches_sequential;
        ] );
    ]
