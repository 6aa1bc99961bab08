(* Fault-tolerance suite: error taxonomy, deterministic injection,
   retry policy, pool containment, the simulation watchdog in both
   execution engines, cache quarantine/degradation, and the end-to-end
   degraded-figure contract (failed cells render as missing, the ledger
   reports them, and the exit code flips to 1).

   Run alone with [test_main.exe test faults] (the @faults alias). *)

module Fault = Support.Fault

(* Every test here mutates process-global state (env knobs, injection
   spec, ledger, memo tables); reset to a clean baseline around each
   body so ordering cannot leak between tests. *)
let isolated f () =
  let reset () =
    Fault.Inject.set_spec "";
    Unix.putenv "VSPEC_CACHE_DIR" "off";
    Unix.putenv "VSPEC_MAX_CYCLES" "";
    Unix.putenv "VSPEC_RETRIES" "";
    Unix.putenv "VSPEC_VERIFY" "";
    Experiments.Common.clear_memo ();
    Fault.Ledger.clear ()
  in
  reset ();
  Fun.protect ~finally:reset f

let bench id = Option.get (Workloads.Suite.by_id id)

(* ---------------- taxonomy ---------------- *)

let test_taxonomy () =
  let runaway = Fault.Runaway { what = "x"; limit = 1.0 } in
  let corrupt = Fault.Cache_corrupt { path = "p"; reason = "r" } in
  let injected = Fault.Injected { site = "sim"; key = "k" } in
  let crash = Fault.of_exn (Failure "boom") in
  Alcotest.(check bool) "runaway permanent" false (Fault.is_transient runaway);
  Alcotest.(check bool) "corrupt transient" true (Fault.is_transient corrupt);
  Alcotest.(check bool) "injected transient" true (Fault.is_transient injected);
  Alcotest.(check bool) "crash permanent" false (Fault.is_transient crash);
  Alcotest.(check string) "class name" "runaway" (Fault.class_name runaway);
  (match crash with
  | Fault.Worker_crash { exn_name = _; exn_msg } ->
    Alcotest.(check bool) "crash keeps the message" true
      (String.length exn_msg > 0)
  | _ -> Alcotest.fail "Failure must classify as Worker_crash");
  (* [of_exn] unwraps an already-typed fault instead of re-wrapping. *)
  Alcotest.(check bool) "Fault unwraps" true
    (Fault.of_exn (Fault.Fault runaway) = runaway)

(* ---------------- deterministic injection ---------------- *)

let fires site key attempt =
  Fault.Inject.fires ~site ~key ~attempt <> None

let test_injection_deterministic () =
  Fault.Inject.set_spec "sim:0.5:42";
  let a = List.init 64 (fun i -> fires Fault.Inject.Sim (string_of_int i) 0) in
  let b = List.init 64 (fun i -> fires Fault.Inject.Sim (string_of_int i) 0) in
  Alcotest.(check (list bool)) "same spec, same decisions" a b;
  Alcotest.(check bool) "rate 0.5 fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "rate 0.5 passes sometimes" true (List.mem false a);
  Fault.Inject.set_spec "sim:0.5:43";
  let c = List.init 64 (fun i -> fires Fault.Inject.Sim (string_of_int i) 0) in
  Alcotest.(check bool) "different seed, different decisions" true (a <> c)

let test_injection_rates_and_sites () =
  Fault.Inject.set_spec "sim:0.0:1";
  Alcotest.(check bool) "rate 0 never fires" false
    (List.exists (fun i -> fires Fault.Inject.Sim (string_of_int i) 0)
       (List.init 64 Fun.id));
  Fault.Inject.set_spec "sim:1.0:1";
  Alcotest.(check bool) "rate 1 always fires" true
    (List.for_all (fun i -> fires Fault.Inject.Sim (string_of_int i) 0)
       (List.init 64 Fun.id));
  Alcotest.(check bool) "other sites untouched" false
    (fires Fault.Inject.Worker "k" 0);
  Fault.Inject.set_spec "sim:1.0:1:HASH";
  Alcotest.(check bool) "key filter matches" true
    (fires Fault.Inject.Sim "HASH|arm64|normal" 0);
  Alcotest.(check bool) "key filter rejects" false
    (fires Fault.Inject.Sim "DP|arm64|normal" 0);
  Alcotest.(check bool) "garbage spec rejected loudly" true
    (match Fault.Inject.set_spec "bogus-spec,;;;" with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "rejected spec left the previous one active" true
    (fires Fault.Inject.Sim "HASH|arm64|normal" 0)

(* ---------------- retry policy ---------------- *)

let test_guard_retries_transient () =
  let calls = ref 0 in
  let r =
    Fault.guard ~retries:3 (fun ~attempt ->
        incr calls;
        if attempt < 2 then
          raise (Fault.Fault (Fault.Injected { site = "sim"; key = "k" }))
        else 17)
  in
  Alcotest.(check bool) "recovers after transient retries" true (r = Ok 17);
  Alcotest.(check int) "three attempts" 3 !calls

let test_guard_permanent_no_retry () =
  let calls = ref 0 in
  let r =
    Fault.guard ~retries:3 (fun ~attempt:_ ->
        incr calls;
        Fault.runaway ~what:"spin" ~limit:1.0)
  in
  (match r with
  | Error (Fault.Runaway { what = "spin"; _ }, attempts) ->
    Alcotest.(check int) "one attempt only" 1 attempts
  | _ -> Alcotest.fail "permanent error must not retry");
  Alcotest.(check int) "called once" 1 !calls

let test_guard_exhaustion () =
  let r =
    Fault.guard ~retries:2 (fun ~attempt:_ ->
        raise (Fault.Fault (Fault.Injected { site = "sim"; key = "k" })))
  in
  match r with
  | Error (Fault.Injected _, 3) -> ()
  | _ -> Alcotest.fail "transient exhaustion must report all attempts"

(* ---------------- pool containment ---------------- *)

let test_pool_containment () =
  let rs =
    Support.Pool.map_result ~jobs:4 ~retries:0
      (fun i -> if i = 5 then failwith "job dies" else i * 10)
      (List.init 12 Fun.id)
  in
  Alcotest.(check int) "all jobs complete" 12 (List.length rs);
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "value in place" (i * 10) v
      | Error (Fault.Worker_crash _) ->
        Alcotest.(check int) "only the crashing job fails" 5 i
      | Error e -> Alcotest.fail ("unexpected class: " ^ Fault.class_name e))
    rs

let test_pool_injection_transparent () =
  (* Sub-1.0 worker-site injection with a retry budget must be fully
     absorbed: same values as a clean run. *)
  Fault.Inject.set_spec "worker:0.25:5";
  let rs =
    Support.Pool.map_result ~jobs:4 ~retries:8
      (fun i -> i + 1)
      (List.init 32 Fun.id)
  in
  Alcotest.(check (list int)) "all values intact"
    (List.init 32 (fun i -> i + 1))
    (List.map (function Ok v -> v | Error _ -> -1) rs)

(* ---------------- simulation watchdog ---------------- *)

let mk_code ?(deopts = [||]) insns =
  Code.assemble ~code_id:0 ~name:"spin" ~arch:Arch.Arm64 ~deopts ~gp_slots:4
    ~fp_slots:4 ~base_addr:0x100
    (List.map (fun k -> Insn.make k) insns)

let null_host memory =
  { Exec.memory; call_builtin = (fun _ _ -> 0); call_js = (fun _ _ -> 0) }

let spin_code () = mk_code [ Insn.Label 0; Insn.B 0 ]

let run_spin engine =
  Exec.set_engine (Some engine);
  Fun.protect
    ~finally:(fun () -> Exec.set_engine None)
    (fun () ->
      let cpu = Cpu.create Cpu.fast_arm64 in
      Cpu.arm_watchdog cpu ~cycles:10_000.0;
      ignore
        (Exec.run cpu ~host:(null_host (Array.make 8 0)) ~code:(spin_code ())
           ~args:[||]))

let test_watchdog_both_engines () =
  List.iter
    (fun engine ->
      Alcotest.check_raises "non-terminating code trips the watchdog"
        (Fault.Fault (Fault.Runaway { what = "spin"; limit = 10_000.0 }))
        (fun () -> run_spin engine))
    [ Exec.Direct; Exec.Decoded ]

(* One long straight-line accounting block per loop iteration: eight
   ALU ops and an unconditional back-edge.  Under block batching the
   fuel check runs once per block entry, so this is the worst case for
   overshoot. *)
let straight_spin () =
  mk_code
    ([ Insn.Label 0 ]
    @ List.init 8 (fun k ->
          Insn.Alu
            {
              op = Insn.Add;
              dst = k mod 4;
              src = k mod 4;
              rhs = Insn.Imm 1;
              set_flags = false;
            })
    @ [ Insn.B 0 ])

let run_straight_spin engine =
  Exec.set_engine (Some engine);
  Fun.protect
    ~finally:(fun () -> Exec.set_engine None)
    (fun () ->
      let cpu = Cpu.create Cpu.fast_arm64 in
      Cpu.arm_watchdog cpu ~cycles:10_000.0;
      match
        Exec.run cpu
          ~host:(null_host (Array.make 8 0))
          ~code:(straight_spin ()) ~args:[||]
      with
      | _ -> Alcotest.fail "watchdog did not trip"
      | exception e -> (cpu, e))

let test_watchdog_batched_payload () =
  (* Mid-block fuel exhaustion must raise the exact same typed fault —
     same [what], same [limit] — as the direct engine's per-instruction
     check. *)
  let expected =
    Fault.Fault (Fault.Runaway { what = "spin"; limit = 10_000.0 })
  in
  let _, direct = run_straight_spin Exec.Direct in
  let _, decoded = run_straight_spin Exec.Decoded in
  Alcotest.(check bool) "direct: exact Runaway payload" true (direct = expected);
  Alcotest.(check bool) "decoded: same payload" true (decoded = expected)

let test_watchdog_overshoot_bounded () =
  (* The block-entry fuel check runs before the block's charge, so the
     dispatch pointer can pass the ceiling by at most one straight-line
     block — nine micro-ops here, well under 32 cycles on the fast
     ARM64 model — never by an unbounded amount. *)
  let cpu, _ = run_straight_spin Exec.Decoded in
  let now = cpu.Cpu.clk.Cpu.now in
  Alcotest.(check bool) "overshoot within one block" true
    (now > 0.0 && now <= 10_000.0 +. 32.0)

let test_watchdog_disarmed_is_free () =
  (* A terminating code object under an armed watchdog is unaffected. *)
  let cpu = Cpu.create Cpu.fast_arm64 in
  Cpu.arm_watchdog cpu ~cycles:1e9;
  (match
     Exec.run cpu
       ~host:(null_host (Array.make 8 0))
       ~code:(mk_code [ Insn.Mov (0, Insn.Imm 7); Insn.Ret ])
       ~args:[||]
   with
  | Exec.Done v -> Alcotest.(check int) "result intact" 7 v
  | _ -> Alcotest.fail "expected Done");
  Cpu.disarm_watchdog cpu;
  Alcotest.(check bool) "disarm resets the ceiling" true
    (cpu.Cpu.clk.Cpu.fuel_limit = infinity)

let test_pool_survives_runaway () =
  (* A runaway job must come back as a typed error without hanging or
     poisoning its pool siblings. *)
  let rs =
    Support.Pool.map_result ~jobs:2 ~retries:0
      (fun spin ->
        if spin then (
          run_spin Exec.Decoded;
          -1)
        else 42)
      [ true; false ]
  in
  match rs with
  | [ Error (Fault.Runaway { what = "spin"; _ }); Ok 42 ] -> ()
  | _ -> Alcotest.fail "expected [runaway; Ok 42]"

let test_harness_watchdog () =
  (* An absurdly small per-call budget makes any real benchmark trip as
     soon as its JIT code runs; every harness entry point must surface
     it as a typed Fault, not loop or report a soft error.
     Calibration swallows every other exception, so a fault lost there
     would otherwise go unnoticed. *)
  Unix.putenv "VSPEC_MAX_CYCLES" "1";
  let config =
    Experiments.Common.config_for ~arch:Arch.Arm64 ~seed:1
      Experiments.Common.V_normal
  in
  let b = bench "DP" in
  let trips name f =
    match f () with
    | () -> Alcotest.fail (name ^ ": watchdog did not trip")
    | exception Fault.Fault (Fault.Runaway _) -> ()
  in
  trips "Harness.run" (fun () ->
      ignore (Experiments.Harness.run ~iterations:30 ~config b));
  trips "Harness.calibrate_removable" (fun () ->
      ignore (Experiments.Harness.calibrate_removable ~iterations:30 ~config b));
  trips "Harness.drive" (fun () ->
      Experiments.Harness.drive
        (Engine.create config b.Workloads.Suite.source)
        ~calls:30);
  (* Through the cell runner the trip is a typed, negative-cached
     failure: the repeat must not simulate again. *)
  let calibrate () =
    Experiments.Common.removable_groups_result ~arch:Arch.Arm64 b
  in
  (match calibrate () with
  | Error (Fault.Runaway _) -> ()
  | _ -> Alcotest.fail "calibration cell should fail as runaway");
  let stats = Experiments.Common.cache_stats () in
  ignore (calibrate ());
  Alcotest.(check (pair int int)) "failed cell not re-simulated" stats
    (Experiments.Common.cache_stats ())

(* ---------------- checksum verification ---------------- *)

let test_verify_stateful_benchmark () =
  (* NS carries state across iterations, so its checksum depends on the
     iteration count: a 5-iteration cell must verify against a
     5-iteration interpreter run, not the 3-iteration reference. *)
  Unix.putenv "VSPEC_VERIFY" "1";
  match
    Experiments.Common.run_result ~iterations:5 ~arch:Arch.Arm64 ~seed:1
      Experiments.Common.V_normal (bench "NS")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("verify failed: " ^ Fault.describe e)

(* ---------------- regex backtracking bail-out ---------------- *)

let test_regex_runaway_typed () =
  Regex.set_step_limit 500;
  Fun.protect
    ~finally:(fun () -> Regex.set_step_limit 0)
    (fun () ->
      let re = Regex.compile "(a+)+b" in
      Alcotest.check_raises "catastrophic backtracking is a watchdog event"
        (Fault.Fault (Fault.Runaway { what = "regex:(a+)+b"; limit = 500.0 }))
        (fun () -> ignore (Regex.exec re (String.make 30 'a') 0)));
  (* Parse errors keep their own exception: they are user-input errors,
     not containment events. *)
  Alcotest.(check bool) "parse error still Regex_error" true
    (match Regex.compile "(" with
    | exception Regex.Regex_error _ -> true
    | _ -> false)

(* ---------------- disk cache: quarantine + degradation ---------------- *)

let temp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vspec-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let digest (r : Experiments.Harness.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

let run_dp () =
  Experiments.Common.run_cached ~iterations:8 ~arch:Arch.Arm64 ~seed:1
    Experiments.Common.V_normal (bench "DP")

let test_corrupt_entry_quarantined () =
  let dir = temp_dir "quarantine" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Unix.putenv "VSPEC_CACHE_DIR" dir;
      let r1 = digest (run_dp ()) in
      let bins =
        List.filter
          (fun f -> Filename.check_suffix f ".bin")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check bool) "entry persisted" true (bins <> []);
      List.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat dir f) in
          output_string oc "not a marshal stream";
          close_out oc)
        bins;
      Experiments.Common.clear_memo ();
      let r2 = digest (run_dp ()) in
      Alcotest.(check string) "recomputed bit-identical" r1 r2;
      Alcotest.(check bool) "corrupt entry quarantined" true
        (List.exists
           (fun f -> Filename.check_suffix f ".corrupt")
           (Array.to_list (Sys.readdir dir)));
      Alcotest.(check bool) "quarantine is ledgered as a note" true
        (List.exists
           (fun (e : Fault.Ledger.entry) -> not e.Fault.Ledger.permanent)
           (Fault.Ledger.entries ()));
      Alcotest.(check int) "recovered faults keep the run clean" 0
        (Fault.Ledger.exit_code ()))

let test_unusable_cache_dir_degrades () =
  let dir = temp_dir "badcache" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* A path *under a regular file* cannot be created on any OS or
         uid (root ignores permission bits in containers), so this
         deterministically exercises the degradation path. *)
      let file = Filename.concat dir "plainfile" in
      let oc = open_out file in
      close_out oc;
      let bad = Filename.concat file "sub" in
      (match Experiments.Common.resolve_cache_dir bad with
      | None, Some _ -> ()
      | _ -> Alcotest.fail "expected (None, warning)");
      Unix.putenv "VSPEC_CACHE_DIR" bad;
      ignore (run_dp ());
      Alcotest.(check int) "simulated, not aborted" 1
        (fst (Experiments.Common.cache_stats ()));
      Experiments.Common.clear_memo ();
      ignore (run_dp ());
      Alcotest.(check int) "cache really off: recomputed" 1
        (fst (Experiments.Common.cache_stats ())))

(* ---------------- ledger + exit-code contract ---------------- *)

let test_ledger_exit_codes () =
  Alcotest.(check int) "clean run exits 0" 0 (Fault.Ledger.exit_code ());
  Fault.Ledger.note ~cell:"c1" (Fault.Injected { site = "cache-read"; key = "k" });
  Alcotest.(check int) "recovered notes exit 0" 0 (Fault.Ledger.exit_code ());
  Fault.Ledger.record ~attempts:3 ~cell:"c2"
    (Fault.Runaway { what = "w"; limit = 1.0 });
  Alcotest.(check int) "permanent failure exits 1" 1 (Fault.Ledger.exit_code ());
  Alcotest.(check int) "permanent count" 1 (Fault.Ledger.permanent_count ());
  Alcotest.(check int) "both entries kept" 2
    (List.length (Fault.Ledger.entries ()))

(* ---------------- end-to-end degraded figure ---------------- *)

let with_captured_stdout f =
  let tmp = Filename.temp_file "vspec-faults" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close fd)
    f;
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_degraded_figure_end_to_end () =
  (* Permanently fail every HASH sim cell; DP must still complete, the
     figure must render HASH as missing, and the process-level verdict
     must be "degraded" (exit code 1). *)
  Fault.Inject.set_spec "sim:1.0:9:HASH";
  Unix.putenv "VSPEC_BENCH" "DP,HASH";
  Unix.putenv "VSPEC_ITERS" "10";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "VSPEC_BENCH" "";
      Unix.putenv "VSPEC_ITERS" "")
    (fun () ->
      Experiments.Plan.run ~jobs:2
        (List.map
           (fun b -> Experiments.Plan.cell ~arch:Arch.Arm64 ~seed:1 Experiments.Common.V_normal b)
           (Experiments.Common.suite ()));
      (match
         Experiments.Common.run_result ~arch:Arch.Arm64 ~seed:1
           Experiments.Common.V_normal (bench "DP")
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("DP should survive: " ^ Fault.class_name e));
      (match
         Experiments.Common.run_result ~arch:Arch.Arm64 ~seed:1
           Experiments.Common.V_normal (bench "HASH")
       with
      | Error (Fault.Injected _) -> ()
      | Ok _ -> Alcotest.fail "HASH cell should fail permanently"
      | Error e -> Alcotest.fail ("wrong class: " ^ Fault.class_name e));
      (* The calibration path shares the cell runner: its failure is
         typed, and the negative cache answers the repeat without
         touching the simulator, the disk cache or the ledger. *)
      Experiments.Plan.run ~jobs:2
        [ Experiments.Plan.removal_cell ~arch:Arch.Arm64 ~seed:1 (bench "HASH") ];
      let calibrate () =
        Experiments.Common.removable_groups_result ~arch:Arch.Arm64
          (bench "HASH")
      in
      (match calibrate () with
      | Error (Fault.Injected _) -> ()
      | Ok _ -> Alcotest.fail "HASH calibration should fail permanently"
      | Error e -> Alcotest.fail ("wrong class: " ^ Fault.class_name e));
      let stats = Experiments.Common.cache_stats () in
      let ledger = List.length (Fault.Ledger.entries ()) in
      (match calibrate () with
      | Error (Fault.Injected _) -> ()
      | _ -> Alcotest.fail "repeat calibration should fail the same way");
      Alcotest.(check (pair int int)) "repeat answered by the negative cache"
        stats (Experiments.Common.cache_stats ());
      Alcotest.(check int) "repeat not re-ledgered" ledger
        (List.length (Fault.Ledger.entries ()));
      let out = with_captured_stdout (fun () -> Experiments.Exp_checks.fig1 ()) in
      Alcotest.(check bool) "failed cell rendered as missing" true
        (contains ~sub:"(missing" out);
      Alcotest.(check bool) "surviving cell still rendered" true
        (contains ~sub:"DP" out);
      Alcotest.(check bool) "ledger has the permanent failures" true
        (Fault.Ledger.permanent_count () >= 1);
      Alcotest.(check int) "degraded exit code" 1 (Fault.Ledger.exit_code ()))

let tc name f = Alcotest.test_case name `Quick (isolated f)

let suite =
  [
    ( "faults",
      [
        tc "taxonomy" test_taxonomy;
        tc "injection determinism" test_injection_deterministic;
        tc "injection rates, sites, filters" test_injection_rates_and_sites;
        tc "guard retries transient" test_guard_retries_transient;
        tc "guard permanent no-retry" test_guard_permanent_no_retry;
        tc "guard exhaustion" test_guard_exhaustion;
        tc "pool containment" test_pool_containment;
        tc "pool injection transparency" test_pool_injection_transparent;
        tc "watchdog trips both engines" test_watchdog_both_engines;
        tc "watchdog payload identical under batching"
          test_watchdog_batched_payload;
        tc "watchdog overshoot bounded by one block"
          test_watchdog_overshoot_bounded;
        tc "watchdog arm/disarm" test_watchdog_disarmed_is_free;
        tc "pool survives runaway job" test_pool_survives_runaway;
        tc "harness-level watchdog" test_harness_watchdog;
        tc "verify stateful benchmark" test_verify_stateful_benchmark;
        tc "regex runaway typed" test_regex_runaway_typed;
        tc "corrupt cache entry quarantined" test_corrupt_entry_quarantined;
        tc "unusable cache dir degrades" test_unusable_cache_dir_degrades;
        tc "ledger exit-code contract" test_ledger_exit_codes;
        tc "degraded figure end-to-end" test_degraded_figure_end_to_end;
      ] );
  ]
