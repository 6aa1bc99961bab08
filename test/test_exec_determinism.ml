(* Bit-identity of the pre-decoded threaded-code engine against the
   direct interpreter: whole harness results (checksums, cycle counts,
   every counter, PC-sample attributions) must digest equal for the
   fig7-style cell axes — both ISAs, the SMI extension, check removal,
   a benchmark that actually deoptimizes — and for fig13's four cores. *)

(* The on-disk cache must not serve one engine's results to the other. *)
let () = Unix.putenv "VSPEC_CACHE_DIR" "off"

let iters = 25

let digest (r : Experiments.Harness.result) =
  Digest.to_hex (Digest.string (Marshal.to_string r []))

(* Always deopts once mid-run: iteration 8 overflows an int32 add. *)
let deopting_bench =
  {
    Workloads.Suite.id = "synthetic-overflow";
    category = Workloads.Suite.Math;
    description = "deopts on arithmetic overflow mid-run";
    source =
      {|
var phase = 0;
function f(x) { return x + x; }
function bench() {
  var s = 0;
  for (var i = 0; i < 20; i++) s = (s + f(i)) % 100003;
  phase = phase + 1;
  if (phase == 8) s = s + f(900000000) % 7;
  return s % 100003;
}
|};
  }

let run_with ?cpu engine ~arch ~seed variant b =
  Exec.set_engine (Some engine);
  Fun.protect
    ~finally:(fun () -> Exec.set_engine None)
    (fun () ->
      let config = Experiments.Common.config_for ?cpu ~arch ~seed variant in
      Experiments.Harness.run ~iterations:iters ~config b)

let check_cell ?cpu ?(expect_deopts = false) ~arch ~seed variant b =
  let label =
    Printf.sprintf "%s@%s/%s%s" b.Workloads.Suite.id (Arch.name arch)
      (Experiments.Common.variant_name variant)
      (match cpu with Some c -> "/" ^ c.Cpu.cfg_name | None -> "")
  in
  let direct = run_with ?cpu Exec.Direct ~arch ~seed variant b in
  let decoded = run_with ?cpu Exec.Decoded ~arch ~seed variant b in
  Alcotest.(check string)
    (label ^ ": direct and decoded results digest-equal")
    (digest direct) (digest decoded);
  Alcotest.(check (option string))
    (label ^ ": no error") None decoded.Experiments.Harness.error;
  if expect_deopts then
    Alcotest.(check bool)
      (label ^ ": benchmark deopted")
      true
      (decoded.Experiments.Harness.counters.Perf.deopt_events > 0)

let bench id = Option.get (Workloads.Suite.by_id id)

let test_normal_cells () =
  List.iter
    (fun arch ->
      List.iter
        (fun id ->
          check_cell ~arch ~seed:1 Experiments.Common.V_normal (bench id))
        [ "DP"; "HASH" ])
    [ Arch.X64; Arch.Arm64 ]

let test_deopting_cells () =
  List.iter
    (fun arch ->
      check_cell ~expect_deopts:true ~arch ~seed:1 Experiments.Common.V_normal
        deopting_bench)
    [ Arch.X64; Arch.Arm64 ]

let test_removal_cells () =
  (* The fig7 removal leg: checks of a group disabled at codegen. *)
  List.iter
    (fun arch ->
      check_cell ~arch ~seed:2
        (Experiments.Common.V_no_checks [ Insn.G_boundary ])
        (bench "DP"))
    [ Arch.X64; Arch.Arm64 ]

let test_smi_ext_cell () =
  (* Arm64_smi_ext exercises the fused [jsldrsmi] micro-op. *)
  check_cell ~arch:Arch.Arm64 ~seed:1 Experiments.Common.V_smi_ext
    (bench "SPMV-CSR-SMI");
  check_cell ~expect_deopts:true ~arch:Arch.Arm64 ~seed:1
    Experiments.Common.V_smi_ext deopting_bench

let test_gem5_cpus () =
  (* The fast configurations above are all out-of-order with the
     default caches; fig13's cores add the in-order stall path and the
     small-cache hierarchy (InOrder-A55). *)
  List.iter
    (fun cpu ->
      let dp = bench "DP" in
      check_cell ~cpu ~arch:Arch.Arm64 ~seed:100 Experiments.Common.V_normal dp;
      check_cell ~cpu ~arch:Arch.Arm64 ~seed:100 Experiments.Common.V_smi_ext
        dp;
      check_cell ~cpu ~expect_deopts:true ~arch:Arch.Arm64 ~seed:100
        Experiments.Common.V_normal deopting_bench)
    Cpu.gem5_cpus

let test_injection_transparent () =
  (* Transient fault injection at a fixed seed, absorbed by retries,
     must leave results bit-identical to a clean run: the injector
     lives entirely outside the simulated machine. *)
  let digest_of () =
    Experiments.Common.clear_memo ();
    digest
      (Experiments.Common.run_cached ~iterations:10 ~arch:Arch.Arm64 ~seed:1
         Experiments.Common.V_normal (bench "DP"))
  in
  let clean = digest_of () in
  Support.Fault.Inject.set_spec
    "sim:0.5:11,worker:0.5:11,cache-read:0.7:11,cache-write:0.7:11";
  Unix.putenv "VSPEC_RETRIES" "8";
  Fun.protect
    ~finally:(fun () ->
      Support.Fault.Inject.set_spec "";
      Unix.putenv "VSPEC_RETRIES" "";
      Experiments.Common.clear_memo ();
      Support.Fault.Ledger.clear ())
    (fun () ->
      Alcotest.(check string) "injected run digests equal to clean run" clean
        (digest_of ()))

let suite =
  [
    ( "exec-determinism",
      [
        Alcotest.test_case "normal cells (X64 + ARM64)" `Quick
          test_normal_cells;
        Alcotest.test_case "deopting benchmark" `Quick test_deopting_cells;
        Alcotest.test_case "check-removal variant" `Quick test_removal_cells;
        Alcotest.test_case "smi-ext variant" `Quick test_smi_ext_cell;
        Alcotest.test_case "gem5 cpus" `Quick test_gem5_cpus;
        Alcotest.test_case "fault injection is transparent" `Quick
          test_injection_transparent;
      ] );
  ]
