type variant =
  | V_normal
  | V_no_checks of Insn.check_group list
  | V_no_branches
  | V_interp_only
  | V_baseline
  | V_smi_ext
  | V_trust_elements
  | V_turboprop
  | V_fuse_maps

let variant_name = function
  | V_normal -> "normal"
  | V_no_checks gs ->
    "no-checks:"
    ^ String.concat "+" (List.map Insn.group_name gs)
  | V_no_branches -> "no-branches"
  | V_interp_only -> "interp"
  | V_baseline -> "baseline"
  | V_smi_ext -> "smi-ext"
  | V_trust_elements -> "trust-elements"
  | V_turboprop -> "turboprop"
  | V_fuse_maps -> "fuse-maps"

let config_for ?cpu ~arch ~seed variant =
  let base = Engine.default_config ~arch () in
  let base =
    match cpu with Some c -> { base with Engine.cpu = c } | None -> base
  in
  let base = { base with Engine.seed } in
  match variant with
  | V_normal -> base
  | V_no_checks groups ->
    { base with
      Engine.checks = { Engine.disabled_groups = groups; remove_branches = false } }
  | V_no_branches ->
    { base with
      Engine.checks = { Engine.disabled_groups = []; remove_branches = true } }
  | V_interp_only -> { base with Engine.enable_optimizer = false }
  | V_baseline ->
    { base with Engine.enable_optimizer = false; enable_baseline = true }
  | V_smi_ext -> { base with Engine.arch = Arch.Arm64_smi_ext }
  | V_trust_elements -> { base with Engine.trust_elements_kind = true }
  | V_turboprop -> { base with Engine.turboprop = true }
  | V_fuse_maps ->
    { base with Engine.arch = Arch.Arm64_smi_ext; fuse_map_checks = true }

let iterations = Support.Knob.int "VSPEC_ITERS" ~min:1 ~default:200
let repetitions = Support.Knob.int "VSPEC_REPS" ~min:1 ~default:5

(* ------------------------------------------------------------------ *)
(* Persistent on-disk result cache                                     *)
(* ------------------------------------------------------------------ *)

(* Results are keyed by a digest of benchmark id + source + the full
   engine config + iteration count + [cache_version].  Bump
   [cache_version] whenever simulation semantics change (engine,
   machine model, harness measurement) so stale entries can never leak
   into new runs; changing VSPEC_ITERS / seeds / variants changes the
   key by construction. *)
let cache_version = "vspec-cache-v1"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Probe the directory for real writability rather than trusting mode
   bits: overlay mounts, read-only bind mounts and mid-path regular
   files all fail here in ways [Unix.access] can misreport. *)
let resolve_cache_dir dir =
  match
    mkdir_p dir;
    Sys.is_directory dir
  with
  | exception Unix.Unix_error (e, _, _) ->
    ( None,
      Some
        (Printf.sprintf "cannot create cache dir %S (%s); caching disabled"
           dir (Unix.error_message e)) )
  | exception Sys_error msg ->
    (None, Some (Printf.sprintf "cache dir %S: %s; caching disabled" dir msg))
  | false ->
    ( None,
      Some
        (Printf.sprintf "cache path %S is not a directory; caching disabled"
           dir) )
  | true -> (
    let probe =
      Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ()))
    in
    match open_out_bin probe with
    | exception Sys_error msg ->
      ( None,
        Some
          (Printf.sprintf "cache dir %S is not writable (%s); caching disabled"
             dir msg) )
    | oc ->
      close_out_noerr oc;
      (try Sys.remove probe with Sys_error _ -> ());
      (Some dir, None))

(* Default next to the build artifacts when run from the project root;
   disabled elsewhere (e.g. sandboxed test runs). *)
let cache_dir =
  Support.Knob.path_or_off "VSPEC_CACHE_DIR"
    ~default:
      (if (try Sys.is_directory "_build" with Sys_error _ -> false)
       then Some (Filename.concat "_build" ".vspec-cache")
       else None)

(* The resolved cache directory is memoized per VSPEC_CACHE_DIR path
   (not once per process) so tests can repoint it; an unusable
   directory degrades to cache-off with a single warning per path
   rather than aborting the suite. *)
let disk_dir_mu = Mutex.create ()
let disk_dir_cache : (string, string option) Hashtbl.t = Hashtbl.create 4

let disk_dir () =
  match cache_dir () with
  | None -> None
  | Some path ->
    Mutex.lock disk_dir_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock disk_dir_mu)
      (fun () ->
        match Hashtbl.find_opt disk_dir_cache path with
        | Some dir -> dir
        | None ->
          let dir, warning = resolve_cache_dir path in
          Option.iter (Printf.eprintf "vspec: warning: %s\n%!") warning;
          Hashtbl.add disk_dir_cache path dir;
          dir)

let digest_key ~kind ~(config : Engine.config) ~iters
    (bench : Workloads.Suite.benchmark) =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [ cache_version; kind; bench.Workloads.Suite.id;
            bench.Workloads.Suite.source;
            Marshal.to_string config [];
            string_of_int iters ]))

let disk_path ~kind ~config ~iters bench =
  match disk_dir () with
  | None -> None
  | Some dir ->
    Some (Filename.concat dir (digest_key ~kind ~config ~iters bench ^ ".bin"))

(* A cache entry that fails to unmarshal is moved aside as
   [<digest>.corrupt] so the next run does not trip over it again; the
   event lands in the ledger as a recovered note. *)
let quarantine path reason =
  let dst =
    (if Filename.check_suffix path ".bin" then Filename.chop_suffix path ".bin"
     else path)
    ^ ".corrupt"
  in
  (* A concurrent process may have renamed or replaced it already;
     losing that race is fine. *)
  (try Sys.rename path dst with Sys_error _ -> ());
  Trace.instant_wall ~cat:"support" ~arg:path "cache:quarantine";
  Support.Fault.Ledger.note ~cell:path
    (Support.Fault.Cache_corrupt { path; reason })

(* Cross-process safety: loads tolerate missing/corrupt files (they
   just recompute); stores write to a pid-unique temp file and rename,
   so concurrent writers of the same key atomically race to an intact
   file.  Only the exceptions a damaged file can actually produce are
   treated as corruption ([End_of_file], [Failure] from Marshal,
   [Sys_error] from open) — anything else (Out_of_memory,
   Stack_overflow, Fault) must propagate. *)
let disk_load : 'a. kind:string -> config:Engine.config -> iters:int ->
    attempt:int -> Workloads.Suite.benchmark -> 'a option =
 fun ~kind ~config ~iters ~attempt bench ->
  match disk_path ~kind ~config ~iters bench with
  | None -> None
  | Some path ->
    if !Trace.on then begin
      (* A warm disk cache would satisfy every cell without simulating,
         leaving the trace empty of engine events; traced runs always
         simulate (and refresh the cache on the way out). *)
      Trace.instant_wall ~cat:"experiments" ~arg:path "cache:bypass";
      None
    end
    else if not (Sys.file_exists path) then None
    else begin
      match
        Support.Fault.Inject.fires ~site:Support.Fault.Inject.Cache_read
          ~key:path ~attempt
      with
      | Some err ->
        (* An injected read fault is handled like a corrupt entry —
           note it and recompute — except the (healthy) file stays. *)
        Support.Fault.Ledger.note ~cell:path err;
        None
      | None -> (
        match open_in_bin path with
        | exception Sys_error _ -> None
        | ic -> (
          match Marshal.from_channel ic with
          | v ->
            close_in_noerr ic;
            Trace.instant_wall ~cat:"experiments" ~arg:path "cache:hit";
            Some v
          | exception (End_of_file | Failure _) ->
            close_in_noerr ic;
            quarantine path "corrupt or truncated marshal payload";
            None))
    end

let disk_store ~kind ~config ~iters ~attempt bench v =
  match disk_path ~kind ~config ~iters bench with
  | None -> ()
  | Some path -> (
    match
      Support.Fault.Inject.fires ~site:Support.Fault.Inject.Cache_write
        ~key:path ~attempt
    with
    | Some err ->
      (* Persisting is best-effort; an injected write fault just skips
         it (the result is already computed and correct). *)
      Support.Fault.Ledger.note ~cell:path err
    | None -> (
      try
        let tmp =
          Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
            (Domain.self () :> int)
        in
        let oc = open_out_bin tmp in
        Marshal.to_channel oc v [];
        close_out oc;
        Sys.rename tmp path;
        Trace.instant_wall ~cat:"experiments" ~arg:path "cache:store"
      with Sys_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Domain-safe memo tables                                             *)
(* ------------------------------------------------------------------ *)

let cache : (string, Harness.result) Support.Pool.Memo.t =
  Support.Pool.Memo.create 64

let calib_cache :
    (string, Insn.check_group list * Insn.check_group list) Support.Pool.Memo.t =
  Support.Pool.Memo.create 64

let ref_cache : (string, float) Support.Pool.Memo.t = Support.Pool.Memo.create 64

let simulations = Atomic.make 0
let disk_hits = Atomic.make 0

let cache_stats () = (Atomic.get simulations, Atomic.get disk_hits)

(* Negative cache: a cell that permanently failed fails fast on every
   later read instead of re-running its (deterministically failing)
   simulation; the single entry also makes ledger recording
   idempotent.  Cleared with the memo tables. *)
let failed_mu = Mutex.create ()
let failed : (string, Support.Fault.error * int) Hashtbl.t = Hashtbl.create 16

let record_failure key err attempts =
  Mutex.lock failed_mu;
  let fresh = not (Hashtbl.mem failed key) in
  if fresh then Hashtbl.add failed key (err, attempts);
  Mutex.unlock failed_mu;
  if fresh then begin
    if !Trace.on then
      Trace.instant_wall ~cat:"support"
        ~arg:
          (Printf.sprintf "%s cell=%s attempts=%d" (Support.Fault.class_name err)
             key attempts)
        "fault";
    Support.Fault.Ledger.record ~attempts ~cell:key err
  end

let failure_for key =
  Mutex.lock failed_mu;
  let r = Hashtbl.find_opt failed key in
  Mutex.unlock failed_mu;
  r

let clear_memo () =
  Support.Pool.Memo.clear cache;
  Support.Pool.Memo.clear calib_cache;
  Support.Pool.Memo.clear ref_cache;
  Mutex.lock failed_mu;
  Hashtbl.reset failed;
  Mutex.unlock failed_mu;
  Atomic.set simulations 0;
  Atomic.set disk_hits 0

(* ------------------------------------------------------------------ *)
(* Guarded cell execution                                              *)
(* ------------------------------------------------------------------ *)

(* Read on every call (once per simulated cell), never through a
   [lazy]: a lazy value forced from two pool domains at once raises
   [CamlinternalLazy.Undefined]. *)
let verify_enabled = Support.Knob.flag "VSPEC_VERIFY" ~default:false

(* The containment protocol every simulated cell runs under: the
   negative cache answers a cell that already failed; otherwise the
   cell computes under single-flight memo semantics with fault
   injection at the [sim] site, bounded retries for transient classes,
   the disk cache and ledger recording.  A producer that fails records
   the failure *before* raising so the memo waiters that get promoted
   find the negative-cache entry and fail fast instead of
   re-simulating. *)
let guarded memo ~kind ~key ~config ~iters bench compute =
  match failure_for key with
  | Some (err, _) -> Error err
  | None -> (
    try
      Ok
        (Support.Pool.Memo.find_or_compute memo key (fun () ->
             match failure_for key with
             | Some (err, _) -> raise (Support.Fault.Fault err)
             | None -> (
               match
                 Support.Fault.guard
                   ~inject:(Support.Fault.Inject.Sim, key)
                   (fun ~attempt ->
                     match disk_load ~kind ~config ~iters ~attempt bench with
                     | Some r ->
                       Atomic.incr disk_hits;
                       r
                     | None ->
                       Atomic.incr simulations;
                       let r = compute () in
                       disk_store ~kind ~config ~iters ~attempt bench r;
                       r)
               with
               | Ok r -> r
               | Error (err, attempts) ->
                 record_failure key err attempts;
                 raise (Support.Fault.Fault err))))
    with Support.Fault.Fault err ->
      record_failure key err 1;
      Error err)

(* [run_result] is the one entry point that runs {!Harness.run}, with
   optional checksum verification inside the guarded computation. *)
let rec run_result ?cpu ?iterations:iters ~arch ~seed variant bench =
  let iters = match iters with Some i -> i | None -> iterations () in
  let cpu_name =
    match cpu with Some c -> c.Cpu.cfg_name | None -> "default"
  in
  let key =
    Printf.sprintf "%s|%s|%s|%d|%d|%s" bench.Workloads.Suite.id
      (Arch.name arch) (variant_name variant) seed iters cpu_name
  in
  let config = config_for ?cpu ~arch ~seed variant in
  guarded cache ~kind:"run" ~key ~config ~iters bench (fun () ->
      let r = Harness.run ~iterations:iters ~config bench in
      verify variant ~cell:key ~iters r bench;
      r)

(* Checksum verification (opt-in via VSPEC_VERIFY) compares a run
   against an interpreter-only run of the same iteration count (several
   benchmarks carry state across iterations, so their checksum depends
   on it).  Only configurations that preserve semantics are checkable —
   check-removal and element-trusting variants are *expected* to
   diverge (paper Fig 10), and the reference cell itself
   (V_interp_only) must never verify against itself or the memo
   producer would deadlock on re-entry. *)
and verify variant ~cell ~iters (r : Harness.result) bench =
  let checkable =
    match variant with
    | V_normal | V_baseline | V_turboprop -> true
    | V_no_checks _ | V_no_branches | V_interp_only | V_smi_ext
    | V_trust_elements | V_fuse_maps -> false
  in
  if checkable && verify_enabled () && r.Harness.error = None then begin
    let expected = interp_checksum ~iterations:iters bench in
    let got = r.Harness.checksum in
    let same = (Float.is_nan expected && Float.is_nan got) || expected = got in
    if not same then
      raise
        (Support.Fault.Fault
           (Support.Fault.Checksum_mismatch { cell; expected; got }))
  end

and interp_checksum ~iterations bench =
  Support.Pool.Memo.find_or_compute ref_cache
    (Printf.sprintf "%s|%d" bench.Workloads.Suite.id iterations)
    (fun () ->
      match
        run_result ~iterations ~arch:Arch.Arm64 ~seed:1 V_interp_only bench
      with
      | Ok r -> r.Harness.checksum
      | Error err -> raise (Support.Fault.Fault err))

let reference_checksum bench = interp_checksum ~iterations:3 bench

let run_cached ?cpu ?iterations ~arch ~seed variant bench =
  match run_result ?cpu ?iterations ~arch ~seed variant bench with
  | Ok r -> r
  | Error err -> raise (Support.Fault.Fault err)

let removable_groups_result ~arch bench =
  let config = config_for ~arch ~seed:1 V_normal in
  let iters = 60 in
  guarded calib_cache ~kind:"calib"
    ~key:(bench.Workloads.Suite.id ^ "|" ^ Arch.name arch)
    ~config ~iters bench
    (fun () -> Harness.calibrate_removable ~iterations:iters ~config bench)

let removable_groups ~arch bench =
  match removable_groups_result ~arch bench with
  | Ok r -> r
  | Error err -> raise (Support.Fault.Fault err)

(* Graceful degradation wrapper for figure drivers that touch the
   engine directly (outside run_cached): a fault degrades the figure —
   printed inline and ledgered — instead of killing the process. *)
let degraded name f =
  try f ()
  with Support.Fault.Fault err ->
    Printf.printf "  (%s degraded: %s)\n" name (Support.Fault.describe err);
    Support.Fault.Ledger.record ~cell:name err

let suite =
  Support.Knob.string "VSPEC_BENCH" ~default:Workloads.Suite.all (fun ids ->
      let wanted = String.split_on_char ',' ids |> List.map String.trim in
      let wanted = List.filter (( <> ) "") wanted in
      let picked (b : Workloads.Suite.benchmark) =
        List.mem b.Workloads.Suite.id wanted
      in
      match List.filter (fun id -> Workloads.Suite.by_id id = None) wanted with
      | [] when wanted <> [] -> Ok (List.filter picked Workloads.Suite.all)
      | unknown ->
        Error ("benchmark ids, comma-separated; unknown: "
               ^ String.concat ", " unknown))
