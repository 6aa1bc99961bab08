(* Performance regression guard for the execution-engine benchmarks.

   Compares a freshly generated BENCH_exec.json against the committed
   one and fails (exit 1) when the decoded engine's speedup on any
   committed bench drops by more than the fixed 10% tolerance, or when
   its host allocation per simulated instruction on any committed
   bench rises more than a fixed slack above the committed value.
   Speedups are decoded/direct ratios measured in the same process, so
   they are robust to host speed; allocation is counted by the host
   GC, so it is exact and catches a boxing regression in a hot
   micro-op with zero noise.  Wired into `dune build @perf` /
   `make perf`.

   Usage: guard.exe --fresh FILE [--committed FILE] *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let tolerance = 0.10

(* Host minor-heap words per simulated instruction.  One boxed float
   (two words) in a micro-op that runs once per kernel iteration adds
   well over this to every kernel. *)
let alloc_slack = 0.05

(* [(bench, value)] of one numeric per-bench field, in file order. *)
let benches ?(field = "speedup") text =
  let re =
    Str.regexp
      ("{\"bench\": \"\\([^\"]+\\)\"[^}]*\"" ^ field
     ^ "\": \\([0-9.]+\\)")
  in
  let rec go pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | p ->
      let name = Str.matched_group 1 text in
      let v = float_of_string (Str.matched_group 2 text) in
      go (p + 1) ((name, v) :: acc)
  in
  go 0 []

let float_field name text =
  match
    Str.search_forward
      (Str.regexp ("\"" ^ Str.quote name ^ "\": \\([0-9.]+\\)"))
      text 0
  with
  | exception Not_found -> None
  | _ -> float_of_string_opt (Str.matched_group 1 text)

let () =
  let fresh_path = ref "" in
  let committed_path = ref "BENCH_exec.json" in
  let rec parse = function
    | "--fresh" :: p :: rest ->
      fresh_path := p;
      parse rest
    | "--committed" :: p :: rest ->
      committed_path := p;
      parse rest
    | [] -> ()
    | a :: _ ->
      Printf.eprintf "[guard] unknown argument %S\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fresh_path = "" then begin
    Printf.eprintf "usage: guard.exe --fresh FILE [--committed FILE]\n";
    exit 2
  end;
  let fresh = read_file !fresh_path in
  let committed = read_file !committed_path in
  let fresh_benches = benches fresh in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun (name, committed_speedup) ->
      match List.assoc_opt name fresh_benches with
      | None -> fail "bench %S missing from fresh run" name
      | Some fresh_speedup ->
        let floor = committed_speedup *. (1.0 -. tolerance) in
        Printf.printf "[guard] %-8s speedup %.3fx (committed %.3fx, floor %.3fx)%s\n"
          name fresh_speedup committed_speedup floor
          (if fresh_speedup < floor then "  << REGRESSION" else "");
        if fresh_speedup < floor then
          fail "bench %S speedup regressed: %.3fx < %.3fx (committed %.3fx - %.0f%%)"
            name fresh_speedup floor committed_speedup (100.0 *. tolerance))
    (benches committed);
  let field = "alloc_words_per_insn" in
  let fresh_alloc = benches ~field fresh in
  List.iter
    (fun (name, committed_words) ->
      match List.assoc_opt name fresh_alloc with
      | None -> fail "bench %S reports no %s" name field
      | Some words ->
        let ceiling = committed_words +. alloc_slack in
        Printf.printf
          "[guard] %-8s alloc %.4f words/insn (committed %.4f, ceiling %.4f)%s\n"
          name words committed_words ceiling
          (if words > ceiling then "  << REGRESSION" else "");
        if words > ceiling then
          fail "bench %S allocates %.4f words/insn > %.4f (committed %.4f + %.2f)"
            name words ceiling committed_words alloc_slack)
    (benches ~field committed);
  (match
     ( float_field "trace_overhead_limit_pct" committed,
       float_field "trace_overhead_pct" fresh )
   with
  | Some limit, Some overhead ->
    Printf.printf "[guard] tracing overhead %.2f%% (limit %.1f%%)%s\n" overhead
      limit
      (if overhead > limit then "  << REGRESSION" else "");
    if overhead > limit then
      fail "tracing overhead %.2f%% exceeds the %.1f%% limit" overhead limit
  | None, _ ->
    Printf.printf "[guard] committed file has no tracing limit; skipping\n"
  | _, None -> fail "fresh run reports no trace_overhead_pct");
  match !failures with
  | [] -> Printf.printf "[guard] OK (tolerance %.0f%%)\n" (100.0 *. tolerance)
  | fs ->
    List.iter (fun m -> Printf.eprintf "[guard] FAIL: %s\n" m) (List.rev fs);
    exit 1
