(* A D8-style shell for the engine: run a JS file (or inline source) on
   the simulated CPU, optionally dumping bytecode, optimized code and
   performance counters. *)

let run_file path inline arch_name no_opt baseline dump_code dump_stats iterations entry trace_path =
  Support.Knob.validate_or_exit "d8";
  (* Tracing first, so the parse/compile of the script itself is
     captured.  A bad destination degrades to an untraced run with a
     one-line warning (Support.Fault containment style), not a crash. *)
  (match Trace.setup ?path:trace_path () with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "d8: warning: %s\n%!" msg);
  let source =
    match (path, inline) with
    | Some p, _ ->
      let ic = open_in_bin p in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    | None, Some s -> s
    | None, None ->
      prerr_endline "d8: provide a file or -e source";
      exit 2
  in
  let arch =
    match Machine.Arch.of_name arch_name with
    | Some a -> a
    | None ->
      Printf.eprintf "d8: unknown arch %s (x64, arm64, arm64+smi)\n" arch_name;
      exit 2
  in
  let cfg = Engine.default_config ~arch () in
  let cfg =
    { cfg with
      Engine.enable_optimizer = not no_opt;
      enable_baseline = baseline }
  in
  let eng = Engine.create cfg source in
  (try
     let _ = Engine.run_main eng in
     (match entry with
     | None -> ()
     | Some name ->
       for _ = 1 to iterations do
         ignore (Engine.call_global eng name [||])
       done)
   with
  | Jsvm.Builtins.Js_error m ->
    print_string (Engine.output eng);
    Printf.eprintf "JS error: %s\n" m;
    exit 1
  | Jsvm.Parser.Parse_error m | Jsvm.Lexer.Lex_error m ->
    Printf.eprintf "parse error: %s\n" m;
    exit 1);
  print_string (Engine.output eng);
  if dump_code then
    List.iter
      (fun code -> print_string (Machine.Code.listing code))
      (Engine.all_codes eng);
  if dump_stats then begin
    let c = (Engine.cpu eng).Machine.Cpu.counters in
    Printf.printf
      "-- stats: cycles=%.0f instructions=%d jit=%d checks=%d branches=%d \
       mispredicts=%d deopts=%d compiles=%d gcs=%d\n"
      (Engine.cycles eng) c.Machine.Perf.instructions
      c.Machine.Perf.jit_instructions c.Machine.Perf.check_instructions
      c.Machine.Perf.branches c.Machine.Perf.mispredicts
      c.Machine.Perf.deopt_events
      (Engine.compile_count eng)
      (Jsvm.Heap.gc_count (Engine.runtime eng).Jsvm.Runtime.heap)
  end

open Cmdliner

let path =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"JavaScript file to run.")

let inline =
  Arg.(value & opt (some string) None & info [ "e" ] ~docv:"SRC" ~doc:"Inline source.")

let arch =
  Arg.(value & opt string "arm64" & info [ "arch" ] ~docv:"ARCH" ~doc:"Target ISA: x64, arm64, arm64+smi.")

let no_opt =
  Arg.(value & flag & info [ "no-opt" ] ~doc:"Interpreter only (no optimizing JIT).")

let baseline =
  Arg.(value & flag & info [ "baseline" ] ~doc:"Enable the SparkPlug-style baseline tier.")

let dump_code =
  Arg.(value & flag & info [ "print-code" ] ~doc:"Dump optimized machine code.")

let dump_stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print CPU counters at exit.")

let iterations =
  Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Iterations of --entry.")

let entry =
  Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"FN" ~doc:"Global function to call N times after the script runs.")

let trace_path =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc:"Write an execution trace to $(docv) at exit (format from the extension: .json Chrome/Perfetto, .folded flamegraph, .csv counters). Defaults to $(b,VSPEC_TRACE) when set.")

let cmd =
  let doc = "run JavaScript on the simulated V8-style engine" in
  Cmd.v (Cmd.info "vspec-d8" ~doc)
    Term.(const run_file $ path $ inline $ arch $ no_opt $ baseline $ dump_code $ dump_stats $ iterations $ entry $ trace_path)

let () = exit (Cmd.eval cmd)
