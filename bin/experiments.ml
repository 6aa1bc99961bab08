(* CLI for the paper-reproduction experiments: run one figure or all.

   The VSPEC_* environment knobs are listed in README.md.  --trace PATH
   overrides VSPEC_TRACE (execution trace written at exit; .json
   Chrome/Perfetto, .folded flamegraph, .csv counter timelines).

   Exit codes: 0 = clean; 1 = degraded (at least one cell permanently
   failed -- the failure report on stderr lists each cell, its error
   class and attempt count, and the affected figure cells render as
   missing); 2 = usage error: an unknown experiment id, or a bad
   VSPEC_* value (rejected before any simulation). *)

let list_experiments () =
  print_endline "available experiments:";
  List.iter
    (fun (e : Experiments.Registry.entry) ->
      Printf.printf "  %-8s %s\n" e.Experiments.Registry.id
        e.Experiments.Registry.title)
    Experiments.Registry.all

let run_ids ids =
  if ids = [] then begin
    list_experiments ();
    print_endline "\n(running everything; pass ids to restrict)";
    Experiments.Registry.run_all ()
  end
  else begin
    List.iter
      (fun id ->
        match Experiments.Registry.find id with
        | Some e -> Experiments.Registry.run_timed e
        | None ->
          Printf.eprintf "unknown experiment %s\n" id;
          list_experiments ();
          exit 2)
      ids;
    Experiments.Timing.write_report ()
  end;
  (* Degraded-run contract: every permanent cell failure was contained
     (its figure cells render as missing), reported here, and turned
     into exit code 1 so CI can tell a degraded run from a clean one. *)
  Support.Fault.Ledger.report stderr;
  exit (Support.Fault.Ledger.exit_code ())

open Cmdliner

let ids =
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (fig1..fig14, summary).")

let list_flag = Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")

let trace_path =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc:"Write an execution trace to $(docv) at exit (format from the extension: .json Chrome/Perfetto, .folded flamegraph, .csv counters). Defaults to $(b,VSPEC_TRACE) when set.")

let main list_only trace_path ids =
  Support.Knob.validate_or_exit "vspec";
  (match Trace.setup ?path:trace_path () with
  | Ok _ -> ()
  | Error msg -> Printf.eprintf "vspec: warning: %s\n%!" msg);
  if list_only then list_experiments () else run_ids ids

let cmd =
  let doc = "reproduce the paper's tables and figures" in
  Cmd.v
    (Cmd.info "vspec-experiments" ~doc)
    Term.(const main $ list_flag $ trace_path $ ids)

let () = exit (Cmd.eval cmd)
