type record = { figure : string; seconds : float; jobs : int }

let records : record list ref = ref []

let timed figure f =
  let jobs = Support.Pool.default_jobs () in
  let sims0, hits0 = Common.cache_stats () in
  let t0 = Unix.gettimeofday () in
  Trace.span_wall ~cat:"experiments" ("figure:" ^ figure) f;
  let seconds = Unix.gettimeofday () -. t0 in
  let sims1, hits1 = Common.cache_stats () in
  records := { figure; seconds; jobs } :: !records;
  Printf.eprintf "[vspec] %-10s %7.2fs  jobs=%d  sims=%d  disk-hits=%d\n%!"
    figure seconds jobs (sims1 - sims0) (hits1 - hits0)

let report_path =
  Support.Knob.path_or_off "VSPEC_BENCH_OUT" ~default:(Some "BENCH_suite.json")

let write_report () =
  match (!records, report_path ()) with
  | [], _ | _, None -> ()
  | recs, Some path ->
    let recs = List.rev recs in
    let total = List.fold_left (fun a r -> a +. r.seconds) 0.0 recs in
    let jobs = Support.Pool.default_jobs () in
    let sims, disk_hits = Common.cache_stats () in
    let knob (k, v) = Printf.sprintf "%S: %S" k v in
    let buf = Buffer.create 1024 in
    (* A warm (disk-served) run must not pass as the cold baseline. *)
    Buffer.add_string buf
      (Printf.sprintf
         "{\n  \"jobs\": %d,\n  \"total_seconds\": %.3f,\n  \"knobs\": {%s},\n\
         \  \"sims\": %d,\n  \"disk_hits\": %d,\n  \"cold\": %b,\n  \"figures\": [\n"
         jobs total
         (String.concat ", " (List.map knob (Support.Knob.set ())))
         sims disk_hits (disk_hits = 0));
    List.iteri
      (fun i r ->
        Buffer.add_string buf
          (Printf.sprintf "    {\"figure\": %S, \"seconds\": %.3f, \"jobs\": %d}%s\n"
             r.figure r.seconds r.jobs
             (if i = List.length recs - 1 then "" else ",")))
      recs;
    Buffer.add_string buf "  ]\n}\n";
    (try
       let oc = open_out path in
       Buffer.output_buffer oc buf;
       close_out oc;
       Printf.eprintf "[vspec] suite: %.2fs total, report -> %s\n%!" total path
     with Sys_error m -> Printf.eprintf "[vspec] report not written: %s\n%!" m)
