type domain = Sim | Wall
type kind = Span | Instant | Counter | Sample

type event = {
  ev_kind : kind;
  ev_dom : domain;
  ev_cat : string;
  ev_name : string;
  ev_arg : string;
  ev_ts : float;
  ev_dur : float;
  ev_value : float;
}

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                         *)
(*                                                                     *)
(* Struct-of-arrays, fully preallocated at [enable] time: recording an *)
(* event is a handful of array stores under the mutex (caller-supplied *)
(* strings are stored by reference).  On overflow the oldest events    *)
(* are overwritten — a trace is a sliding window over the run's tail,  *)
(* like a kernel trace ring.                                           *)
(* ------------------------------------------------------------------ *)

type ring = {
  cap : int;
  r_meta : int array; (* kind lor (dom lsl 2) *)
  r_cat : string array;
  r_name : string array;
  r_arg : string array;
  r_ts : float array;
  r_dur : float array;
  r_value : float array;
  mutable next : int;  (* next write slot *)
  mutable total : int; (* events ever emitted *)
}

let on = ref false
let mu = Mutex.create ()
let ring : ring option ref = ref None
let out_path : string option ref = ref None
let wall0 = ref (Unix.gettimeofday ())

let active () = !on

let default_capacity = 65536

let make_ring cap =
  {
    cap;
    r_meta = Array.make cap 0;
    r_cat = Array.make cap "";
    r_name = Array.make cap "";
    r_arg = Array.make cap "";
    r_ts = Array.make cap 0.0;
    r_dur = Array.make cap 0.0;
    r_value = Array.make cap 0.0;
    next = 0;
    total = 0;
  }

let enable ?capacity () =
  let cap = max 16 (Option.value capacity ~default:default_capacity) in
  Mutex.lock mu;
  ring := Some (make_ring cap);
  out_path := None;
  wall0 := Unix.gettimeofday ();
  Mutex.unlock mu;
  on := true

let disable () =
  on := false;
  Mutex.lock mu;
  ring := None;
  out_path := None;
  Mutex.unlock mu

(* ------------------------------------------------------------------ *)
(* Clock domains                                                       *)
(* ------------------------------------------------------------------ *)

(* The simulated-clock reader is domain-local: pool workers each run
   their own engine, and each registers its own CPU here. *)
let sim_clock_key : (unit -> float) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fun () -> 0.0)

let set_sim_clock f = Domain.DLS.set sim_clock_key f
let sim_now () = (Domain.DLS.get sim_clock_key) ()
let wall_now () = (Unix.gettimeofday () -. !wall0) *. 1e6

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let kind_code = function Span -> 0 | Instant -> 1 | Counter -> 2 | Sample -> 3
let kind_of_code = function
  | 0 -> Span
  | 1 -> Instant
  | 2 -> Counter
  | _ -> Sample

let emit ~kind ~dom ~cat ~name ~arg ~ts ~dur ~value =
  if !on then begin
    Mutex.lock mu;
    (match !ring with
    | None -> ()
    | Some r ->
      let i = r.next in
      r.r_meta.(i) <-
        kind_code kind lor (match dom with Sim -> 0 | Wall -> 4);
      r.r_cat.(i) <- cat;
      r.r_name.(i) <- name;
      r.r_arg.(i) <- arg;
      r.r_ts.(i) <- ts;
      r.r_dur.(i) <- dur;
      r.r_value.(i) <- value;
      r.next <- (if i + 1 = r.cap then 0 else i + 1);
      r.total <- r.total + 1);
    Mutex.unlock mu
  end

let instant_at ?(arg = "") ~cat ~ts name =
  emit ~kind:Instant ~dom:Sim ~cat ~name ~arg ~ts ~dur:0.0 ~value:0.0

let instant ?(arg = "") ~cat name =
  if !on then instant_at ~arg ~cat ~ts:(sim_now ()) name

let instant_wall ?(arg = "") ~cat name =
  if !on then
    emit ~kind:Instant ~dom:Wall ~cat ~name ~arg ~ts:(wall_now ()) ~dur:0.0
      ~value:0.0

let counter_at ~cat ~ts name value =
  emit ~kind:Counter ~dom:Sim ~cat ~name ~arg:"" ~ts ~dur:0.0 ~value

let counter ~cat name value =
  if !on then counter_at ~cat ~ts:(sim_now ()) name value

let complete_at ?(arg = "") ~cat ~ts ~dur name =
  emit ~kind:Span ~dom:Sim ~cat ~name ~arg ~ts ~dur ~value:0.0

let complete_wall_at ?(arg = "") ~cat ~ts ~dur name =
  emit ~kind:Span ~dom:Wall ~cat ~name ~arg ~ts ~dur ~value:0.0

let span ?(arg = "") ~cat name f =
  if not !on then f ()
  else begin
    let t0 = sim_now () in
    Fun.protect
      ~finally:(fun () ->
        complete_at ~arg ~cat ~ts:t0 ~dur:(sim_now () -. t0) name)
      f
  end

let span_wall ?(arg = "") ~cat name f =
  if not !on then f ()
  else begin
    let t0 = wall_now () in
    Fun.protect
      ~finally:(fun () ->
        complete_wall_at ~arg ~cat ~ts:t0 ~dur:(wall_now () -. t0) name)
      f
  end

let sample ~stack count =
  if !on then
    emit ~kind:Sample ~dom:Wall ~cat:"samples" ~name:stack ~arg:"" ~ts:0.0
      ~dur:0.0 ~value:(float_of_int count)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let event_of r i =
  let m = r.r_meta.(i) in
  {
    ev_kind = kind_of_code (m land 3);
    ev_dom = (if m land 4 = 0 then Sim else Wall);
    ev_cat = r.r_cat.(i);
    ev_name = r.r_name.(i);
    ev_arg = r.r_arg.(i);
    ev_ts = r.r_ts.(i);
    ev_dur = r.r_dur.(i);
    ev_value = r.r_value.(i);
  }

(* Oldest surviving event first: when wrapped, the slot about to be
   overwritten ([next]) is the oldest. *)
let events_locked r =
  let live = min r.total r.cap in
  let first = if r.total <= r.cap then 0 else r.next in
  List.init live (fun k -> event_of r ((first + k) mod r.cap))

let with_ring f =
  Mutex.lock mu;
  let v = match !ring with None -> None | Some r -> Some (f r) in
  Mutex.unlock mu;
  v

let events () = Option.value ~default:[] (with_ring events_locked)
let emitted () = Option.value ~default:0 (with_ring (fun r -> r.total))
let capacity () = Option.value ~default:0 (with_ring (fun r -> r.cap))

let dropped () =
  Option.value ~default:0 (with_ring (fun r -> max 0 (r.total - r.cap)))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

type format = Chrome | Folded | Csv

let format_of_path path =
  if Filename.check_suffix path ".folded" then Folded
  else if Filename.check_suffix path ".csv" then Csv
  else Chrome

(* Layer lanes: stable thread ids so Perfetto shows one named track per
   architectural layer in each clock-domain process. *)
let lanes =
  [ ("jsvm", 1); ("turbofan", 2); ("machine", 3); ("experiments", 4);
    ("support", 5) ]

let lane_of_cat cat =
  match List.assoc_opt cat lanes with Some l -> l | None -> 6

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pid_of_dom = function Sim -> 0 | Wall -> 1

(* Chrome trace-event JSON (the "JSON array format"): metadata rows
   name the two clock-domain processes and the per-layer threads, then
   one row per event — "X" complete spans, "i" instants, "C" counters.
   Sim timestamps are cycles rendered as microseconds (1 cycle = 1 us),
   so Perfetto's timeline is the simulated clock. *)
let render_chrome buf evs =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"simulated clock (1 cycle = 1us)\"}},\n";
  Buffer.add_string buf
    "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"wall clock\"}},\n";
  List.iter
    (fun (cat, lane) ->
      List.iter
        (fun pid ->
          Buffer.add_string buf
            (Printf.sprintf
               "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%S}},\n"
               pid lane cat))
        [ 0; 1 ])
    (lanes @ [ ("misc", 6) ]);
  let first = ref true in
  List.iter
    (fun e ->
      if e.ev_kind <> Sample then begin
        if not !first then Buffer.add_string buf ",\n";
        first := false;
        let common =
          Printf.sprintf "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"name\":\"%s\",\"cat\":\"%s\""
            (pid_of_dom e.ev_dom)
            (lane_of_cat e.ev_cat)
            e.ev_ts (json_escape e.ev_name) (json_escape e.ev_cat)
        in
        match e.ev_kind with
        | Span ->
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"X\",%s,\"dur\":%.3f,\"args\":{\"detail\":\"%s\"}}"
               common e.ev_dur (json_escape e.ev_arg))
        | Instant ->
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"detail\":\"%s\"}}"
               common (json_escape e.ev_arg))
        | Counter ->
          Buffer.add_string buf
            (Printf.sprintf "{\"ph\":\"C\",%s,\"args\":{\"value\":%g}}" common
               e.ev_value)
        | Sample -> ()
      end)
    evs;
  Buffer.add_string buf "\n]}\n"

(* Collapsed-stack ("folded") format: sample events merged per stack,
   sorted for determinism — pipe into flamegraph.pl or speedscope. *)
let render_folded buf evs =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.ev_kind = Sample then begin
        let c = try Hashtbl.find tbl e.ev_name with Not_found -> 0 in
        Hashtbl.replace tbl e.ev_name (c + int_of_float e.ev_value)
      end)
    evs;
  let stacks = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.iter
    (fun (stack, count) ->
      Buffer.add_string buf (Printf.sprintf "%s %d\n" stack count))
    (List.sort compare stacks)

(* Counter-timeline CSV: one row per counter event, then a per-series
   distribution footer (n / min / quartiles / max via Support.Stats). *)
let render_csv buf evs =
  Buffer.add_string buf "ts,domain,category,name,value\n";
  let series : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      if e.ev_kind = Counter then begin
        Buffer.add_string buf
          (Printf.sprintf "%.3f,%s,%s,%s,%g\n" e.ev_ts
             (match e.ev_dom with Sim -> "sim" | Wall -> "wall")
             e.ev_cat e.ev_name e.ev_value);
        let key = e.ev_cat ^ "/" ^ e.ev_name in
        match Hashtbl.find_opt series key with
        | Some l -> l := e.ev_value :: !l
        | None -> Hashtbl.add series key (ref [ e.ev_value ])
      end)
    evs;
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) series [] in
  List.iter
    (fun key ->
      let xs = Array.of_list (List.rev !(Hashtbl.find series key)) in
      let q1, q2, q3 = Support.Stats.quartiles xs in
      let lo, hi = Support.Stats.min_max xs in
      Buffer.add_string buf
        (Printf.sprintf
           "# summary,%s,n=%d,min=%g,q1=%g,median=%g,q3=%g,max=%g\n" key
           (Array.length xs) lo q1 q2 q3 hi))
    (List.sort compare names)

let render fmt buf =
  let evs = events () in
  match fmt with
  | Chrome -> render_chrome buf evs
  | Folded -> render_folded buf evs
  | Csv -> render_csv buf evs

let write ~path =
  let n = min (emitted ()) (max 1 (capacity ())) in
  let buf = Buffer.create 4096 in
  render (format_of_path path) buf;
  match open_out_bin path with
  | exception Sys_error msg ->
    Error (Printf.sprintf "trace not written to %S: %s" path msg)
  | oc ->
    Buffer.output_buffer oc buf;
    close_out oc;
    Ok n

(* ------------------------------------------------------------------ *)
(* Configuration and binary entry points                               *)
(* ------------------------------------------------------------------ *)

let configure ?capacity ~path () =
  (* Probe writability up front so a bad --trace destination is a
     one-line error at startup, not a lost trace at exit. *)
  match open_out_bin path with
  | exception Sys_error msg ->
    Error
      (Printf.sprintf "trace path %S is not writable (%s); tracing disabled"
         path msg)
  | oc ->
    close_out_noerr oc;
    enable ?capacity ();
    Mutex.lock mu;
    out_path := Some path;
    Mutex.unlock mu;
    Ok ()

let finalize () =
  Mutex.lock mu;
  let path = !out_path in
  out_path := None;
  Mutex.unlock mu;
  match path with
  | None -> Ok None
  | Some path -> (
    let r = write ~path in
    disable ();
    match r with Ok n -> Ok (Some (path, n)) | Error m -> Error m)

let env_path = Support.Knob.path_or_off "VSPEC_TRACE" ~default:None

let setup ?path () =
  let path = match path with Some _ -> path | None -> env_path () in
  match path with
  | None -> Ok false
  | Some path -> (
    match configure ~path () with
    | Error msg -> Error msg
    | Ok () ->
      at_exit (fun () ->
          match finalize () with
          | Ok (Some (p, n)) ->
            Printf.eprintf "[vspec] trace: %d events -> %s\n%!" n p
          | Ok None -> ()
          | Error msg -> Printf.eprintf "vspec: warning: %s\n%!" msg);
      Ok true)
