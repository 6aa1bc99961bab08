(* Structured fault taxonomy, deterministic fault injection, bounded
   retries, and the process-wide failure ledger.  See INTERNALS.md
   "Failure handling". *)

type exn_info = { exn_name : string; exn_msg : string }

type error =
  | Runaway of { what : string; limit : float }
  | Checksum_mismatch of { cell : string; expected : float; got : float }
  | Cache_corrupt of { path : string; reason : string }
  | Worker_crash of exn_info
  | Injected of { site : string; key : string }

exception Fault of error

type severity = Transient | Permanent

(* Simulations are deterministic, so a crash or a runaway reproduces on
   every retry: retrying them only burns time.  Injected faults model
   environmental flakes and corrupt cache entries disappear once
   quarantined, so those two classes are worth another attempt. *)
let classify = function
  | Injected _ | Cache_corrupt _ -> Transient
  | Runaway _ | Checksum_mismatch _ | Worker_crash _ -> Permanent

let is_transient e = classify e = Transient

let class_name = function
  | Runaway _ -> "runaway"
  | Checksum_mismatch _ -> "checksum-mismatch"
  | Cache_corrupt _ -> "cache-corrupt"
  | Worker_crash _ -> "worker-crash"
  | Injected _ -> "injected"

let describe = function
  | Runaway { what; limit } ->
    Printf.sprintf "runaway: %s exceeded the %.0f-cycle watchdog budget" what
      limit
  | Checksum_mismatch { cell; expected; got } ->
    Printf.sprintf "checksum mismatch: %s expected %g, got %g" cell expected
      got
  | Cache_corrupt { path; reason } ->
    Printf.sprintf "corrupt cache entry %s (%s)" path reason
  | Worker_crash { exn_name; exn_msg } ->
    Printf.sprintf "worker crash: %s (%s)" exn_name exn_msg
  | Injected { site; key } ->
    Printf.sprintf "injected fault at %s (%s)" site key

let of_exn = function
  | Fault e -> e
  | e ->
    Worker_crash
      { exn_name = Printexc.exn_slot_name e; exn_msg = Printexc.to_string e }

let runaway ~what ~limit = raise (Fault (Runaway { what; limit }))

(* ------------------------------------------------------------------ *)
(* Deterministic seeded fault injection                                *)
(* ------------------------------------------------------------------ *)

module Inject = struct
  type site = Cache_read | Cache_write | Worker | Sim

  let site_name = function
    | Cache_read -> "cache-read"
    | Cache_write -> "cache-write"
    | Worker -> "worker"
    | Sim -> "sim"

  let site_of_string = function
    | "cache-read" -> Some Cache_read
    | "cache-write" -> Some Cache_write
    | "worker" -> Some Worker
    | "sim" -> Some Sim
    | _ -> None

  type rule = {
    r_site : site;
    r_rate : float;
    r_seed : int;
    r_key_filter : string option;  (* substring of the fault key *)
  }

  let parse_rule s =
    let rule site rate seed r_key_filter =
      match
        (site_of_string site, float_of_string_opt rate, int_of_string_opt seed)
      with
      | Some r_site, Some r_rate, Some r_seed
        when r_rate >= 0.0 && r_rate <= 1.0 ->
        Some { r_site; r_rate; r_seed; r_key_filter }
      | _ -> None
    in
    match String.split_on_char ':' (String.trim s) with
    | [ site; rate; seed ] | [ site; rate; seed; "" ] -> rule site rate seed None
    | [ site; rate; seed; filter ] -> rule site rate seed (Some filter)
    | _ -> None

  (* One bad rule rejects the whole spec. *)
  let parse_spec s =
    let rules =
      if String.trim s = "" then []
      else List.map parse_rule (String.split_on_char ',' s)
    in
    if List.exists Option.is_none rules then
      Error "site:rate:seed[:key] rules (sites cache-read, cache-write, \
             worker, sim; rate in [0, 1])"
    else Ok (List.filter_map Fun.id rules)

  (* [None] = read [VSPEC_FAULTS].  [set_spec] overrides (tests); a
     parsed list is immutable, so concurrent readers are safe. *)
  let rules : rule list option ref = ref None

  let set_spec s =
    match parse_spec s with
    | Ok rs -> rules := Some rs
    | Error expected -> invalid_arg ("Fault.Inject.set_spec: expected " ^ expected)

  let env_rules = Knob.string "VSPEC_FAULTS" ~default:[] parse_spec

  let current () = match !rules with Some rs -> rs | None -> env_rules ()

  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0

  (* The injection decision is a pure hash of (seed, site, key,
     attempt): independent of domain scheduling and evaluation order,
     so injected runs are reproducible, and retries of the same key
     re-roll (the attempt is part of the hash), so transient injection
     below rate 1 eventually clears. *)
  let decision ~seed ~site ~key ~attempt =
    let d =
      Digest.string
        (Printf.sprintf "vspec-fault|%d|%s|%s|%d" seed (site_name site) key
           attempt)
    in
    let x = ref 0 in
    for i = 0 to 5 do
      x := (!x lsl 8) lor Char.code d.[i]
    done;
    float_of_int !x /. 281474976710656.0 (* / 2^48 -> uniform [0, 1) *)

  let fires ~site ~key ~attempt =
    let rec scan = function
      | [] -> None
      | r :: rest ->
        if
          r.r_site = site
          && (match r.r_key_filter with
             | None -> true
             | Some f -> contains ~sub:f key)
          && decision ~seed:r.r_seed ~site ~key ~attempt < r.r_rate
        then Some (Injected { site = site_name site; key })
        else scan rest
    in
    match current () with [] -> None | rs -> scan rs

  let check ~site ~key ~attempt =
    match fires ~site ~key ~attempt with
    | None -> ()
    | Some e -> raise (Fault e)
end

(* ------------------------------------------------------------------ *)
(* Retry policy                                                        *)
(* ------------------------------------------------------------------ *)

let max_retries = Knob.int "VSPEC_RETRIES" ~min:0 ~default:2

let guard ?retries ?inject f =
  let retries = match retries with Some r -> max 0 r | None -> max_retries () in
  let rec go attempt =
    let outcome =
      match
        (match inject with
        | Some (site, key) -> Inject.check ~site ~key ~attempt
        | None -> ());
        f ~attempt
      with
      | v -> Ok v
      | exception e -> Error (of_exn e)
    in
    match outcome with
    | Ok v -> Ok v
    | Error e when is_transient e && attempt < retries -> go (attempt + 1)
    | Error e -> Error (e, attempt + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Process-wide failure ledger                                         *)
(* ------------------------------------------------------------------ *)

module Ledger = struct
  type entry = {
    cell : string;
    err : error;
    attempts : int;
    permanent : bool;
  }

  let mu = Mutex.create ()
  let items : entry list ref = ref []

  let record ?(attempts = 1) ?(permanent = true) ~cell err =
    Mutex.lock mu;
    items := { cell; err; attempts; permanent } :: !items;
    Mutex.unlock mu

  let note ~cell err = record ~permanent:false ~cell err

  let entries () =
    Mutex.lock mu;
    let es = List.rev !items in
    Mutex.unlock mu;
    es

  let permanent_count () =
    List.length (List.filter (fun e -> e.permanent) (entries ()))

  let clear () =
    Mutex.lock mu;
    items := [];
    Mutex.unlock mu

  let exit_code () = if permanent_count () > 0 then 1 else 0

  let report oc =
    let es = entries () in
    if es <> [] then begin
      let perm = List.filter (fun e -> e.permanent) es in
      Printf.fprintf oc
        "[vspec] failure ledger: %d permanent failure(s), %d recovered/noted\n"
        (List.length perm)
        (List.length es - List.length perm);
      List.iter
        (fun e ->
          Printf.fprintf oc "  %s cell %s: %s (attempts=%d) -- %s\n"
            (if e.permanent then "FAILED " else "note   ")
            e.cell (class_name e.err) e.attempts (describe e.err))
        es
    end
end
