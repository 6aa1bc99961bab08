let default_jobs =
  Knob.int "VSPEC_JOBS" ~min:1
    ~default:(max 1 (Domain.recommended_domain_count () - 1))

let map_array ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length xs in
  if jobs = 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get failure <> None then continue := false
        else
          match f xs.(i) with
          | v -> results.(i) <- Some v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      done
    in
    let spawned =
      Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    Array.iter Domain.join spawned;
    (match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?jobs f xs = Array.to_list (map_array ?jobs f (Array.of_list xs))
let run ?jobs thunks = map ?jobs (fun f -> f ()) thunks
(* Fault-contained variant: every job runs to an [Ok]/[Error] verdict,
   a failing job never halts the others, and transient fault classes
   are retried inside the job's slot, so one flaky cell cannot poison
   a whole figure sweep.  The job never raises, so [map_array]'s
   stop-on-failure path is never taken. *)
let map_result ?jobs ?retries f xs =
  let job (i, x) =
    match
      Fault.guard ?retries
        ~inject:(Fault.Inject.Worker, string_of_int i)
        (fun ~attempt:_ -> f x)
    with
    | Ok v -> Ok v
    | Error (e, _attempts) -> Error e
  in
  map ?jobs job (List.mapi (fun i x -> (i, x)) xs)

module Memo = struct
  type 'v entry = Published of 'v | In_flight

  type ('k, 'v) t = {
    mu : Mutex.t;
    cv : Condition.t;
    tbl : ('k, 'v entry) Hashtbl.t;
  }

  let create n =
    { mu = Mutex.create (); cv = Condition.create (); tbl = Hashtbl.create n }

  let find_or_compute t k f =
    Mutex.lock t.mu;
    let rec claim () =
      match Hashtbl.find_opt t.tbl k with
      | Some (Published v) ->
        Mutex.unlock t.mu;
        v
      | Some In_flight ->
        Condition.wait t.cv t.mu;
        claim ()
      | None ->
        Hashtbl.replace t.tbl k In_flight;
        Mutex.unlock t.mu;
        (match f () with
        | v ->
          Mutex.lock t.mu;
          Hashtbl.replace t.tbl k (Published v);
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.mu;
          Hashtbl.remove t.tbl k;
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          Printexc.raise_with_backtrace e bt)
    in
    claim ()

  let find_opt t k =
    Mutex.lock t.mu;
    let r =
      match Hashtbl.find_opt t.tbl k with
      | Some (Published v) -> Some v
      | Some In_flight | None -> None
    in
    Mutex.unlock t.mu;
    r

  let length t =
    Mutex.lock t.mu;
    let n =
      Hashtbl.fold
        (fun _ e acc -> match e with Published _ -> acc + 1 | In_flight -> acc)
        t.tbl 0
    in
    Mutex.unlock t.mu;
    n

  let clear t =
    Mutex.lock t.mu;
    Hashtbl.reset t.tbl;
    Mutex.unlock t.mu
end
