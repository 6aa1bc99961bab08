(* Unit tests for the Support.Pool domain pool and its single-flight
   memo table: result ordering, exception propagation, the jobs=1
   sequential fallback, and single-flight semantics under contention. *)

let test_map_ordering () =
  let xs = Array.init 100 Fun.id in
  let ys = Support.Pool.map_array ~jobs:4 (fun i -> i * i) xs in
  Alcotest.(check (array int)) "ordered results"
    (Array.init 100 (fun i -> i * i))
    ys;
  let zs = Support.Pool.map ~jobs:3 string_of_int [ 3; 1; 2 ] in
  Alcotest.(check (list string)) "list order" [ "3"; "1"; "2" ] zs

let test_run_ordering () =
  let rs = Support.Pool.run ~jobs:4 (List.init 20 (fun i () -> i + 100)) in
  Alcotest.(check (list int)) "thunk order" (List.init 20 (fun i -> i + 100)) rs

let test_uneven_costs () =
  (* Dynamic scheduling: wildly uneven job costs still produce ordered
     results. *)
  let xs = Array.init 24 (fun i -> if i mod 7 = 0 then 30000 else 10) in
  let ys =
    Support.Pool.map_array ~jobs:4
      (fun n ->
        let acc = ref 0 in
        for k = 1 to n do
          acc := !acc + k
        done;
        !acc)
      xs
  in
  Array.iteri
    (fun i n ->
      Alcotest.(check int) "sum" (n * (n + 1) / 2) ys.(i))
    xs

let test_jobs1_sequential () =
  (* jobs = 1 runs everything in the calling domain, in order. *)
  let self = (Domain.self () :> int) in
  let order = ref [] in
  let ys =
    Support.Pool.map ~jobs:1
      (fun i ->
        order := i :: !order;
        (Domain.self () :> int))
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "in calling domain" [ self; self; self; self; self ] ys;
  Alcotest.(check (list int)) "submission order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_exception_propagation () =
  Alcotest.check_raises "propagates the job's exception" (Failure "boom")
    (fun () ->
      ignore
        (Support.Pool.map ~jobs:3
           (fun i -> if i = 25 then failwith "boom" else i)
           (List.init 50 Fun.id)))

let test_exception_jobs1 () =
  Alcotest.check_raises "sequential fallback too" (Failure "seq")
    (fun () ->
      ignore
        (Support.Pool.map ~jobs:1
           (fun i -> if i = 3 then failwith "seq" else i)
           (List.init 8 Fun.id)))

let test_default_jobs_env () =
  Unix.putenv "VSPEC_JOBS" "3";
  Alcotest.(check int) "VSPEC_JOBS wins" 3 (Support.Pool.default_jobs ());
  Unix.putenv "VSPEC_JOBS" "not-a-number";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "VSPEC_JOBS" "1")
    (fun () ->
      Alcotest.(check bool) "garbage is a typed error" true
        (match Support.Pool.default_jobs () with
        | _ -> false
        | exception Support.Knob.Invalid { name = "VSPEC_JOBS"; _ } -> true))

let test_memo_single_flight () =
  let m : (string, int) Support.Pool.Memo.t = Support.Pool.Memo.create 4 in
  let computed = Atomic.make 0 in
  let rs =
    Support.Pool.run ~jobs:4
      (List.init 16 (fun _ () ->
           Support.Pool.Memo.find_or_compute m "key" (fun () ->
               Atomic.incr computed;
               (* Widen the race window so concurrent domains really do
                  contend for the same in-flight key. *)
               Unix.sleepf 0.02;
               42)))
  in
  Alcotest.(check (list int)) "all callers get the value"
    (List.init 16 (fun _ -> 42))
    rs;
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computed);
  Alcotest.(check int) "one published entry" 1 (Support.Pool.Memo.length m)

let test_memo_failure_releases_key () =
  let m : (string, int) Support.Pool.Memo.t = Support.Pool.Memo.create 4 in
  let attempts = ref 0 in
  let compute () =
    incr attempts;
    if !attempts = 1 then failwith "first try fails" else 7
  in
  Alcotest.check_raises "failure propagates" (Failure "first try fails")
    (fun () -> ignore (Support.Pool.Memo.find_or_compute m "k" compute));
  Alcotest.(check (option int)) "failed key not published" None
    (Support.Pool.Memo.find_opt m "k");
  Alcotest.(check int) "retry recomputes" 7
    (Support.Pool.Memo.find_or_compute m "k" compute);
  Alcotest.(check (option int)) "now published" (Some 7)
    (Support.Pool.Memo.find_opt m "k")

let test_memo_failure_multi_domain () =
  (* A producer that dies while other domains are parked on its key
     must release the key: exactly one caller sees the crash, every
     other caller re-runs the compute and gets the value. *)
  let m : (string, int) Support.Pool.Memo.t = Support.Pool.Memo.create 4 in
  let attempts = Atomic.make 0 in
  let compute () =
    let n = Atomic.fetch_and_add attempts 1 in
    (* Hold the key long enough for the other domains to pile up. *)
    Unix.sleepf 0.01;
    if n = 0 then failwith "producer dies" else 99
  in
  let rs =
    Support.Pool.map_result ~jobs:4 ~retries:0
      (fun _ -> Support.Pool.Memo.find_or_compute m "k" compute)
      (List.init 8 Fun.id)
  in
  let crashed, ok =
    List.partition (function Error _ -> true | Ok _ -> false) rs
  in
  Alcotest.(check int) "exactly one caller crashes" 1 (List.length crashed);
  (match crashed with
  | [ Error (Support.Fault.Worker_crash _) ] -> ()
  | _ -> Alcotest.fail "crash must classify as Worker_crash");
  Alcotest.(check (list int)) "survivors all get the recomputed value"
    (List.init 7 (fun _ -> 99))
    (List.map (function Ok v -> v | Error _ -> -1) ok);
  Alcotest.(check int) "recomputed exactly once after the failure" 2
    (Atomic.get attempts);
  Alcotest.(check int) "one published entry" 1 (Support.Pool.Memo.length m)

let test_memo_distinct_keys () =
  let m : (int, int) Support.Pool.Memo.t = Support.Pool.Memo.create 16 in
  let rs =
    Support.Pool.map ~jobs:4
      (fun i -> Support.Pool.Memo.find_or_compute m (i mod 5) (fun () -> i mod 5))
      (List.init 40 Fun.id)
  in
  Alcotest.(check (list int)) "values match keys"
    (List.init 40 (fun i -> i mod 5))
    rs;
  Alcotest.(check int) "five entries" 5 (Support.Pool.Memo.length m);
  Support.Pool.Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Support.Pool.Memo.length m)

let test_env_knobs_across_domains () =
  (* The engine, regex-budget and verify accessors are read from every
     pool domain; none may fail when several domains reach them at the
     same instant (a shared [lazy] would raise
     [CamlinternalLazy.Undefined] in all but one). *)
  let n = 4 in
  let ready = Atomic.make 0 in
  let values () =
    ( Exec.current_engine (),
      Regex.step_limit (),
      Experiments.Common.verify_enabled () )
  in
  let read () =
    Atomic.incr ready;
    while Atomic.get ready < n do
      Domain.cpu_relax ()
    done;
    values ()
  in
  let expected = values () in
  let domains = List.init n (fun _ -> Domain.spawn read) in
  List.iter
    (fun d ->
      Alcotest.(check bool) "same values in every domain" true
        (Domain.join d = expected))
    domains

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "map ordering" `Quick test_map_ordering;
        Alcotest.test_case "run ordering" `Quick test_run_ordering;
        Alcotest.test_case "uneven job costs" `Quick test_uneven_costs;
        Alcotest.test_case "jobs=1 sequential fallback" `Quick test_jobs1_sequential;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "exception (jobs=1)" `Quick test_exception_jobs1;
        Alcotest.test_case "VSPEC_JOBS knob" `Quick test_default_jobs_env;
        Alcotest.test_case "env knobs read from racing domains" `Quick
          test_env_knobs_across_domains;
      ] );
    ( "pool-memo",
      [
        Alcotest.test_case "single flight" `Quick test_memo_single_flight;
        Alcotest.test_case "failure releases key" `Quick test_memo_failure_releases_key;
        Alcotest.test_case "failure releases key (multi-domain)" `Quick
          test_memo_failure_multi_domain;
        Alcotest.test_case "distinct keys" `Quick test_memo_distinct_keys;
      ] );
  ]
