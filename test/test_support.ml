(* Unit and property tests for the support library: deterministic RNG
   and the statistics used by the paper's analysis. *)

let approx ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_float name ?(eps = 1e-6) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.8f, got %.8f" name expected actual)
    true (approx ~eps expected actual)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Support.Rng.create 42 and b = Support.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Support.Rng.int a 1000) (Support.Rng.int b 1000)
  done

let test_rng_seed_differs () =
  let a = Support.Rng.create 1 and b = Support.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Support.Rng.int a 1_000_000 = Support.Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_split_independent () =
  let a = Support.Rng.create 7 in
  let c = Support.Rng.split a in
  let xs = Array.init 20 (fun _ -> Support.Rng.int a 100) in
  let ys = Array.init 20 (fun _ -> Support.Rng.int c 100) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_rng_int_in () =
  let r = Support.Rng.create 3 in
  for _ = 1 to 200 do
    let v = Support.Rng.int_in r (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_rng_shuffle_permutes () =
  let r = Support.Rng.create 9 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Support.Rng.shuffle r b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a);
  Alcotest.(check bool) "actually shuffled" true (a <> b)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng: int in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Support.Rng.create seed in
      let v = Support.Rng.int r bound in
      v >= 0 && v < bound)

let prop_gaussian_finite =
  QCheck.Test.make ~name:"rng: gaussian finite" ~count:200 QCheck.small_int
    (fun seed ->
      let r = Support.Rng.create seed in
      let v = Support.Rng.gaussian r ~mu:0.0 ~sigma:1.0 in
      Float.is_finite v)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_mean_var () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Support.Stats.mean xs);
  check_float "variance" (32.0 /. 7.0) (Support.Stats.variance xs);
  check_float "stddev" (sqrt (32.0 /. 7.0)) (Support.Stats.stddev xs)

let test_median_percentile () =
  check_float "median odd" 3.0 (Support.Stats.median [| 1.0; 3.0; 5.0 |]);
  check_float "median even" 2.5 (Support.Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  check_float "p0" 1.0 (Support.Stats.percentile [| 1.0; 2.0; 3.0 |] 0.0);
  check_float "p100" 3.0 (Support.Stats.percentile [| 1.0; 2.0; 3.0 |] 100.0);
  let q1, m, q3 = Support.Stats.quartiles [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "q1" 2.0 q1;
  check_float "median" 3.0 m;
  check_float "q3" 4.0 q3

(* Degenerate sample sizes (the counter-timeline exporter summarizes
   arbitrary, possibly single-event, series): n=1 must return the lone
   element at every p, and n=2 must interpolate linearly between the
   two order statistics (rank = p/100 * (n-1)). *)
let test_percentile_edge_cases () =
  let one = [| 42.0 |] in
  List.iter
    (fun p ->
      check_float
        (Printf.sprintf "n=1 p%g" p)
        42.0
        (Support.Stats.percentile one p))
    [ 0.0; 25.0; 50.0; 75.0; 100.0 ];
  let q1, m, q3 = Support.Stats.quartiles one in
  check_float "n=1 q1" 42.0 q1;
  check_float "n=1 median" 42.0 m;
  check_float "n=1 q3" 42.0 q3;
  let two = [| 10.0; 20.0 |] in
  check_float "n=2 p0" 10.0 (Support.Stats.percentile two 0.0);
  check_float "n=2 p25" 12.5 (Support.Stats.percentile two 25.0);
  check_float "n=2 p50" 15.0 (Support.Stats.percentile two 50.0);
  check_float "n=2 p75" 17.5 (Support.Stats.percentile two 75.0);
  check_float "n=2 p100" 20.0 (Support.Stats.percentile two 100.0);
  (* Order independence: percentile sorts internally. *)
  check_float "n=2 unsorted p25" 12.5
    (Support.Stats.percentile [| 20.0; 10.0 |] 25.0);
  let q1, m, q3 = Support.Stats.quartiles two in
  check_float "n=2 q1" 12.5 q1;
  check_float "n=2 median" 15.0 m;
  check_float "n=2 q3" 17.5 q3;
  let lo, hi = Support.Stats.min_max one in
  check_float "n=1 min" 42.0 lo;
  check_float "n=1 max" 42.0 hi

let test_geomean () =
  check_float "geomean" 4.0 (Support.Stats.geomean [| 2.0; 8.0 |])

let test_erf_normal () =
  check_float ~eps:1e-4 "erf(0)" 0.0 (Support.Stats.erf 0.0);
  check_float ~eps:1e-4 "erf(1)" 0.8427008 (Support.Stats.erf 1.0);
  check_float ~eps:1e-4 "erf(-1)" (-0.8427008) (Support.Stats.erf (-1.0));
  check_float ~eps:1e-4 "Phi(0)" 0.5 (Support.Stats.normal_cdf 0.0);
  check_float ~eps:1e-3 "Phi(1.96)" 0.975 (Support.Stats.normal_cdf 1.96)

let test_log_gamma () =
  (* ln((n-1)!) *)
  check_float ~eps:1e-9 "lgamma(1)" 0.0 (Support.Stats.log_gamma 1.0);
  check_float ~eps:1e-9 "lgamma(2)" 0.0 (Support.Stats.log_gamma 2.0);
  check_float ~eps:1e-6 "lgamma(5)" (log 24.0) (Support.Stats.log_gamma 5.0);
  check_float ~eps:1e-6 "lgamma(0.5)" (log (sqrt Float.pi))
    (Support.Stats.log_gamma 0.5)

let test_student_t () =
  (* Large df approaches the normal distribution. *)
  check_float ~eps:2e-3 "t-cdf df=1000 at 1.96" 0.975
    (Support.Stats.student_t_cdf ~df:1000.0 1.96);
  (* Symmetry. *)
  check_float ~eps:1e-9 "t-cdf symmetry" 1.0
    (Support.Stats.student_t_cdf ~df:7.0 1.3
    +. Support.Stats.student_t_cdf ~df:7.0 (-1.3));
  (* Known quantile: t_{0.975, df=10} = 2.228. *)
  check_float ~eps:2e-3 "t-inv df=10" 2.228
    (Support.Stats.student_t_inv ~df:10.0 0.975)

let test_welch () =
  let a = [| 27.5; 21.0; 19.0; 23.6; 17.0; 17.9; 16.9; 20.1; 21.9; 22.6; 23.1; 19.6; 19.0; 21.7; 21.4 |] in
  let b = [| 27.1; 22.0; 20.8; 23.4; 23.4; 23.5; 25.8; 22.0; 24.8; 20.2; 21.9; 22.1; 22.9; 30.5; 31.3 |] in
  let t = Support.Stats.welch_ttest a b in
  Alcotest.(check bool) "t negative" true (t.Support.Stats.t_stat < 0.0);
  Alcotest.(check bool) "p in (0,1)" true
    (t.Support.Stats.p_value > 0.0 && t.Support.Stats.p_value < 1.0);
  (* Identical samples: no significance. *)
  let same = Support.Stats.welch_ttest a a in
  check_float ~eps:1e-9 "identical p=1" 1.0 same.Support.Stats.p_value

let test_pearson_regression () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  let ys = [| 2.0; 4.0; 6.0; 8.0; 10.0 |] in
  check_float "perfect correlation" 1.0 (Support.Stats.pearson xs ys);
  let reg = Support.Stats.linear_regression xs ys in
  check_float "slope" 2.0 reg.Support.Stats.slope;
  check_float "intercept" 0.0 reg.Support.Stats.intercept;
  check_float "r2" 1.0 reg.Support.Stats.r2;
  let anti = Array.map (fun y -> -.y) ys in
  check_float "anti correlation" (-1.0) (Support.Stats.pearson xs anti)

let test_correlation_p () =
  (* Strong correlation on many points: tiny p. *)
  let p = Support.Stats.correlation_p_value ~n:50 ~r:0.9 in
  Alcotest.(check bool) "strong corr significant" true (p < 1e-6);
  let p2 = Support.Stats.correlation_p_value ~n:10 ~r:0.05 in
  Alcotest.(check bool) "weak corr not significant" true (p2 > 0.5)

let test_bonferroni () =
  check_float "bonferroni" 0.001 (Support.Stats.bonferroni ~alpha:0.05 ~tests:50)

let test_practical_significance () =
  let baseline = Array.init 30 (fun i -> 100.0 +. (0.1 *. float_of_int (i mod 5))) in
  let faster = Array.map (fun x -> x *. 0.9) baseline in
  let s =
    Support.Stats.practical_significance ~alpha:0.05 ~tests:10 ~min_effect:0.02
      ~baseline ~variant:faster
  in
  Alcotest.(check bool) "10% faster is practical" true s.Support.Stats.practical;
  let noise = Array.map (fun x -> x *. 1.001) baseline in
  let s2 =
    Support.Stats.practical_significance ~alpha:0.05 ~tests:10 ~min_effect:0.02
      ~baseline ~variant:noise
  in
  Alcotest.(check bool) "0.1% diff is not practical" false s2.Support.Stats.practical

let prop_percentile_bounds =
  QCheck.Test.make ~name:"stats: percentile within min/max" ~count:300
    QCheck.(pair (array_of_size (Gen.int_range 1 40) (float_range (-1e6) 1e6)) (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Support.Stats.percentile xs p in
      let lo, hi = Support.Stats.min_max xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_mean_bounds =
  QCheck.Test.make ~name:"stats: mean within min/max" ~count:300
    QCheck.(array_of_size (Gen.int_range 1 40) (float_range (-1e6) 1e6))
    (fun xs ->
      let m = Support.Stats.mean xs in
      let lo, hi = Support.Stats.min_max xs in
      m >= lo -. 1e-6 && m <= hi +. 1e-6)

let prop_variance_nonneg =
  QCheck.Test.make ~name:"stats: variance >= 0" ~count:300
    QCheck.(array_of_size (Gen.int_range 2 40) (float_range (-1e3) 1e3))
    (fun xs -> Support.Stats.variance xs >= 0.0)

let prop_t_inv_roundtrip =
  QCheck.Test.make ~name:"stats: t_cdf (t_inv p) = p" ~count:100
    QCheck.(pair (float_range 0.05 0.95) (int_range 2 60))
    (fun (p, df) ->
      let df = float_of_int df in
      let t = Support.Stats.student_t_inv ~df p in
      Float.abs (Support.Stats.student_t_cdf ~df t -. p) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Support.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Support.Table.add_row t [ "x"; "yyyy" ];
  let s = Support.Table.render t in
  Alcotest.(check bool) "contains title" true
    (String.length s > 0 && String.sub s 0 4 = "demo");
  Alcotest.(check bool) "contains cell" true
    (String.length s > 0
    &&
    let re = Str.regexp_string "yyyy" in
    try
      ignore (Str.search_forward re s 0);
      true
    with Not_found -> false)

let test_table_bad_row () =
  let t = Support.Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Support.Table.add_row t [ "only one" ])

let test_bar () =
  let full = Support.Table.bar ~width:4 ~max:10.0 10.0 in
  let empty = Support.Table.bar ~width:4 ~max:10.0 0.0 in
  Alcotest.(check bool) "full bar longer than empty" true
    (String.length full > String.length (String.trim empty))

(* ------------------------------------------------------------------ *)
(* Knob                                                                *)
(* ------------------------------------------------------------------ *)

(* Every reader over unset, "", a valid value, garbage and (where the
   reader has a range) an out-of-range value; [None] expects
   [Knob.Invalid] naming the knob and the value. *)
let test_knob_readers () =
  let module K = Support.Knob in
  let shown show read () = show (read ()) in
  let rows =
    [ ( "int",
        (fun n -> shown string_of_int (K.int n ~min:1 ~default:7)),
        [ ("", Some "7"); ("12", Some "12"); (" 3 ", Some "3");
          ("1e3", None); ("abc", None); ("0", None); ("-4", None) ] );
      ( "float",
        (fun n -> shown string_of_float (K.float n ~default:5.0)),
        [ ("", Some "5."); ("2.5e3", Some "2500."); ("off", Some "inf");
          ("0", Some "inf"); ("lots", None); ("-1", None) ] );
      ( "flag",
        (fun n -> shown string_of_bool (K.flag n ~default:false)),
        [ ("", Some "false"); ("1", Some "true"); ("on", Some "true");
          ("no", Some "false"); ("off", Some "false"); ("ture", None) ] );
      ( "path_or_off",
        (fun n ->
          shown (Option.value ~default:"-")
            (K.path_or_off n ~default:(Some "dflt"))),
        [ ("", Some "dflt"); ("a b/c", Some "a b/c"); ("off", Some "-");
          ("none", Some "-") ] );
      ( "string",
        (fun n ->
          shown Fun.id
            (K.string n ~default:"a" (function
              | ("a" | "b") as v -> Ok v
              | _ -> Error "a or b"))),
        [ ("", Some "a"); ("b", Some "b"); ("c", None) ] ) ]
  in
  List.iter
    (fun (kind, declare, cases) ->
      let name = "VSPEC_TEST_" ^ String.uppercase_ascii kind in
      let unset = declare (name ^ "_UNSET") and read = declare name in
      Fun.protect
        ~finally:(fun () -> Unix.putenv name "")
        (fun () ->
          List.iter
            (fun (value, expected) ->
              Unix.putenv name value;
              let got =
                match read () with
                | v -> Some v
                | exception K.Invalid { name = n; value = v; _ } ->
                  Alcotest.(check (pair string string))
                    "Invalid names the knob and value" (name, value) (n, v);
                  None
              in
              Alcotest.(check (option string))
                (Printf.sprintf "%s %S" kind value) expected got)
            cases;
          Unix.putenv name "";
          Alcotest.(check string) (kind ^ ": \"\" = unset") (unset ()) (read ())))
    rows;
  Unix.putenv "VSPEC_TEST_INT" "abc";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "VSPEC_TEST_INT" "")
    (fun () ->
      Alcotest.(check bool) "set lists it" true
        (List.mem ("VSPEC_TEST_INT", "abc") (K.set ()));
      Alcotest.(check bool) "validate rejects it" true
        (match K.validate () with
        | () -> false
        | exception K.Invalid { name; _ } -> name = "VSPEC_TEST_INT"))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seed_differs;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        q prop_rng_bounds;
        q prop_gaussian_finite;
      ] );
    ( "stats",
      [
        Alcotest.test_case "mean/var" `Quick test_mean_var;
        Alcotest.test_case "median/percentile" `Quick test_median_percentile;
        Alcotest.test_case "percentile n=1/n=2 edges" `Quick
          test_percentile_edge_cases;
        Alcotest.test_case "geomean" `Quick test_geomean;
        Alcotest.test_case "erf/normal" `Quick test_erf_normal;
        Alcotest.test_case "log_gamma" `Quick test_log_gamma;
        Alcotest.test_case "student t" `Quick test_student_t;
        Alcotest.test_case "welch" `Quick test_welch;
        Alcotest.test_case "pearson/regression" `Quick test_pearson_regression;
        Alcotest.test_case "correlation p" `Quick test_correlation_p;
        Alcotest.test_case "bonferroni" `Quick test_bonferroni;
        Alcotest.test_case "practical significance" `Quick test_practical_significance;
        q prop_percentile_bounds;
        q prop_mean_bounds;
        q prop_variance_nonneg;
        q prop_t_inv_roundtrip;
      ] );
    ( "knob",
      [ Alcotest.test_case "readers: unset, empty, valid, garbage, range" `Quick
          test_knob_readers ] );
    ( "table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "bad row" `Quick test_table_bad_row;
        Alcotest.test_case "bar" `Quick test_bar;
      ] );
  ]
