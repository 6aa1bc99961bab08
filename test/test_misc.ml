(* Cross-cutting checks: conversions, workload-suite hygiene, assembler
   error handling, instruction printing, and the whole-suite baseline
   differential. *)

(* ---------------- Conv ---------------- *)

let test_number_to_string () =
  let cases =
    [ (1.0, "1"); (-42.0, "-42"); (2.5, "2.5"); (0.0, "0");
      (1e21, "1e+21"); (Float.nan, "NaN"); (Float.infinity, "Infinity");
      (Float.neg_infinity, "-Infinity") ]
  in
  List.iter
    (fun (f, want) ->
      Alcotest.(check string)
        (Printf.sprintf "number_to_string %g" f)
        want (Conv.number_to_string f))
    cases

let test_to_number_strings () =
  let h = Heap.create ~size_words:(1 lsl 16) () in
  let num s = Conv.to_number h (Heap.alloc_string h s) in
  Alcotest.(check bool) "int" true (num "42" = 42.0);
  Alcotest.(check bool) "float" true (num "2.5" = 2.5);
  Alcotest.(check bool) "trimmed" true (num "  7 " = 7.0);
  Alcotest.(check bool) "empty is zero" true (num "" = 0.0);
  Alcotest.(check bool) "garbage is NaN" true (Float.is_nan (num "4x"));
  Alcotest.(check bool) "undefined is NaN" true
    (Float.is_nan (Conv.to_number h (Heap.undefined h)));
  Alcotest.(check bool) "null is zero" true
    (Conv.to_number h (Heap.null_value h) = 0.0);
  Alcotest.(check bool) "true is one" true
    (Conv.to_number h (Heap.true_value h) = 1.0)

(* ---------------- Workload suite hygiene ---------------- *)

let test_suite_ids_unique () =
  let ids = List.map (fun (b : Workloads.Suite.benchmark) -> b.Workloads.Suite.id) Workloads.Suite.all in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_suite_sources_compile () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let u = Bcompiler.compile b.Workloads.Suite.source in
      Alcotest.(check bool)
        (b.Workloads.Suite.id ^ " has functions")
        true
        (Array.length u.Bcompiler.functions > 1))
    Workloads.Suite.all

let test_suite_bench_defined () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let cfg =
        { (Engine.default_config ~arch:Arch.Arm64 ()) with
          Engine.enable_optimizer = false }
      in
      let eng = Engine.create cfg b.Workloads.Suite.source in
      let _ = Engine.run_main eng in
      let h = (Engine.runtime eng).Runtime.heap in
      let v = Heap.cell_value h (Heap.global_cell h "bench") in
      Alcotest.(check bool)
        (b.Workloads.Suite.id ^ " defines bench()")
        true (Heap.is_function h v))
    Workloads.Suite.all

let test_smi_kernels_exist () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " exists") true
        (Workloads.Suite.by_id id <> None))
    Workloads.Suite.smi_kernels

let test_categories_nonempty () =
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        (Workloads.Suite.category_name cat ^ " populated")
        true
        (Workloads.Suite.by_category cat <> []))
    Workloads.Suite.categories

(* ---------------- Assembler / printing ---------------- *)

let test_assemble_unknown_label () =
  Alcotest.(check bool) "unknown label rejected" true
    (try
       ignore
         (Code.assemble ~code_id:0 ~name:"bad" ~arch:Arch.Arm64 ~deopts:[||]
            ~gp_slots:1 ~fp_slots:0 ~base_addr:0
            [ Insn.make (Insn.B 5); Insn.make Insn.Ret ]);
       false
     with Invalid_argument _ -> true)

let test_insn_printing_total () =
  (* Every instruction form prints on every arch without raising. *)
  let addr = Insn.mk_addr ~index:2 ~scale:2 ~offset:3 1 in
  let samples =
    [ Insn.Mov (0, Insn.Imm 5); Insn.Ldr (0, addr); Insn.Str (addr, 0);
      Insn.Ldr_f (1, addr); Insn.Str_f (addr, 1);
      Insn.Alu { op = Insn.Add; dst = 0; src = 1; rhs = Insn.Reg 2; set_flags = true };
      Insn.Alu_mem { op = Insn.Sub; dst = 0; src = 1; mem = addr };
      Insn.Cmp (0, Insn.Imm 7); Insn.Cmp_mem (0, addr); Insn.Tst (0, Insn.Imm 1);
      Insn.Fmov (0, 1); Insn.Fmov_imm (0, 2.5);
      Insn.Falu { op = Insn.Fmul; dst = 0; a = 1; b = 2 };
      Insn.Fcmp (0, 1); Insn.Scvtf (0, 1); Insn.Fcvtzs (0, 1);
      Insn.B 3; Insn.Bcond (Insn.Lo, 3); Insn.Deopt_if (Insn.Vs, 0);
      Insn.Checkpoint 0; Insn.Call (Insn.Builtin 7, 2);
      Insn.Call (Insn.Js_code 3, 4); Insn.Ret; Insn.Spill (2, 0);
      Insn.Reload (0, 2); Insn.Spill_f (1, 0); Insn.Reload_f (0, 1);
      Insn.Js_ldr_smi { dst = 0; mem = addr; deopt = 0 };
      Insn.Msr (Insn.Reg_ba, 0); Insn.Mrs (0, Insn.Reg_re); Insn.Label 3;
      Insn.Nop ]
  in
  List.iter
    (fun arch ->
      List.iter
        (fun k ->
          let s = Insn.to_string arch (Insn.make k) in
          Alcotest.(check bool) "prints" true (String.length s > 0))
        samples)
    Arch.all

let test_negate_cond_involutive () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "double negation" true
        (Insn.negate_cond (Insn.negate_cond c) = c))
    [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge; Insn.Vs; Insn.Vc;
      Insn.Hs; Insn.Lo ]

(* ---------------- Whole-suite baseline differential ---------------- *)

let test_whole_suite_baseline () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let run baseline =
        let cfg =
          { (Engine.default_config ~arch:Arch.Arm64 ()) with
            Engine.enable_optimizer = false;
            enable_baseline = baseline }
        in
        let eng = Engine.create cfg b.Workloads.Suite.source in
        let _ = Engine.run_main eng in
        let h = (Engine.runtime eng).Runtime.heap in
        let v = ref 0 in
        for _ = 1 to 6 do
          v := Engine.call_global eng "bench" [||]
        done;
        Heap.number_value h !v
      in
      let interp = run false and baseline = run true in
      Alcotest.(check bool)
        (Printf.sprintf "%s baseline=%f interp=%f" b.Workloads.Suite.id
           baseline interp)
        true
        (Float.abs (baseline -. interp) < 1e-9))
    Workloads.Suite.all

let base_suite =
  [
    ( "conv",
      [
        Alcotest.test_case "number_to_string" `Quick test_number_to_string;
        Alcotest.test_case "to_number" `Quick test_to_number_strings;
      ] );
    ( "workloads",
      [
        Alcotest.test_case "ids unique" `Quick test_suite_ids_unique;
        Alcotest.test_case "sources compile" `Quick test_suite_sources_compile;
        Alcotest.test_case "bench() defined" `Quick test_suite_bench_defined;
        Alcotest.test_case "smi kernels exist" `Quick test_smi_kernels_exist;
        Alcotest.test_case "categories populated" `Quick test_categories_nonempty;
      ] );
    ( "machine-misc",
      [
        Alcotest.test_case "unknown label" `Quick test_assemble_unknown_label;
        Alcotest.test_case "printing total" `Quick test_insn_printing_total;
        Alcotest.test_case "negate_cond involutive" `Quick test_negate_cond_involutive;
      ] );
    ( "baseline-suite",
      [ Alcotest.test_case "whole suite" `Slow test_whole_suite_baseline ] );
  ]

(* ------------------------------------------------------------------ *)
(* Property tests: builtins against OCaml reference implementations    *)
(* ------------------------------------------------------------------ *)

let eval_js src =
  let u = Bcompiler.compile ("var __r = (" ^ src ^ ");") in
  let rt = Runtime.create ~heap_size:(1 lsl 20) u in
  Builtins.install_globals rt;
  let _ = Interpreter.run_main rt in
  let h = rt.Runtime.heap in
  (h, Heap.cell_value h (Heap.global_cell h "__r"))

let js_quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let gen_word =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 14))

let prop_index_of_matches =
  QCheck.Test.make ~name:"builtin: indexOf matches reference" ~count:200
    (QCheck.make QCheck.Gen.(pair gen_word gen_word))
    (fun (hay, needle) ->
      let _, v = eval_js (js_quote hay ^ ".indexOf(" ^ js_quote needle ^ ")") in
      let reference =
        if needle = "" then 0
        else begin
          let n = String.length hay and m = String.length needle in
          let rec go i =
            if i + m > n then -1
            else if String.sub hay i m = needle then i
            else go (i + 1)
          in
          go 0
        end
      in
      Value.is_smi v && Value.smi_value v = reference)

let prop_substring_matches =
  QCheck.Test.make ~name:"builtin: substring clamps like JS" ~count:200
    (QCheck.make QCheck.Gen.(triple gen_word (int_range (-5) 20) (int_range (-5) 20)))
    (fun (s, a, b) ->
      let h, v =
        eval_js (Printf.sprintf "%s.substring(%d, %d)" (js_quote s) a b)
      in
      let n = String.length s in
      let clamp x = max 0 (min x n) in
      let a' = clamp a and b' = clamp b in
      let lo = min a' b' and hi = max a' b' in
      Heap.string_value h v = String.sub s lo (hi - lo))

let prop_split_join_roundtrip =
  QCheck.Test.make ~name:"builtin: split/join roundtrip" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_range 1 6) gen_word))
    (fun parts ->
      let joined = String.concat "," parts in
      let h, v = eval_js (js_quote joined ^ {|.split(",").join(",")|}) in
      Heap.string_value h v = joined)

let prop_from_char_code_roundtrip =
  QCheck.Test.make ~name:"builtin: fromCharCode/charCodeAt roundtrip"
    ~count:150
    (QCheck.make QCheck.Gen.(int_range 32 126))
    (fun c ->
      let _, v =
        eval_js (Printf.sprintf "String.fromCharCode(%d).charCodeAt(0)" c)
      in
      Value.is_smi v && Value.smi_value v = c)

(* JS ToInt32 reference. *)
let to_int32_ref f =
  if Float.is_nan f || Float.abs f = Float.infinity then 0
  else begin
    let m = Float.rem (Float.trunc f) 4294967296.0 in
    let w = Int64.to_int (Int64.of_float m) land 0xFFFFFFFF in
    if w >= 0x80000000 then w - 0x100000000 else w
  end

let prop_bitops_match_toint32 =
  QCheck.Test.make ~name:"interp: bitops follow ToInt32" ~count:300
    (QCheck.make
       QCheck.Gen.(
         triple
           (oneof [ map float_of_int (int_range (-3000000000) 3000000000);
                    map (fun i -> float_of_int i +. 0.75) (int_range (-1000) 1000) ])
           (int_range 0 40)
           (oneofl [ "&"; "|"; "^"; "<<"; ">>"; ">>>" ])))
    (fun (a, b, op) ->
      let h, v = eval_js (Printf.sprintf "(%.17g) %s %d" a op b) in
      let x = to_int32_ref a and y = b land 31 in
      let reference =
        match op with
        | "&" -> x land to_int32_ref (float_of_int b)
        | "|" -> x lor to_int32_ref (float_of_int b)
        | "^" -> x lxor to_int32_ref (float_of_int b)
        | "<<" ->
          let w = (x lsl y) land 0xFFFFFFFF in
          if w >= 0x80000000 then w - 0x100000000 else w
        | ">>" -> x asr y
        | _ -> (x land 0xFFFFFFFF) lsr y
      in
      Heap.number_value h v = float_of_int reference)

let prop_suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "builtin-props",
      [
        q prop_index_of_matches;
        q prop_substring_matches;
        q prop_split_join_roundtrip;
        q prop_from_char_code_roundtrip;
        q prop_bitops_match_toint32;
      ] );
  ]

(* ---------------- New builtins ---------------- *)

let test_extra_builtins () =
  let check name want src =
    let h, v = eval_js src in
    Alcotest.(check string) name want (Conv.to_js_string h v)
  in
  check "trim" "x y" {|"  x y  ".trim()|};
  check "repeat" "ababab" {|"ab".repeat(3)|};
  check "repeat zero" "" {|"ab".repeat(0)|};
  check "concat" "1,2,3,4" "[1,2].concat([3,4]).join(\",\")";
  check "reverse" "3,2,1" "[1,2,3].reverse().join(\",\")";
  check "reverse in place" "3,2,1" "(function(){var a=[1,2,3];a.reverse();return a.join(\",\");})()";
  check "tan(0)" "0" "Math.tan(0)";
  check "asin(1)" "true" "Math.abs(Math.asin(1) - Math.PI/2) < 1e-9";
  check "acos(1)" "0" "Math.acos(1)";
  check "log2(8)" "3" "Math.log2(8)"

(* ---------------- README knob table ---------------- *)

(* The environment variables the program reads ("VSPEC_*" string
   literals under lib/, bin/ and bench/) and the rows of README's knob
   table must name the same set, so a deleted knob cannot leave a stale
   row behind and a new one cannot go undocumented.  Only
   lib/support/knob.ml may call [Sys.getenv], so every knob goes through
   the one typed parser.  The sources are dune deps of the test; the
   root is the build tree's copy, or the checkout when the binary runs
   from the repository root. *)
let test_readme_knob_table () =
  let root = if Sys.file_exists "../README.md" then ".." else "." in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let rec sources dir =
    List.concat_map
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then sources p
        else if Filename.check_suffix f ".ml" then [ (p, read p) ]
        else [])
      (Array.to_list (Sys.readdir dir))
  in
  let names re text =
    let rec go pos acc =
      match Str.search_forward re text pos with
      | _ -> go (Str.match_end ()) (Str.matched_group 1 text :: acc)
      | exception Not_found -> acc
    in
    List.sort_uniq compare (go 0 [])
  in
  let files =
    List.concat_map
      (fun d -> sources (Filename.concat root d))
      [ "lib"; "bin"; "bench" ]
  in
  let read_by_code =
    String.concat "\n" (List.map snd files)
    |> names (Str.regexp {|"\(VSPEC_[A-Z0-9_]+\)"|})
  in
  let getenv_outside_knob =
    List.filter_map
      (fun (p, text) ->
        match Str.search_forward (Str.regexp_string "Sys.getenv") text 0 with
        | _ when p = Filename.concat root "lib/support/knob.ml" -> None
        | _ -> Some p
        | exception Not_found -> None)
      files
  in
  Alcotest.(check (list string)) "Sys.getenv only in lib/support/knob.ml" []
    getenv_outside_knob;
  let rows =
    names
      (Str.regexp {|^| `\(VSPEC_[A-Z0-9_]+\)`|})
      (read (Filename.concat root "README.md"))
  in
  Alcotest.(check bool) "code reads some knobs" true (read_by_code <> []);
  Alcotest.(check (list string)) "README rows = variables read" read_by_code
    rows

let extra_suite =
  [ ("builtins-extra", [ Alcotest.test_case "extras" `Quick test_extra_builtins ]);
    ( "docs",
      [ Alcotest.test_case "README knob table matches the code" `Quick
          test_readme_knob_table ] ) ]

let suite = base_suite @ prop_suite @ extra_suite
