let archs = [ Arch.X64; Arch.Arm64 ]

(* Fan the figure's full cell set out across the domain pool before the
   (sequential, deterministic) table-building body reads the caches. *)
let normal_cells () =
  List.concat_map
    (fun arch ->
      List.map
        (fun b -> Plan.cell ~arch ~seed:1 Common.V_normal b)
        (Common.suite ()))
    archs

let fig1 () =
  Plan.run (normal_cells ());
  Support.Table.section
    "Fig 1: deoptimization checks per 100 instructions (dynamic and static)";
  let t =
    Support.Table.create ~title:"checks per 100 instructions"
      ~columns:
        [ "benchmark"; "category"; "x64 dyn"; "x64 static"; "arm64 dyn";
          "arm64 static"; "" ]
  in
  let dyn_all = Hashtbl.create 4 in
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      match
        List.concat_map
          (fun arch ->
            let r = Common.run_cached ~arch ~seed:1 Common.V_normal b in
            let dyn = Harness.checks_per_100 r in
            let stat =
              if r.Harness.static_insns = 0 then 0.0
              else
                100.0
                *. float_of_int r.Harness.static_checks
                /. float_of_int r.Harness.static_insns
            in
            Hashtbl.replace dyn_all (arch, b.Workloads.Suite.id) dyn;
            [ Printf.sprintf "%.1f" dyn; Printf.sprintf "%.1f" stat ])
          archs
      with
      | exception Support.Fault.Fault err ->
        Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
          ~reason:(Support.Fault.class_name err)
      | cells ->
        let x64_dyn = Hashtbl.find dyn_all (Arch.X64, b.Workloads.Suite.id) in
        Support.Table.add_row t
          ([ b.Workloads.Suite.id;
             Workloads.Suite.category_name b.Workloads.Suite.category ]
          @ cells
          @ [ Support.Table.bar ~width:16 ~max:25.0 x64_dyn ]))
    (Common.suite ());
  Support.Table.print t;
  List.iter
    (fun arch ->
      let vals =
        List.filter_map
          (fun (b : Workloads.Suite.benchmark) ->
            Hashtbl.find_opt dyn_all (arch, b.Workloads.Suite.id))
          (Common.suite ())
        |> Array.of_list
      in
      if Array.length vals > 1 then
        Printf.printf "%s: mean %.1f checks/100 (sd %.1f)\n" (Arch.name arch)
          (Support.Stats.mean vals) (Support.Stats.stddev vals))
    archs;
  print_newline ()

let fig3 () =
  Support.Table.section
    "Fig 3: annotated JIT code with PC-sample counts (SPMV-CSR-SMI, ARM64)";
  match Workloads.Suite.by_id "SPMV-CSR-SMI" with
  | None -> print_endline "benchmark missing"
  | Some b ->
    Common.degraded "fig3" @@ fun () ->
    let config = Common.config_for ~arch:Arch.Arm64 ~seed:1 Common.V_normal in
    let eng = Engine.create config b.Workloads.Suite.source in
    Harness.drive eng ~calls:120;
    (match Engine.sampler eng with
    | None -> print_endline "sampler disabled"
    | Some s ->
      (* Pick the code object with the most samples. *)
      let best =
        List.fold_left
          (fun acc (code_id, total) ->
            match acc with
            | Some (_, best_total) when best_total >= total -> acc
            | _ -> if code_id >= 0 then Some (code_id, total) else acc)
          None (Perf.samples_by_code s)
      in
      match best with
      | None -> print_endline "no JIT samples collected"
      | Some (code_id, total) -> (
        match Engine.code_of_id eng code_id with
        | None -> print_endline "code object missing"
        | Some code ->
          let samples =
            Perf.samples_for s ~code_id ~size:(Array.length code.Code.insns)
          in
          Printf.printf "hottest code: %s (%d samples)\n\n" code.Code.name total;
          print_string (Code.listing ~samples code)))

let fig4 () =
  Plan.run (normal_cells ());
  Support.Table.section
    "Fig 4: check-type breakdown -- frequency (checks/100 instr) and sampled overhead share";
  List.iter
    (fun arch ->
      let t =
        Support.Table.create
          ~title:
            (Printf.sprintf
               "%s: per-group frequency (f, checks/100) and overhead (o, %% of JIT samples)"
               (Arch.name arch))
          ~columns:
            ([ "benchmark" ]
            @ List.concat_map
                (fun g ->
                  [ "f:" ^ Insn.group_name g; "o:" ^ Insn.group_name g ])
                Insn.all_groups
            @ [ "total ovh" ])
      in
      List.iter
        (fun (b : Workloads.Suite.benchmark) ->
          match Common.run_cached ~arch ~seed:1 Common.V_normal b with
          | exception Support.Fault.Fault err ->
            Support.Table.add_missing_row t ~label:b.Workloads.Suite.id
              ~reason:(Support.Fault.class_name err)
          | r ->
            let cells =
              List.concat_map
                (fun g ->
                  let freq = Harness.group_freq_per_100 r g in
                  let share =
                    Harness.group_window_share r g *. Harness.overhead_window r
                  in
                  [ Printf.sprintf "%.1f" freq;
                    Printf.sprintf "%.1f%%" (100.0 *. share) ])
                Insn.all_groups
            in
            Support.Table.add_row t
              ([ b.Workloads.Suite.id ] @ cells
              @ [ Printf.sprintf "%.1f%%" (100.0 *. Harness.overhead_window r) ]))
        (Common.suite ());
      Support.Table.print t)
    archs;
  (* Validation the paper could not do: window heuristic vs provenance
     ground truth. *)
  let t2 =
    Support.Table.create
      ~title:"window heuristic vs ground-truth provenance (total overhead)"
      ~columns:[ "arch"; "mean window"; "mean truth"; "correlation" ]
  in
  List.iter
    (fun arch ->
      let pairs =
        List.filter_map
          (fun b ->
            match Common.run_cached ~arch ~seed:1 Common.V_normal b with
            | r -> Some (Harness.overhead_window r, Harness.overhead_truth r)
            | exception Support.Fault.Fault _ -> None)
          (Common.suite ())
      in
      if pairs = [] then
        Support.Table.add_missing_row t2 ~label:(Arch.name arch)
          ~reason:"all cells failed"
      else begin
        let w = Array.of_list (List.map fst pairs) in
        let tr = Array.of_list (List.map snd pairs) in
        Support.Table.add_row t2
          [ Arch.name arch;
            Support.Table.fmt_pct (Support.Stats.mean w);
            Support.Table.fmt_pct (Support.Stats.mean tr);
            (if Array.length w < 2 then "n/a"
             else Printf.sprintf "%.2f" (Support.Stats.pearson w tr)) ]
      end)
    archs;
  Support.Table.print t2

let fig5 () =
  Support.Table.section
    "Fig 5: short-circuiting checks in the graph (dead ancestors removed)";
  match Workloads.Suite.by_id "SPMV-CSR-SMI" with
  | None -> print_endline "benchmark missing"
  | Some b ->
    Common.degraded "fig5" @@ fun () ->
    let config = Common.config_for ~arch:Arch.Arm64 ~seed:1 Common.V_normal in
    let eng = Engine.create config b.Workloads.Suite.source in
    Harness.drive eng ~calls:30;
    let rt = Engine.runtime eng in
    (* Rebuild the graph of the hottest compiled function for each
       removal scenario. *)
    let hot_fid =
      let best = ref None in
      Array.iter
        (fun (f : Runtime.func_rt) ->
          if f.Runtime.code_ref >= 0 || f.Runtime.invocations > 8 then begin
            match !best with
            | Some (g : Runtime.func_rt) when g.Runtime.invocations >= f.Runtime.invocations -> ()
            | _ -> best := Some f
          end)
        rt.Runtime.funcs;
      !best
    in
    (match hot_fid with
    | None -> print_endline "no hot function"
    | Some f ->
      let build () =
        Turbofan.Graph_builder.build
          (Turbofan.Graph_builder.default_config Arch.Arm64)
          rt f
      in
      let t =
        Support.Table.create
          ~title:
            (Printf.sprintf "node counts for %s after short-circuiting"
               f.Runtime.info.Bytecode.name)
          ~columns:[ "removed group"; "checks removed"; "dead nodes"; "nodes left" ]
      in
      let g0 = build () in
      ignore (Turbofan.Reducer.run_dce g0);
      Support.Table.add_row t
        [ "(none)"; "0"; "0"; string_of_int (Turbofan.Son.node_count g0) ];
      List.iter
        (fun grp ->
          let g = build () in
          ignore (Turbofan.Reducer.run_dce g);
          let stats = Turbofan.Reducer.short_circuit_checks g ~groups:[ grp ] in
          Support.Table.add_row t
            [ Insn.group_name grp;
              string_of_int stats.Turbofan.Reducer.checks_removed;
              string_of_int stats.Turbofan.Reducer.nodes_dce_removed;
              string_of_int (Turbofan.Son.node_count g) ])
        Insn.all_groups;
      let g_all = build () in
      ignore (Turbofan.Reducer.run_dce g_all);
      let stats =
        Turbofan.Reducer.short_circuit_checks g_all ~groups:Insn.all_groups
      in
      Support.Table.add_row t
        [ "(all)";
          string_of_int stats.Turbofan.Reducer.checks_removed;
          string_of_int stats.Turbofan.Reducer.nodes_dce_removed;
          string_of_int (Turbofan.Son.node_count g_all) ];
      Support.Table.print t)
