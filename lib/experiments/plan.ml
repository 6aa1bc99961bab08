type spec =
  | S_variant of Common.variant
  | S_removal  (** V_no_checks of the calibrated removable set *)
  | S_calibration_only

type cell = {
  c_bench : Workloads.Suite.benchmark;
  c_arch : Arch.t;
  c_spec : spec;
  c_seed : int;
  c_iters : int option;
  c_cpu : Cpu.config option;
}

let cell ?cpu ?iters ~arch ~seed variant bench =
  { c_bench = bench; c_arch = arch; c_spec = S_variant variant; c_seed = seed;
    c_iters = iters; c_cpu = cpu }

let removal_cell ?cpu ?iters ~arch ~seed bench =
  { c_bench = bench; c_arch = arch; c_spec = S_removal; c_seed = seed;
    c_iters = iters; c_cpu = cpu }

let calibration_cell ~arch bench =
  { c_bench = bench; c_arch = arch; c_spec = S_calibration_only; c_seed = 1;
    c_iters = None; c_cpu = None }

let needs_calibration c =
  match c.c_spec with
  | S_removal | S_calibration_only -> true
  | S_variant _ -> false

let run_spec c variant =
  match
    Common.run_result ?cpu:c.c_cpu ?iterations:c.c_iters ~arch:c.c_arch
      ~seed:c.c_seed variant c.c_bench
  with
  | Ok _ -> Ok ()
  | Error e -> Error e

let execute c =
  match c.c_spec with
  | S_calibration_only -> Ok ()
  | S_variant v -> run_spec c v
  | S_removal -> (
    (* A failed calibration short-circuits the removal run: its variant
       cannot even be named. *)
    match Common.removable_groups_result ~arch:c.c_arch c.c_bench with
    | Error e -> Error e
    | Ok (removable, _) -> run_spec c (Common.V_no_checks removable))

let run ?jobs cells =
  (* Stage 1: calibrations — removal cells cannot know their variant
     until the (bench, arch) calibration exists, and running it inside
     the fan-out would serialize every removal cell of one benchmark
     behind a single-flight entry. *)
  let calib =
    List.sort_uniq compare
      (List.filter_map
         (fun c ->
           if needs_calibration c then
             Some (c.c_bench.Workloads.Suite.id, c.c_arch)
           else None)
         cells)
  in
  let by_id id = List.find (fun c -> c.c_bench.Workloads.Suite.id = id) cells in
  (* Failed cells are already ledgered and negative-cached by Common;
     the plan's job is only to keep every *other* cell running, so the
     per-job results are dropped here and surface when the driver body
     re-reads the caches. *)
  Trace.span_wall ~cat:"experiments"
    ~arg:(Printf.sprintf "%d cells" (List.length calib))
    "plan:calibrate" (fun () ->
      ignore
        (Support.Pool.map_result ?jobs
           (fun (id, arch) ->
             Trace.span_wall ~cat:"support"
               ~arg:(id ^ "@" ^ Arch.name arch)
               "pool:job" (fun () ->
                 match
                   Common.removable_groups_result ~arch (by_id id).c_bench
                 with
                 | Ok _ | Error _ -> ()))
           calib));
  (* Stage 2: everything else. *)
  let rest = List.filter (fun c -> c.c_spec <> S_calibration_only) cells in
  Trace.span_wall ~cat:"experiments"
    ~arg:(Printf.sprintf "%d cells" (List.length rest))
    "plan:cells" (fun () ->
      ignore
        (Support.Pool.map_result ?jobs
           (fun c ->
             Trace.span_wall ~cat:"support"
               ~arg:
                 (c.c_bench.Workloads.Suite.id ^ "@" ^ Arch.name c.c_arch)
               "pool:job" (fun () -> ignore (execute c)))
           rest))
