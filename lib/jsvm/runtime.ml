let builtin_base = 0x100000

type func_rt = {
  info : Bytecode.func_info;
  mutable feedback : Feedback.vector;
  mutable const_values : int array;
  mutable invocations : int;
  mutable code_ref : int;
  mutable deopt_count : int;
  mutable forbid_opt : bool;
  mutable initial_map : int option;
}

type t = {
  heap : Heap.t;
  funcs : func_rt array;
  main : int;
  mutable charge_interp : cycles:int -> instructions:int -> unit;
  mutable charge_builtin : cycles:int -> unit;
  mutable call_optimized : (int -> int array -> int) option;
  mutable on_invoke : (t -> func_rt -> unit) option;
  mutable reenter_js : int -> int -> int array -> int;
  mutable construct_hook : int -> int array -> int;
  mutable active_frames : frame list;
  mutable regexes : Regex.compiled array;
  mutable n_regexes : int;
  mutable output : Buffer.t;
  rng : Support.Rng.t;
}

and frame = { f_regs : int array; mutable f_acc : int }

let func t fid = t.funcs.(fid)

let materialize_consts t (f : func_rt) =
  if Array.length f.const_values = Array.length f.info.Bytecode.consts then
    f.const_values
  else begin
    let vals =
      Array.map
        (function
          | Bytecode.C_num v -> Heap.number t.heap v
          | Bytecode.C_str s -> Heap.intern t.heap s)
        f.info.Bytecode.consts
    in
    f.const_values <- vals;
    vals
  end

let create ?(heap_size = 8 * 1024 * 1024) ?(seed = 42) (u : Bcompiler.unit_) =
  let heap = Heap.create ~size_words:heap_size () in
  let funcs =
    Array.map
      (fun info ->
        {
          info;
          feedback = Feedback.create info;
          const_values = [||];
          invocations = 0;
          code_ref = -1;
          deopt_count = 0;
          forbid_opt = false;
          initial_map = None;
        })
      u.Bcompiler.functions
  in
  let t =
    {
      heap;
      funcs;
      main = u.Bcompiler.main;
      charge_interp = (fun ~cycles:_ ~instructions:_ -> ());
      charge_builtin = (fun ~cycles:_ -> ());
      call_optimized = None;
      on_invoke = None;
      reenter_js =
        (fun _ _ _ -> invalid_arg "Runtime.reenter_js: interpreter not attached");
      construct_hook =
        (fun _ _ -> invalid_arg "Runtime.construct_hook: interpreter not attached");
      active_frames = [];
      regexes = [||];
      n_regexes = 0;
      output = Buffer.create 256;
      rng = Support.Rng.create seed;
    }
  in
  Heap.add_root_provider heap (fun () ->
      let roots = ref [] in
      List.iter
        (fun fr ->
          roots := fr.f_acc :: !roots;
          Array.iter (fun v -> roots := v :: !roots) fr.f_regs)
        t.active_frames;
      Array.iter
        (fun f ->
          Array.iter (fun v -> roots := v :: !roots) f.const_values;
          (* Feedback vectors hold prototype holders and call targets. *)
          Array.iter
            (fun slot ->
              match slot with
              | Feedback.Sl_prop { entries; _ } ->
                List.iter
                  (fun (_, site) ->
                    match site with
                    | Feedback.Proto { holder; _ } -> roots := holder :: !roots
                    | Feedback.Own _ | Feedback.Transition _ | Feedback.Length ->
                      ())
                  entries
              | Feedback.Sl_call { targets; _ } ->
                List.iter (fun (_, obj) -> roots := obj :: !roots) targets
              | Feedback.Sl_binop _ | Feedback.Sl_compare _ | Feedback.Sl_elem _
                ->
                ())
            f.feedback)
        t.funcs;
      !roots);
  t

let add_regex t rx =
  if t.n_regexes >= Array.length t.regexes then begin
    let bigger = Array.make (max 8 (2 * Array.length t.regexes)) rx in
    Array.blit t.regexes 0 bigger 0 t.n_regexes;
    t.regexes <- bigger
  end;
  t.regexes.(t.n_regexes) <- rx;
  t.n_regexes <- t.n_regexes + 1;
  t.n_regexes - 1

let get_regex t i = t.regexes.(i)

let push_frame t fr = t.active_frames <- fr :: t.active_frames

let pop_frame t =
  match t.active_frames with
  | _ :: rest -> t.active_frames <- rest
  | [] -> invalid_arg "Runtime.pop_frame: empty frame stack"

