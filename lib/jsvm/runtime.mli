(** Shared VM runtime state: heap, function table, tiering hooks.

    The runtime deliberately knows nothing about the JIT or the CPU
    simulator; the embedding engine installs hooks for cost accounting,
    optimized-code dispatch, and tier-up decisions. *)

val builtin_base : int
(** Function ids at or above this value denote builtins. *)

type func_rt = {
  info : Bytecode.func_info;
  mutable feedback : Feedback.vector;
  mutable const_values : int array;   (** materialized tagged constants *)
  mutable invocations : int;
  mutable code_ref : int;             (** engine code id; -1 = not compiled *)
  mutable deopt_count : int;
  mutable forbid_opt : bool;          (** too many deopts: stay in interpreter *)
  mutable initial_map : int option;   (** map for [new F()] instances *)
}

type t = {
  heap : Heap.t;
  funcs : func_rt array;
  main : int;
  (* Engine hooks. *)
  mutable charge_interp : cycles:int -> instructions:int -> unit;
  mutable charge_builtin : cycles:int -> unit;
  mutable call_optimized : (int -> int array -> int) option;
      (** [f fid args] with machine convention args = closure :: this ::
          user args; returns the tagged result. *)
  mutable on_invoke : (t -> func_rt -> unit) option;
  mutable reenter_js : int -> int -> int array -> int;
      (** [reenter_js closure this args] lets builtins call back into JS
          (installed by the interpreter). *)
  mutable construct_hook : int -> int array -> int;
      (** [construct_hook callee args]: [new callee(...args)] without
          feedback recording (installed by the interpreter; used by the
          JIT's generic construct path). *)
  (* GC rooting. *)
  mutable active_frames : frame list;
  (* Side tables. *)
  mutable regexes : Regex.compiled array;
  mutable n_regexes : int;
  mutable output : Buffer.t;  (** print() target *)
  rng : Support.Rng.t;        (** Math.random *)
}

and frame = { f_regs : int array; mutable f_acc : int }

val create : ?heap_size:int -> ?seed:int -> Bcompiler.unit_ -> t
(** Builds the runtime, materializes constants lazily, installs default
    (no-op) hooks, and registers GC root providers for frames, constant
    pools and builtin globals. *)

val func : t -> int -> func_rt
val materialize_consts : t -> func_rt -> int array

val add_regex : t -> Regex.compiled -> int
val get_regex : t -> int -> Regex.compiled

val push_frame : t -> frame -> unit
val pop_frame : t -> unit

