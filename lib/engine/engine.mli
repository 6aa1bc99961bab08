(** The engine: tiered execution of JavaScript on the simulated CPU.

    Mirrors the V8 pipeline the paper describes (Fig 2): bytecode starts
    in the interpreter (Ignition), hot functions are optimized by the
    TurboFan-style compiler and run as machine code on the CPU model;
    failed speculation deoptimizes back into the interpreter, discards
    the code and recompiles with fresher feedback.  GC runs at
    safepoints and its cost is charged to the shared CPU, providing the
    compilation/GC timing noise the paper's statistical analysis
    contends with. *)

type check_config = {
  disabled_groups : Insn.check_group list;
      (** short-circuited in the graph (paper Fig 5 removal) *)
  remove_branches : bool;
      (** emit conditions but not deopt branches (paper Fig 10) *)
}

val checks_on : check_config

type config = {
  arch : Arch.t;
  cpu : Cpu.config;
  enable_baseline : bool;
      (** enable the SparkPlug-style baseline tier (paper Fig 2) *)
  tier_up_threshold : int;
  max_deopts_before_forbid : int;
  checks : check_config;
  trust_elements_kind : bool;
  turboprop : bool;
  fuse_map_checks : bool;
      (** future-work prototype (paper Section VII): fused [jschkmap]
          map checks; requires the extended ISA *)
  enable_optimizer : bool;
  sampling_period : float option;  (** cycles between PC samples *)
  seed : int;
  gc_threshold_words : int;
  heap_size : int;
}

val default_config : ?arch:Arch.t -> unit -> config

type t

val create : config -> string -> t
(** Compile source text and build a fresh VM + CPU. *)

val runtime : t -> Runtime.t
val cpu : t -> Cpu.t
val sampler : t -> Perf.sampler option
val config : t -> config

val run_main : t -> int
(** Execute the top-level script (defines globals/functions). *)

val call_global : t -> string -> int array -> int
(** Call a global function by name (the per-iteration entry point). *)

val output : t -> string
(** Accumulated [print] output. *)

val cycles : t -> float
val maybe_gc : t -> unit
(** Safepoint: collect when past the watermark (jittered). *)

val iteration_safepoint : t -> unit
(** Watermark GC plus seeded ambient system noise — the measurement
    noise the paper's statistical analysis contends with. *)

val force_gc : t -> unit

(** {1 Introspection for the experiment drivers} *)

val code_of_fid : t -> int -> Code.t option
val code_of_id : t -> int -> Code.t option

val all_codes : t -> Code.t list
(** Every code object ever produced (deopt-discarded included), for
    PC-sample attribution. *)

val graph_of_fid : t -> int -> Son.t option
(** The optimized graph as of the latest compilation. *)

val compile_now : t -> string -> (Code.t, string) result
(** Force-compile a global function by name with current feedback. *)

val tier_of_fid : t -> int -> [ `Baseline | `Optimized ] option
val deopt_counts : t -> (Insn.deopt_reason * int) list
val compile_count : t -> int
