(** Hardware event counters and the PC sampler.

    The counters mirror what the paper collects with [perf]: retired
    instructions, branches, mispredictions, cycles, frontend/backend
    stall cycles (Fig 10), plus ground-truth check-instruction counts the
    real hardware could not report.  The sampler implements the paper's
    first estimation method (Section III-A): sample the committed PC at a
    fixed cycle period and attribute samples to instructions. *)

type counters = {
  mutable instructions : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable mispredicts : int;
  mutable loads : int;
  mutable stores : int;
  mutable frontend_stall : float;
  mutable backend_stall : float;
  mutable check_instructions : int;  (** ground truth, committed *)
  mutable check_branches : int;      (** committed deopt branches *)
  check_per_group : int array;       (** committed check instructions,
                                         indexed by {!Insn.group_index} *)
  mutable deopt_events : int;
  mutable jit_instructions : int;    (** retired inside JIT code *)
  mutable runtime_instructions : int;  (** interpreter/builtin/GC estimate *)
}

val create_counters : unit -> counters
val reset_counters : counters -> unit
val add_counters : counters -> counters -> unit
(** [add_counters acc c] accumulates [c] into [acc]. *)

val note_check : counters -> group_index:int -> branch:bool -> unit
(** Account one committed check instruction to its group; [branch]
    marks it as a deopt branch.  Shared by both executors so their
    counter streams stay bit-identical. *)

(** {1 Special code ids for non-JIT execution} *)

val runtime_code_id : int
val builtin_code_id : int
val gc_code_id : int

(** {1 Block-batching observability}

    Coverage counter for the pre-decoded engine's block-batched
    accounting.  Kept outside {!counters} on purpose: harness results
    marshal the whole [counters] record and the determinism suite
    digests them, so engine-specific statistics there would break the
    direct-vs-decoded bit-identity contract. *)

type batching = {
  mutable fused_retired : int;
      (** always 0: the decoded engine gives every micro-op its own
          dispatch slot.  Exists only until the benchmark's next change
          stops reading it. *)
  mutable batched_blocks : int;
      (** block-granular accounting charges taken (0 under the direct
          interpreter) *)
}

val create_batching : unit -> batching
val reset_batching : batching -> unit

type sampler

val create_sampler : period:float -> seed:int -> sampler

val sampler_tick : sampler -> now:float -> code_id:int -> pc:int -> unit
(** Record a sample for every sampling point passed since the previous
    tick, attributing them to [(code_id, pc)]. *)

val sampler_bulk : sampler -> from:float -> until:float -> code_id:int -> unit
(** Attribute all sampling points in [\[from, until)] to [(code_id, 0)]
    — used for interpreter/builtin/GC regions that are not simulated
    instruction by instruction. *)

val samples_for : sampler -> code_id:int -> size:int -> int array
(** Per-instruction sample counts for a code object (zeros if never
    sampled). *)

val total_samples : sampler -> int
val samples_by_code : sampler -> (int * int) list
(** [(code_id, samples)] pairs, all code ids seen. *)
