(** Pre-decoded threaded-code execution engine.

    [compile] lowers a {!Code.t} once into a flat array of micro-op
    closures with every operand pre-resolved at decode time: register
    indexes, effective-address components, immediate values, latency
    class, fetch address and instruction-cache line, check provenance
    (group index and deopt-branch flag), deopt-point metadata, and
    branch targets remapped onto the pseudo-free micro-op array, one
    dispatch slot per instruction.  The dispatch loop in {!run} then
    retires one instruction per indirect call — an accumulator-threaded
    loop in which each micro-op returns the index of its successor —
    instead of re-matching on [Insn.kind] every iteration as
    [Exec.run_direct] does.

    {b Bit-identity contract.}  For any code object, CPU model and
    host, [run] produces exactly the same {!outcome}, memory contents,
    timing state and {!Perf.counters} as the direct interpreter: both
    engines run [Cpu]'s one timing model (the [Cpu.time_*] paths, which
    the direct engine reaches through the [Cpu.issue] wrappers) in the
    same order with the same arguments, so cycle counts, sampler attributions, cache
    and predictor state are reproduced bit for bit.  Only the static
    retirement counters are charged per basic block instead of per
    instruction.  The determinism test suite asserts digest equality of
    whole experiment results between the two engines.

    Compiled programs are cached on the code object itself
    ({!Code.decode_cache}).  Recompilation builds a fresh [Code.t], so
    stale programs are unreachable by construction; a code object is
    owned by one engine (hence one domain), so the cache needs no
    locking. *)

(** {1 Execution-model types}

    These are the canonical definitions; {!Exec} re-exports them under
    the historical names so existing call sites compile unchanged. *)

type host = {
  memory : int array;
  call_builtin : int -> int array -> int;
      (** [call_builtin id args] with [args] = r0..r(argc-1); must
          charge its own cost on the shared CPU; returns the tagged
          result.  The [args] array is only valid for the duration of
          the call — the executor reuses the buffer. *)
  call_js : int -> int array -> int;  (** [call_js function_id args];
          same contract. *)
}

type snapshot = {
  s_regs : int array;
  s_fregs : float array;
  s_slots : int array;
  s_fslots : float array;
}

type outcome =
  | Done of int  (** tagged return value (r0) *)
  | Deopt of {
      deopt_id : int;
      reason : Insn.deopt_reason;
      snapshot : snapshot;
      via_smi_ext : bool;  (** bailout through REG_BA/REG_RE *)
    }

exception Machine_fault of string
(** Unaligned access, out-of-range address, or executing past the end
    of the code object — always a JIT bug, never a user-program
    error. *)

val fault : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Machine_fault} with a formatted message. *)

(** {1 Shared helpers} *)

val reg_ba : int
val reg_pc : int
val reg_re : int
(** Special register indexes inside the GP register file. *)

val sext32 : int -> int
val reason_code : Insn.deopt_reason -> int

(** {1 Decoding} *)

type program
(** A compiled code object: the flat micro-op array plus per-block
    batched counter deltas. *)

type Code.cache += Decoded of program

val compile : Code.t -> program
(** Decode unconditionally (does not consult or fill the cache). *)

val get : Code.t -> program
(** Cached decode: compile on first use, then reuse via
    [Code.decode_cache]. *)

val warm : Code.t -> unit
(** Populate the decode cache eagerly (used at JIT-compile time so the
    first execution does not pay the decode). *)

(** {1 Block batching}

    The batching pass charges each straight-line block's static integer
    counters once at block entry, with exact decode-time refunds on
    cold early exits (deopt bailouts, machine faults) so counters stay
    bit-identical to the direct interpreter on every path.  It always
    runs; [VSPEC_EXEC=direct] selects the per-instruction interpreter. *)

val fuse_enabled : unit -> bool
(** Always [false]: every micro-op has its own dispatch slot.  Exists
    only until the benchmark's next change stops calling it. *)

val batch_enabled : unit -> bool
(** Always [true].  Exists only until the benchmark's next change stops
    calling it. *)

(** Decode-time static coverage of one compiled program. *)
type stats = {
  st_uops : int;
      (** micro-ops (non-pseudo instructions), one dispatch slot each *)
  st_blocks : int;  (** accounting (control-flow) blocks *)
}

val stats : program -> stats

(** {1 Execution} *)

val run : Cpu.t -> host:host -> code:Code.t -> args:int array -> outcome
(** Execute through the pre-decoded program; observationally identical
    to [Exec.run_direct]. *)
