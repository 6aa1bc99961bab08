(** Target architecture flavors.

    The paper compares V8 output on a CISC ISA (X64) and a RISC ISA
    (ARM64).  The relevant difference for deoptimization checks is how
    many instructions a check needs: X64 folds memory operands into
    [cmp]/ALU instructions while ARM64 needs a separate load, and X64
    fuses test+branch patterns more tightly (paper Section III-A uses a
    1-instruction check window on X64 and 2 on ARM64). *)

type t =
  | X64
  | Arm64
  | Arm64_smi_ext
      (** ARM64 with the paper's six [jsldrsmi]/[jsldursmi] load
          instructions and the [REG_BA]/[REG_PC]/[REG_RE] special
          registers (Section V). *)

val all : t list
val name : t -> string
val of_name : string -> t option

val can_fold_memory_operand : t -> bool
(** True on X64: ALU and compare instructions may take a memory
    operand, so e.g. a boundary check is [cmp reg, \[mem\]; jae] instead
    of [ldr; cmp; b.hs]. *)

val has_smi_load : t -> bool
(** True when the [jsldrsmi] extension is available. *)

val check_window : t -> int
(** The PC-sampling attribution window the paper uses: the number of
    instructions before a deopt branch considered part of the check
    (1 on X64, 2 on ARM64). *)

