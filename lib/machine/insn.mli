(** Machine instructions emitted by the JIT backends.

    One macro-instruction set covers both architecture flavors; the code
    generator only emits forms that are legal for its target (memory
    operands in ALU/compare instructions exist only on X64, the
    [Js_ldr_smi] family only on [Arm64_smi_ext]).

    Every instruction carries {e provenance}: whether it belongs to a
    deoptimization check (and which one), to main-line code, or to both.
    V8 loses this information during lowering (paper Section III-B); we
    keep it as ground truth so the paper's PC-window attribution
    heuristic can be validated against an oracle. *)

(** {1 Deoptimization taxonomy (paper Section II-B)} *)

type deopt_reason =
  | Not_a_smi          (** value expected to be an SMI was a heap pointer *)
  | Smi                (** value expected to be a heap object was an SMI *)
  | Out_of_bounds      (** array index outside the backing store *)
  | Wrong_map          (** object's hidden class differs from speculation *)
  | Overflow           (** SMI arithmetic left the 31-bit range *)
  | Lost_precision     (** division result not representable as SMI *)
  | Division_by_zero
  | Minus_zero         (** SMI result would be -0 *)
  | Not_a_number       (** heap object expected to be a HeapNumber was not *)
  | Wrong_value        (** call target or constant differs from speculation *)
  | Hole               (** read of an array hole / uninitialized element *)
  | Insufficient_feedback  (** deopt-soft: compiled before feedback existed *)

type check_group =
  | G_type       (** map checks and other type-shape checks *)
  | G_smi        (** checks that a value is a heap object (reason [Smi]) *)
  | G_not_smi    (** checks that a value is an SMI (reason [Not_a_smi]) *)
  | G_boundary
  | G_arith      (** overflow, lost precision, division by zero, -0 *)
  | G_other

type deopt_category = Deopt_eager | Deopt_lazy | Deopt_soft

val group_of_reason : deopt_reason -> check_group
val category_of_reason : deopt_reason -> deopt_category
val reason_name : deopt_reason -> string
val group_name : check_group -> string
val all_groups : check_group list
val group_index : check_group -> int
(** Stable 0..5 index (for counter arrays). *)

type check_role =
  | Role_condition  (** computes the boolean the deopt branch tests *)
  | Role_branch     (** the conditional deopt branch itself *)

type provenance =
  | Main_line
  | Check of { group : check_group; role : check_role }
  | Shared  (** feeds both a check and main-line code; not pure overhead *)

(** {1 Instruction forms} *)

type reg = int
(** General-purpose register index, 0..{!num_gp_regs}-1. *)

type freg = int
(** Floating-point register index, 0..{!num_fp_regs}-1. *)

val num_gp_regs : int
val num_fp_regs : int
val num_arg_regs : int
(** Calling convention: r0 = callee closure, r1 = this, r2.. = arguments;
    result in r0.  All registers are caller-saved. *)

type operand = Reg of reg | Imm of int

type addr = {
  base : reg;
  index : reg option;
  scale : int;      (** words per index step: 1 for tagged arrays, 2 for doubles *)
  offset : int;     (** word offset *)
  unscaled : bool;  (** ARM64 [ldur] flavor (register-offset with no scaling) *)
}

val mk_addr : ?index:reg -> ?scale:int -> ?offset:int -> ?unscaled:bool -> reg -> addr

type alu_op =
  | Add | Sub | Mul | Sdiv | Smod
  | And | Orr | Eor
  | Lsl | Lsr | Asr

type cond = Eq | Ne | Lt | Le | Gt | Ge | Vs (** overflow set *) | Vc | Hs (** unsigned >= *) | Lo (** unsigned < *)

val negate_cond : cond -> cond

type falu_op = Fadd | Fsub | Fmul | Fdiv

type call_target =
  | Builtin of int      (** builtin id, dispatched by the host *)
  | Js_code of int      (** function id, dispatched by the host *)

type special_reg = Reg_ba | Reg_pc | Reg_re

type kind =
  | Mov of reg * operand
  | Ldr of reg * addr                       (** tagged/int 32-bit word load *)
  | Str of addr * reg
  | Ldr_f of freg * addr                    (** double load (two words) *)
  | Str_f of addr * freg
  | Alu of { op : alu_op; dst : reg; src : reg; rhs : operand; set_flags : bool }
  | Alu_mem of { op : alu_op; dst : reg; src : reg; mem : addr }  (** X64 only *)
  | Cmp of reg * operand
  | Cmp_mem of reg * addr                   (** X64 only *)
  | Tst of reg * operand
  | Fmov of freg * freg
  | Fmov_imm of freg * float
  | Falu of { op : falu_op; dst : freg; a : freg; b : freg }
  | Fcmp of freg * freg
  | Scvtf of freg * reg                     (** int -> double *)
  | Fcvtzs of reg * freg                    (** double -> int, truncating *)
  | B of int                                (** unconditional, label id *)
  | Bcond of cond * int
  | Deopt_if of cond * int                  (** deopt branch; operand is deopt-point id *)
  | Checkpoint of int                       (** zero-cost marker of a deopt point *)
  | Call of call_target * int  (** argument registers r0..r(argc-1) are live *)
  | Ret
  | Spill of int * reg                      (** frame slot <- reg *)
  | Reload of reg * int
  | Spill_f of int * freg
  | Reload_f of freg * int
  | Js_ldr_smi of { dst : reg; mem : addr; deopt : int }
      (** the paper's fused SMI load: load word, verify LSB=0, untag;
          on failure write [REG_PC]/[REG_RE] and take the bailout path *)
  | Js_chk_map of { mem : addr; expected : int; deopt : int }
      (** prototype of the paper's future work (Section VII): a fused
          map-check load — load the map word and compare against the
          expected map, bailing out branch-free through [REG_BA] on
          mismatch *)
  | Msr of special_reg * reg
  | Mrs of reg * special_reg
  | Label of int                            (** pseudo; removed at assembly *)
  | Nop

type t = {
  kind : kind;
  prov : provenance;
  comment : string;
}

val make : ?prov:provenance -> ?comment:string -> kind -> t

val is_pseudo : kind -> bool
(** Labels and checkpoints occupy no code space and retire no uop. *)

val reads : kind -> reg list
val writes : kind -> reg list

val to_string : Arch.t -> t -> string
(** Arch-flavored assembly syntax, e.g. [tst w3, #0x1] on ARM64 vs
    [test r3, 1] on X64. *)
