type deopt_reason =
  | Not_a_smi
  | Smi
  | Out_of_bounds
  | Wrong_map
  | Overflow
  | Lost_precision
  | Division_by_zero
  | Minus_zero
  | Not_a_number
  | Wrong_value
  | Hole
  | Insufficient_feedback

type check_group = G_type | G_smi | G_not_smi | G_boundary | G_arith | G_other

type deopt_category = Deopt_eager | Deopt_lazy | Deopt_soft

let group_of_reason = function
  | Not_a_smi -> G_not_smi
  | Smi -> G_smi
  | Out_of_bounds -> G_boundary
  | Wrong_map | Not_a_number -> G_type
  | Overflow | Lost_precision | Division_by_zero | Minus_zero -> G_arith
  | Wrong_value | Hole | Insufficient_feedback -> G_other

let category_of_reason = function
  | Insufficient_feedback -> Deopt_soft
  | Not_a_smi | Smi | Out_of_bounds | Wrong_map | Overflow | Lost_precision
  | Division_by_zero | Minus_zero | Not_a_number | Wrong_value | Hole ->
    Deopt_eager

let reason_name = function
  | Not_a_smi -> "not-a-smi"
  | Smi -> "smi"
  | Out_of_bounds -> "out-of-bounds"
  | Wrong_map -> "wrong-map"
  | Overflow -> "overflow"
  | Lost_precision -> "lost-precision"
  | Division_by_zero -> "division-by-zero"
  | Minus_zero -> "minus-zero"
  | Not_a_number -> "not-a-number"
  | Wrong_value -> "wrong-value"
  | Hole -> "hole"
  | Insufficient_feedback -> "insufficient-feedback"

let group_name = function
  | G_type -> "Type"
  | G_smi -> "SMI"
  | G_not_smi -> "Not-a-SMI"
  | G_boundary -> "Boundary"
  | G_arith -> "Arithmetic"
  | G_other -> "Other"

let all_groups = [ G_type; G_smi; G_not_smi; G_boundary; G_arith; G_other ]

let group_index = function
  | G_type -> 0
  | G_smi -> 1
  | G_not_smi -> 2
  | G_boundary -> 3
  | G_arith -> 4
  | G_other -> 5

type check_role = Role_condition | Role_branch

type provenance =
  | Main_line
  | Check of { group : check_group; role : check_role }
  | Shared

type reg = int
type freg = int

let num_gp_regs = 18
let num_fp_regs = 12
let num_arg_regs = 8

type operand = Reg of reg | Imm of int

type addr = {
  base : reg;
  index : reg option;
  scale : int;
  offset : int;
  unscaled : bool;
}

let mk_addr ?index ?(scale = 1) ?(offset = 0) ?(unscaled = false) base =
  { base; index; scale; offset; unscaled }

type alu_op = Add | Sub | Mul | Sdiv | Smod | And | Orr | Eor | Lsl | Lsr | Asr

type cond = Eq | Ne | Lt | Le | Gt | Ge | Vs | Vc | Hs | Lo

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt
  | Vs -> Vc
  | Vc -> Vs
  | Hs -> Lo
  | Lo -> Hs

type falu_op = Fadd | Fsub | Fmul | Fdiv

type call_target = Builtin of int | Js_code of int

type special_reg = Reg_ba | Reg_pc | Reg_re

type kind =
  | Mov of reg * operand
  | Ldr of reg * addr
  | Str of addr * reg
  | Ldr_f of freg * addr
  | Str_f of addr * freg
  | Alu of { op : alu_op; dst : reg; src : reg; rhs : operand; set_flags : bool }
  | Alu_mem of { op : alu_op; dst : reg; src : reg; mem : addr }
  | Cmp of reg * operand
  | Cmp_mem of reg * addr
  | Tst of reg * operand
  | Fmov of freg * freg
  | Fmov_imm of freg * float
  | Falu of { op : falu_op; dst : freg; a : freg; b : freg }
  | Fcmp of freg * freg
  | Scvtf of freg * reg
  | Fcvtzs of reg * freg
  | B of int
  | Bcond of cond * int
  | Deopt_if of cond * int
  | Checkpoint of int
  | Call of call_target * int
  | Ret
  | Spill of int * reg
  | Reload of reg * int
  | Spill_f of int * freg
  | Reload_f of freg * int
  | Js_ldr_smi of { dst : reg; mem : addr; deopt : int }
  | Js_chk_map of { mem : addr; expected : int; deopt : int }
  | Msr of special_reg * reg
  | Mrs of reg * special_reg
  | Label of int
  | Nop

type t = { kind : kind; prov : provenance; comment : string }

let make ?(prov = Main_line) ?(comment = "") kind = { kind; prov; comment }

let is_pseudo = function
  | Label _ | Checkpoint _ -> true
  | _ -> false

let addr_reads a =
  match a.index with None -> [ a.base ] | Some i -> [ a.base; i ]

let operand_reads = function Reg r -> [ r ] | Imm _ -> []

let reads = function
  | Mov (_, rhs) -> operand_reads rhs
  | Ldr (_, a) | Ldr_f (_, a) -> addr_reads a
  | Str (a, r) -> r :: addr_reads a
  | Str_f (a, _) -> addr_reads a
  | Alu { src; rhs; _ } -> src :: operand_reads rhs
  | Alu_mem { src; mem; _ } -> src :: addr_reads mem
  | Cmp (r, rhs) -> r :: operand_reads rhs
  | Cmp_mem (r, a) -> r :: addr_reads a
  | Tst (r, rhs) -> r :: operand_reads rhs
  | Scvtf (_, r) -> [ r ]
  | Spill (_, r) -> [ r ]
  | Msr (_, r) -> [ r ]
  | Js_ldr_smi { mem; _ } -> addr_reads mem
  | Js_chk_map { mem; _ } -> addr_reads mem
  | Fmov _ | Fmov_imm _ | Falu _ | Fcmp _ | Fcvtzs _ | B _ | Bcond _
  | Deopt_if _ | Checkpoint _ | Call _ | Ret | Reload _ | Spill_f _
  | Reload_f _ | Mrs _ | Label _ | Nop ->
    []

let writes = function
  | Mov (d, _) | Ldr (d, _) | Reload (d, _) | Fcvtzs (d, _) | Mrs (d, _) -> [ d ]
  | Alu { dst; _ } | Alu_mem { dst; _ } -> [ dst ]
  | Js_ldr_smi { dst; _ } -> [ dst ]
  | Call _ -> [ 0 ] (* result in r0 *)
  | Str _ | Str_f _ | Ldr_f _ | Cmp _ | Cmp_mem _ | Tst _ | Fmov _ | Fmov_imm _
  | Falu _ | Fcmp _ | Scvtf _ | B _ | Bcond _ | Deopt_if _ | Checkpoint _
  | Ret | Spill _ | Spill_f _ | Reload_f _ | Msr _ | Label _ | Nop
  | Js_chk_map _ ->
    []

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let reg_str arch r =
  match arch with
  | Arch.X64 -> Printf.sprintf "r%d" r
  | Arch.Arm64 | Arch.Arm64_smi_ext -> Printf.sprintf "w%d" r

let freg_str arch f =
  match arch with
  | Arch.X64 -> Printf.sprintf "xmm%d" f
  | Arch.Arm64 | Arch.Arm64_smi_ext -> Printf.sprintf "d%d" f

let operand_str arch = function
  | Reg r -> reg_str arch r
  | Imm i -> Printf.sprintf "#%d" i

let addr_str arch a =
  let base = reg_str arch a.base in
  let idx =
    match a.index with
    | None -> ""
    | Some i ->
      if a.scale = 1 then Printf.sprintf ", %s" (reg_str arch i)
      else Printf.sprintf ", %s lsl #%d" (reg_str arch i) (a.scale / 2)
  in
  let off = if a.offset = 0 then "" else Printf.sprintf ", #%d" a.offset in
  Printf.sprintf "[%s%s%s]" base idx off

let cond_str = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | Vs -> "vs"
  | Vc -> "vc"
  | Hs -> "hs"
  | Lo -> "lo"

let alu_str = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Sdiv -> "sdiv"
  | Smod -> "smod"
  | And -> "and"
  | Orr -> "orr"
  | Eor -> "eor"
  | Lsl -> "lsl"
  | Lsr -> "lsr"
  | Asr -> "asr"

let falu_str = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let special_str = function
  | Reg_ba -> "REG_BA"
  | Reg_pc -> "REG_PC"
  | Reg_re -> "REG_RE"

let kind_to_string arch k =
  let r = reg_str arch and f = freg_str arch in
  let op = operand_str arch and mem = addr_str arch in
  match k with
  | Mov (d, rhs) -> Printf.sprintf "mov %s, %s" (r d) (op rhs)
  | Ldr (d, a) -> Printf.sprintf "ldr %s, %s" (r d) (mem a)
  | Str (a, s) -> Printf.sprintf "str %s, %s" (r s) (mem a)
  | Ldr_f (d, a) -> Printf.sprintf "ldr %s, %s" (f d) (mem a)
  | Str_f (a, s) -> Printf.sprintf "str %s, %s" (f s) (mem a)
  | Alu { op = o; dst; src; rhs; set_flags } ->
    Printf.sprintf "%s%s %s, %s, %s" (alu_str o)
      (if set_flags then "s" else "")
      (r dst) (r src) (op rhs)
  | Alu_mem { op = o; dst; src; mem = m } ->
    Printf.sprintf "%s %s, %s, %s" (alu_str o) (r dst) (r src) (mem m)
  | Cmp (a, rhs) -> Printf.sprintf "cmp %s, %s" (r a) (op rhs)
  | Cmp_mem (a, m) -> Printf.sprintf "cmp %s, %s" (r a) (mem m)
  | Tst (a, rhs) -> Printf.sprintf "tst %s, %s" (r a) (op rhs)
  | Fmov (d, s) -> Printf.sprintf "fmov %s, %s" (f d) (f s)
  | Fmov_imm (d, v) -> Printf.sprintf "fmov %s, #%g" (f d) v
  | Falu { op = o; dst; a; b } ->
    Printf.sprintf "%s %s, %s, %s" (falu_str o) (f dst) (f a) (f b)
  | Fcmp (a, b) -> Printf.sprintf "fcmp %s, %s" (f a) (f b)
  | Scvtf (d, s) -> Printf.sprintf "scvtf %s, %s" (f d) (r s)
  | Fcvtzs (d, s) -> Printf.sprintf "fcvtzs %s, %s" (r d) (f s)
  | B l -> Printf.sprintf "b L%d" l
  | Bcond (c, l) -> Printf.sprintf "b.%s L%d" (cond_str c) l
  | Deopt_if (c, d) -> Printf.sprintf "b.%s deopt_%d" (cond_str c) d
  | Checkpoint d -> Printf.sprintf ";; checkpoint %d" d
  | Call (Builtin b, argc) -> Printf.sprintf "bl builtin_%d (argc=%d)" b argc
  | Call (Js_code fid, argc) -> Printf.sprintf "bl js_fn_%d (argc=%d)" fid argc
  | Ret -> "ret"
  | Spill (slot, s) -> Printf.sprintf "str %s, [sp, #%d]" (r s) slot
  | Reload (d, slot) -> Printf.sprintf "ldr %s, [sp, #%d]" (r d) slot
  | Spill_f (slot, s) -> Printf.sprintf "str %s, [sp, #%d]" (f s) slot
  | Reload_f (d, slot) -> Printf.sprintf "ldr %s, [sp, #%d]" (f d) slot
  | Js_ldr_smi { dst; mem = m; deopt } ->
    Printf.sprintf "%s %s, %s       ; deopt_%d"
      (if m.unscaled then "jsldursmi" else "jsldrsmi")
      (r dst) (mem m) deopt
  | Js_chk_map { mem = m; expected; deopt } ->
    Printf.sprintf "jschkmap %s, #%d   ; deopt_%d" (mem m) expected deopt
  | Msr (s, src) -> Printf.sprintf "msr %s, %s" (special_str s) (r src)
  | Mrs (d, s) -> Printf.sprintf "mrs %s, %s" (r d) (special_str s)
  | Label l -> Printf.sprintf "L%d:" l
  | Nop -> "nop"

let to_string arch t =
  let body = kind_to_string arch t.kind in
  let prov =
    match t.prov with
    | Main_line -> ""
    | Shared -> "  ; <shared>"
    | Check { group; role } ->
      Printf.sprintf "  ; <check:%s:%s>" (group_name group)
        (match role with Role_condition -> "cond" | Role_branch -> "branch")
  in
  let comment = if t.comment = "" then "" else "  ; " ^ t.comment in
  body ^ prov ^ comment
