type t = X64 | Arm64 | Arm64_smi_ext

let all = [ X64; Arm64; Arm64_smi_ext ]

let name = function
  | X64 -> "x64"
  | Arm64 -> "arm64"
  | Arm64_smi_ext -> "arm64+smi"

let of_name = function
  | "x64" -> Some X64
  | "arm64" -> Some Arm64
  | "arm64+smi" | "arm64-smi-ext" -> Some Arm64_smi_ext
  | _ -> None

let can_fold_memory_operand = function
  | X64 -> true
  | Arm64 | Arm64_smi_ext -> false

let has_smi_load = function
  | Arm64_smi_ext -> true
  | X64 | Arm64 -> false

let check_window = function
  | X64 -> 1
  | Arm64 | Arm64_smi_ext -> 2
