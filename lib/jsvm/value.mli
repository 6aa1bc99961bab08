(** Tagged 32-bit word values (V8 compressed-pointer scheme).

    The least-significant bit is the tag: cleared means the upper 31
    bits are a signed Small Integer (SMI), set means the word is a
    pointer (2 * heap-word-index + 1).  SMI range is [-2^30, 2^30) by
    default; the engine can also be configured for 32-bit SMIs
    (paper Section II-B3) in which case the payload uses the full word
    and overflow checks move accordingly. *)

type t = int
(** A tagged word, stored sign-extended in an OCaml int. *)

val smi_min : int
val smi_max : int
(** Inclusive bounds of the 31-bit SMI payload. *)

val is_smi : t -> bool
val is_pointer : t -> bool

val smi : int -> t
(** [smi v] tags [v]. Raises [Invalid_argument] out of range. *)

val smi_fits : int -> bool
val smi_value : t -> int
(** Untag; undefined on pointers (asserts in debug). *)

val pointer : int -> t
(** [pointer idx] tags a heap word index. *)

val pointer_index : t -> int

val zero : t
val one : t
