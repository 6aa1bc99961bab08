(** Plain-text rendering of result tables and bar series.

    Every experiment driver prints its figure/table through this module
    so the bench output has one consistent look. *)

type t

val create : title:string -> columns:string list -> t
(** A table with a caption and column headers. *)

val add_row : t -> string list -> unit
(** Rows must have as many cells as there are columns. *)

val add_missing_row : t -> label:string -> reason:string -> unit
(** Degraded-cell row: [label] in the first column, ["(missing:
    reason)"] in the second, ["-"] padding for the rest.  Used when a
    simulation cell failed permanently and the figure renders without
    it. *)

val render : t -> string
(** Box-drawn table with the title on top. *)

val print : t -> unit

(** {1 Cell formatting helpers} *)

val fmt_pct : float -> string
(** [fmt_pct 0.083] is ["8.3%"] — input is a fraction. *)

val fmt_speedup : float -> string
(** [fmt_speedup 1.083] is ["1.083x"]. *)

(** {1 Inline bar charts} *)

val bar : ?width:int -> max:float -> float -> string
(** Unicode bar proportional to [v /. max]. *)

val section : string -> unit
(** Prints a prominent section banner (used per figure). *)
