(** Typed readers for the [VSPEC_*] environment knobs.

    Every knob the program reads is declared once, at its user's top
    level, through one of the readers below; each declaration returns a
    [unit -> 'a] reader that consults the environment on every call (so
    tests can [Unix.putenv] between reads) and registers the knob for
    {!validate} and {!set}.

    For every knob, unset and [""] mean the same thing: the default.
    ([Unix] has no [unsetenv], so [putenv name ""] is how a knob is
    reset.)  A value the reader cannot parse, or one out of range,
    raises {!Invalid}; nothing falls back to the default silently. *)

exception Invalid of { name : string; value : string; expected : string }
(** [value] of knob [name] is not of the [expected] form. *)

val int : string -> min:int -> default:int -> unit -> int
(** An integer [>= min] (surrounding whitespace ignored). *)

val float : string -> default:float -> unit -> float
(** A positive number, or [off]/[none]/[0] for no limit ([infinity]). *)

val flag : string -> default:bool -> unit -> bool
(** [1]/[on]/[true]/[yes] or [0]/[off]/[none]/[false]/[no]. *)

val path_or_off : string -> default:string option -> unit -> string option
(** A path, or [off]/[none]/[0] for [None].  Never invalid. *)

val string : string -> default:'a -> (string -> ('a, string) result) -> unit -> 'a
(** A value parsed by the caller; [Error expected] makes it invalid. *)

val validate : unit -> unit
(** Read every registered knob once; raises {!Invalid} for the first
    bad one. *)

val validate_or_exit : string -> unit
(** [validate_or_exit prog]: {!validate}, or print [prog: NAME="value":
    expected ...] to stderr and exit 2 (usage error).  Binaries call
    this before doing any work. *)

val set : unit -> (string * string) list
(** The registered knobs that are set (to a non-empty value), with
    their raw values, sorted by name. *)
