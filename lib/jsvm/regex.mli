(** Backtracking regular-expression engine (the "Irregexp" substitute).

    The paper notes that regex benchmarks show almost no check overhead
    because their work happens inside V8's regex engine rather than in
    JIT-compiled code; this module plays that role — regex matching is a
    builtin whose cost is charged in bulk, outside JIT code.

    Supported syntax: literals, [.], character classes with ranges and
    negation, escapes (\d \D \w \W \s \S and punctuation), anchors ^ $,
    quantifiers * + ? {m} {m,} {m,n} (greedy and lazy), alternation,
    capturing groups. *)

type compiled

exception Regex_error of string

val compile : string -> compiled
val source : compiled -> string

type match_result = {
  m_start : int;
  m_end : int;
  captures : (int * int) option array;  (** group i -> (start, end) *)
}

val exec : compiled -> string -> int -> match_result option
(** [exec re s from] finds the first match at or after [from].

    A search that exceeds the backtracking step budget raises
    [Support.Fault.Fault (Runaway _)] (a typed watchdog event, handled
    by the experiment fault-containment layer) — pathological patterns
    cannot hang a worker domain.  [Regex_error] is reserved for parse
    errors from {!compile}. *)

val step_limit : unit -> int
(** Current backtracking budget: {!set_step_limit} override if any,
    else 2,000,000. *)

val set_step_limit : int -> unit
(** Override the budget ([n <= 0] clears the override).  For tests. *)

val test : compiled -> string -> bool

val steps_of_last_exec : compiled -> int
(** Backtracking steps the most recent search took (cost accounting). *)
