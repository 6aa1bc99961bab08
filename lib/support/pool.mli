(** Fixed-size domain pool for embarrassingly parallel work.

    Each job is an independent computation; the pool fans jobs out
    across OCaml 5 domains and collects results in submission order, so
    a parallel run is observationally identical to the sequential one.
    Exceptions raised by a job are captured and re-raised (with their
    backtrace) in the calling domain after all workers have stopped.

    The pool size defaults to the [VSPEC_JOBS] environment variable,
    falling back to [Domain.recommended_domain_count () - 1] (the
    calling domain participates as a worker).  [jobs = 1] is an exact
    sequential fallback: every job runs in the calling domain, in
    order, with no domain spawned. *)

val default_jobs : unit -> int
(** [VSPEC_JOBS] (a positive integer) if set, otherwise
    [max 1 (Domain.recommended_domain_count () - 1)].  Raises
    [Knob.Invalid] on any other value. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array f xs] like [Array.map f xs] but parallel; [results.(i)]
    corresponds to [xs.(i)].  Scheduling is dynamic (work stealing via
    a shared index), so per-job cost imbalance is absorbed.  If any
    job raises, the first exception (in completion order) is re-raised
    after the pool drains. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map_array}; results keep list order. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** Run thunks in parallel, results in submission order. *)

val map_result :
  ?jobs:int -> ?retries:int -> ('a -> 'b) -> 'a list ->
  ('b, Fault.error) result list
(** Fault-contained {!map}: each job yields [Ok v] or [Error e] in
    place, and a failing job never aborts the rest of the batch.
    Exceptions are classified through {!Fault.of_exn}; transient
    classes are retried inside the job slot ([retries] defaults to
    {!Fault.max_retries}).  The [worker] injection site fires per job
    index, before each attempt.  Never raises. *)

(** Thread-safe single-flight memo table.

    [find_or_compute t k f] returns the cached value for [k] or runs
    [f ()] to produce it.  When several domains ask for the same absent
    key concurrently, exactly one runs [f]; the others block until the
    value is published (single flight — one simulation per key, ever).
    If the producing [f] raises, the key is released (waiters retry,
    one of them becoming the new producer) and the exception propagates
    to the original caller. *)
module Memo : sig
  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** [create n] with initial capacity hint [n]. *)

  val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
  val find_opt : ('k, 'v) t -> 'k -> 'v option
  (** [None] also while a producer is in flight. *)

  val length : ('k, 'v) t -> int
  (** Number of published (completed) entries. *)

  val clear : ('k, 'v) t -> unit
end
