(** Fault taxonomy, deterministic fault injection, bounded retries, and
    the process-wide failure ledger.

    Long experiment sweeps must survive a bad cell: every failure is
    classified into one of five structured error classes; transient
    classes are retried a bounded number of times, permanent ones
    land in the {!Ledger} and the affected figure cell renders as
    missing.  A seeded injection layer ({!Inject}, [VSPEC_FAULTS]) can
    fire synthetic faults at the four fault sites deterministically so
    tests can drive every recovery path. *)

type exn_info = { exn_name : string; exn_msg : string }

type error =
  | Runaway of { what : string; limit : float }
      (** The simulation watchdog's cycle-fuel budget was exhausted
          ([what] = code-object or regex identifier). *)
  | Checksum_mismatch of { cell : string; expected : float; got : float }
      (** A run's checksum diverged from an interpreter-only run of the
          same iteration count ([VSPEC_VERIFY]). *)
  | Cache_corrupt of { path : string; reason : string }
      (** An on-disk cache entry failed to unmarshal; it has been
          quarantined as [<digest>.corrupt]. *)
  | Worker_crash of exn_info
      (** Any other exception escaping a pool job or a simulation. *)
  | Injected of { site : string; key : string }
      (** A synthetic fault from the {!Inject} layer. *)

exception Fault of error

type severity = Transient | Permanent

val classify : error -> severity
(** [Injected] and [Cache_corrupt] are transient (retry may clear
    them); everything else reproduces deterministically and is
    permanent. *)

val is_transient : error -> bool
val class_name : error -> string
(** Short stable identifier ("runaway", "cache-corrupt", ...). *)

val describe : error -> string
(** One-line human description. *)

val of_exn : exn -> error
(** [Fault e] unwraps to [e]; anything else becomes [Worker_crash]. *)

val runaway : what:string -> limit:float -> 'a
(** Raise [Fault (Runaway _)] (watchdog trip helper). *)

(** Deterministic seeded fault injection.

    Configured by [VSPEC_FAULTS], a comma-separated list of
    [site:rate:seed] or [site:rate:seed:keyfilter] rules with sites
    [cache-read], [cache-write], [worker], [sim].  Whether a rule fires
    is a pure hash of (seed, site, key, attempt): independent of domain
    scheduling, reproducible across runs, and re-rolled per retry
    attempt so sub-1.0 rates eventually clear.  The optional key filter
    restricts a rule to fault keys containing that substring (used to
    fail one specific cell permanently). *)
module Inject : sig
  type site = Cache_read | Cache_write | Worker | Sim

  val site_name : site -> string

  val set_spec : string -> unit
  (** Override the [VSPEC_FAULTS] spec programmatically (tests); [""]
      disables injection.  Raises [Invalid_argument] on a malformed
      spec. *)

  val fires : site:site -> key:string -> attempt:int -> error option
  (** The injection decision, non-raising. *)

  val check : site:site -> key:string -> attempt:int -> unit
  (** Raise [Fault (Injected _)] if a rule fires. *)
end

val max_retries : unit -> int
(** Retry budget for transient faults ([VSPEC_RETRIES], a non-negative
    integer; default 2). *)

val guard :
  ?retries:int ->
  ?inject:Inject.site * string ->
  (attempt:int -> 'a) ->
  ('a, error * int) result
(** [guard f] runs [f ~attempt:0]; on a transient error it retries at
    once (re-invoking [f] with the next attempt number) up to
    [retries] times, then returns [Error (e, attempts_used)].
    Permanent errors return immediately.  With [~inject:(site, key)],
    {!Inject.check} runs before each attempt.  Never raises. *)

(** Mutex-protected process-wide record of every cell failure.
    Permanent entries drive the degraded exit code (1); notes record
    recovered faults (quarantined cache entries, skipped writes). *)
module Ledger : sig
  type entry = {
    cell : string;
    err : error;
    attempts : int;
    permanent : bool;
  }

  val record : ?attempts:int -> ?permanent:bool -> cell:string -> error -> unit
  val note : cell:string -> error -> unit
  (** [record ~permanent:false]: recovered, does not affect the exit
      code. *)

  val entries : unit -> entry list
  (** In recording order. *)

  val permanent_count : unit -> int
  val clear : unit -> unit

  val exit_code : unit -> int
  (** 0 = clean, 1 = at least one permanent failure (degraded run). *)

  val report : out_channel -> unit
  (** Print the ledger (cell id, error class, attempts, description);
      prints nothing when the ledger is empty. *)
end
