(** [Vspec.Trace]: the deterministic tracing and profile-export subsystem.

    A process-wide, preallocated ring-buffer event sink with a
    span/instant/counter/sample API, stamped in one of two clock
    domains:

    - {b Sim} — the simulated CPU clock (cycles).  Simulated-time events
      are deterministic: the same run produces the same timeline, so
      traces are reproducible artifacts.  The sim clock is read through
      a per-domain reader registered by [Engine.create]
      ({!set_sim_clock}), or passed explicitly ([_at] variants) by
      machine-layer call sites that already hold the clock.
    - {b Wall} — host wall-clock microseconds since {!enable}, for
      host-side work (parsing, compilation phases, pool jobs, figure
      drivers) that has no simulated duration.

    Tracing is zero-cost when off: every emitter begins with a single
    load-and-branch on {!on}, and hot call sites guard argument
    construction behind [if !Trace.on].  Emission never touches
    simulation state (no counters, no RNG draws, no charges), so
    digested results are bit-identical with tracing on, off, or with a
    wrapped ring buffer — asserted by [test/test_trace.ml].

    Exporters ({!render} / {!write}):
    - {b Chrome} trace-event JSON ([.json]) — loadable in Perfetto or
      [chrome://tracing]; sim and wall domains render as two processes,
      layers ([jsvm], [turbofan], [machine], [experiments], [support])
      as named threads.
    - {b Folded} collapsed-stack format ([.folded]) — one
      ["frame;frame;frame count"] line per stack, the input format of
      [flamegraph.pl] / speedscope; fed by {!sample} events carrying the
      PC sampler's per-check attribution.
    - {b Csv} counter timelines ([.csv]) — [ts,domain,category,name,value]
      rows plus a per-series quartile summary footer
      (via [Support.Stats]). *)

type domain = Sim | Wall
type kind = Span | Instant | Counter | Sample

type event = {
  ev_kind : kind;
  ev_dom : domain;
  ev_cat : string;   (** layer lane: "jsvm", "turbofan", "machine", ... *)
  ev_name : string;
  ev_arg : string;   (** free-form detail; [""] = none *)
  ev_ts : float;     (** sim cycles, or wall microseconds since enable *)
  ev_dur : float;    (** spans only *)
  ev_value : float;  (** counters and samples *)
}

val on : bool ref
(** The fast-path flag.  Read-only for instrumentation sites
    ([if !Trace.on then ...]); toggled by {!enable} / {!disable}. *)

val active : unit -> bool

(** {1 Lifecycle} *)

val default_capacity : int
(** 65536 events; override with [?capacity]. *)

val enable : ?capacity:int -> unit -> unit
(** Allocate the ring buffer (capacity from [?capacity], else
    {!default_capacity}; clamped to >= 16) and
    start recording.  No output path is set: use {!write} or {!events}
    to consume the ring. *)

val disable : unit -> unit
(** Stop recording and drop the ring and any configured output path. *)

val configure : ?capacity:int -> path:string -> unit -> (unit, string) result
(** [enable] plus an output path for {!finalize}.  The path is probed
    for writability immediately so a bad [--trace] destination fails
    with a clear message up front; on [Error] tracing stays disabled. *)

val setup : ?path:string -> unit -> (bool, string) result
(** Binary entry point: resolve the trace destination from [?path]
    (the [--trace] flag) falling back to [VSPEC_TRACE]; unset or [off] means
    tracing stays off ([Ok false]).  On success registers an [at_exit]
    hook that writes the trace (reporting the path and event count on
    stderr), so every exit path of a CLI flushes it.  [Error] carries a
    one-line degradation message — callers print it and continue
    untraced, mirroring [Support.Fault]'s containment style. *)

val finalize : unit -> ((string * int) option, string) result
(** Write the ring to the configured path (format from the extension)
    and disable tracing.  [Ok (Some (path, events))] on a write,
    [Ok None] when no path was configured (idempotent). *)

(** {1 Clock domains} *)

val set_sim_clock : (unit -> float) -> unit
(** Register the simulated-clock reader for the current OCaml domain
    (domain-local, so pool workers each trace their own engine).
    [Engine.create] points this at its CPU. *)

val sim_now : unit -> float
(** Current simulated time via the registered reader (0.0 default). *)

val wall_now : unit -> float
(** Host microseconds since {!enable}. *)

(** {1 Emitters}

    All emitters are no-ops when tracing is off and never raise.
    [_at] variants take an explicit sim timestamp (for call sites that
    already hold the CPU clock); the rest read {!sim_now} or
    {!wall_now}. *)

val instant : ?arg:string -> cat:string -> string -> unit
val instant_at : ?arg:string -> cat:string -> ts:float -> string -> unit
val instant_wall : ?arg:string -> cat:string -> string -> unit

val counter : cat:string -> string -> float -> unit
val counter_at : cat:string -> ts:float -> string -> float -> unit

val complete_at : ?arg:string -> cat:string -> ts:float -> dur:float -> string -> unit
(** A finished sim-domain span (begin [ts], length [dur] cycles). *)

val complete_wall_at :
  ?arg:string -> cat:string -> ts:float -> dur:float -> string -> unit

val span : ?arg:string -> cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a sim-domain span (emitted on return or
    exception).  When tracing is off, just runs the thunk. *)

val span_wall : ?arg:string -> cat:string -> string -> (unit -> 'a) -> 'a

val sample : stack:string -> int -> unit
(** A folded-stack sample: [stack] is a [';']-joined frame list, the
    count is merged per stack by the folded exporter. *)

(** {1 Introspection (tests, exporters)} *)

val events : unit -> event list
(** Ring contents in recording order (oldest surviving event first). *)

val emitted : unit -> int
(** Total events ever emitted, including overwritten ones. *)

val dropped : unit -> int
(** Events overwritten by ring wrap ([emitted - live]). *)

val capacity : unit -> int

(** {1 Export} *)

type format = Chrome | Folded | Csv

val format_of_path : string -> format
(** [.folded] -> Folded, [.csv] -> Csv, anything else -> Chrome. *)

val render : format -> Buffer.t -> unit
val write : path:string -> (int, string) result
(** Render to [path] (format from extension); [Ok events_written]. *)
