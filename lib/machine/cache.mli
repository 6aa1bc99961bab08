(** Set-associative LRU cache model (word-addressed).

    Used for the L1I/L1D/L2 hierarchy of the detailed CPU models and
    for the load-latency component of the fast model. *)

type t

val create :
  name:string -> size_words:int -> assoc:int -> line_words:int ->
  hit_latency:int -> t

val access : t -> int -> bool
(** [access t addr] returns [true] on hit and updates LRU/fill state. *)

val hit_latency : t -> int

type hierarchy = {
  l1d : t;
  l1i : t;
  l2 : t;
  mem_latency : int;
}

val default_hierarchy : unit -> hierarchy
val small_hierarchy : unit -> hierarchy
(** Smaller caches for the little in-order cores. *)

val data_latency : hierarchy -> int -> int
(** Latency in cycles of a data access at the given word address. *)

val inst_latency : hierarchy -> int -> int
(** Latency of an instruction fetch at the given word address. *)
