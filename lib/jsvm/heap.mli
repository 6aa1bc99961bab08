(** The VM heap: a flat array of tagged 32-bit words.

    Layouts mirror V8's compressed heap.  Every object starts with a
    tagged pointer to its {e map} (hidden class).  Maps describe object
    shape — property-name-to-slot assignments, the prototype, and for
    arrays the elements kind — and evolve through transitions when
    properties are added, exactly the mechanism the paper's Wrong-Map
    checks protect.

    Object layouts (word offsets from the object base):
    - Map:             [meta-map][map_id][instance_type]
    - Oddball:         [map][kind]
    - HeapNumber:      [map][bits_lo][bits_hi]
    - String:          [map][length][hash][char0 (SMI)]...
    - FixedArray:      [map][capacity][e0]...
    - FixedDoubleArray:[map][capacity][lo0][hi0]...
    - JSObject:        [map][props_ptr][in0]..[in5]   (6 inline slots)
    - JSArray:         [map][length][elements_ptr]
    - JSFunction:      [map][function_id][context_ptr][prototype_ptr]
    - Context:         [map][slot_count][parent_ptr][s0]...

    Garbage collection is non-moving mark-sweep over an object registry,
    so machine code and interpreter frames can hold raw tagged pointers
    across collections.  The heap never collects on its own: allocation
    calls [on_full] when space runs out, and the embedding engine
    decides whether a collection is safe (no machine frames live). *)

type instance_type =
  | It_map
  | It_oddball
  | It_heap_number
  | It_string
  | It_fixed_array
  | It_fixed_double_array
  | It_object
  | It_array
  | It_function
  | It_context

type elements_kind = Packed_smi | Packed_double | Packed_tagged

type map_info = {
  map_id : int;
  map_ptr : int;                        (** tagged pointer to the map object *)
  itype : instance_type;
  mutable props : (string * int) list;  (** name -> slot, insertion order *)
  mutable transitions : (string * int) list;  (** name -> map_id *)
  mutable prototype : int;              (** tagged pointer or undefined *)
  elements_kind : elements_kind option;
}

type t

exception Out_of_memory

val create : ?size_words:int -> unit -> t
val memory : t -> int array

val set_on_full : t -> (unit -> bool) -> unit
(** Called when allocation fails; return [true] if space was freed
    (e.g. by running {!gc}) and the allocation should be retried. *)

(** {1 Singletons} *)

val undefined : t -> int
val null_value : t -> int
val true_value : t -> int
val false_value : t -> int
val bool_value : t -> bool -> int
val is_truthy_oddball : t -> int -> bool option
(** [Some b] if the pointer is the true/false oddball. *)

(** {1 Raw field access} *)

val load : t -> int -> int -> int
(** [load t ptr k] reads field [k] of the object at tagged [ptr]. *)

val store : t -> int -> int -> int -> unit
val map_of : t -> int -> map_info
val instance_type_of : t -> int -> instance_type
val map_info_by_id : t -> int -> map_info
val map_id_of_map_ptr : t -> int -> int
val instance_type_code : instance_type -> int
(** The SMI payload stored in a map object's instance-type field. *)

(** {1 Layout constants (shared with the JIT backends)} *)

val object_props_field : int (* = 1 *)
val object_inline_base : int (* = 2 *)
val inline_slots : int (* = 6 *)
val array_length_field : int (* = 1 *)
val array_elements_field : int (* = 2 *)
val array_props_field : int (* = 3 *)
val elements_header : int (* = 2 *)
val string_length_field : int (* = 1 *)
val string_chars_field : int (* = 3 *)
val function_id_field : int (* = 1 *)
val function_context_field : int (* = 2 *)
val function_prototype_field : int (* = 3 *)
val context_parent_field : int (* = 2 *)
val context_slots_field : int (* = 3 *)

(** {1 Numbers} *)

val alloc_heap_number : t -> float -> int
val heap_number_value : t -> int -> float
val number_value : t -> int -> float
(** SMI or HeapNumber to float; raises [Invalid_argument] otherwise. *)

val is_number : t -> int -> bool
val number : t -> float -> int
(** Tag as SMI when integral and in range, else allocate a HeapNumber. *)

(** {1 Strings} *)

val alloc_string : t -> string -> int
val intern : t -> string -> int
val string_value : t -> int -> string
val is_string : t -> int -> bool
val string_length : t -> int -> int
val string_char_code : t -> int -> int -> int

(** {1 Objects and hidden classes} *)

val new_object_map : t -> prototype:int -> int
(** Fresh root map for a constructor's instances. *)

val alloc_object : t -> map_id:int -> int
val alloc_empty_object : t -> int
val own_slot : map_info -> string -> int option
val get_own_property : t -> int -> string -> int option
val get_property : t -> int -> string -> int option
(** Follows the prototype chain. *)

val set_property : t -> int -> string -> int -> unit
(** Adds via map transition when the property is new. *)

val load_slot : t -> int -> int -> int
(** [load_slot t obj slot] reads property slot [slot] (inline or
    out-of-line). *)

val store_slot : t -> int -> int -> int -> unit

(** {1 Arrays} *)

val alloc_array : t -> elements_kind -> capacity:int -> int
val array_length : t -> int -> int
val array_elements_kind : t -> int -> elements_kind
val array_get : t -> int -> int -> int
(** Boxes doubles from double-kind backing stores. Out-of-range reads
    return undefined. *)

val array_set : t -> int -> int -> int -> unit
(** Handles elements-kind transitions and growth; index must be
    <= length (dense arrays only). *)

val array_push : t -> int -> int -> unit
val array_pop : t -> int -> int

(** {1 Functions, contexts, globals} *)

val function_map_id : t -> int
val alloc_function : t -> function_id:int -> context:int -> int
val function_id_of : t -> int -> int
val is_function : t -> int -> bool
val function_context : t -> int -> int
val function_prototype : t -> int -> int
(** Lazily creates the prototype object. *)

val alloc_context : t -> parent:int -> slots:int -> int
val context_parent : t -> int -> int
val context_get : t -> int -> int -> int
val context_set : t -> int -> int -> int -> unit

val global_cell : t -> string -> int
(** Property-cell pointer for a global; created on demand holding
    undefined.  Layout: [map][value]. *)

val cell_value : t -> int -> int
val set_cell_value : t -> int -> int -> unit

(** {1 Garbage collection} *)

val add_root_provider : t -> (unit -> int list) -> unit
val gc : t -> unit
val gc_count : t -> int
val last_gc_live_words : t -> int
val last_gc_freed_words : t -> int
val words_in_use : t -> int
val size_words : t -> int
val object_size : t -> int -> int
(** Size in words of the object at a tagged pointer (testing aid). *)
