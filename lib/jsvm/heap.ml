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
  map_ptr : int;
  itype : instance_type;
  mutable props : (string * int) list;
  mutable transitions : (string * int) list;
  mutable prototype : int;
  elements_kind : elements_kind option;
}

exception Out_of_memory

type t = {
  mem : int array;
  size : int;
  mutable bump : int;
  mutable free_list : (int * int) list;  (* (index, size), address-ordered *)
  mutable objects : int list;            (* registry of live object indexes *)
  mutable maps : map_info array;         (* map_id -> info, grown by doubling *)
  mutable n_maps : int;
  map_ptr_to_id : (int, int) Hashtbl.t;
  interned : (string, int) Hashtbl.t;
  globals : (string, int) Hashtbl.t;     (* name -> cell ptr *)
  mutable root_providers : (unit -> int list) list;
  mutable on_full : unit -> bool;
  mutable gc_count : int;
  mutable last_live : int;
  mutable last_freed : int;
  mutable words_used : int;
  (* Bootstrapped singletons; 0 until [boot] runs. *)
  mutable undef : int;
  mutable nul : int;
  mutable tru : int;
  mutable fals : int;
  mutable hole : int;
  (* Core map ids. *)
  mutable meta_map : int;
  mutable oddball_map : int;
  mutable heap_number_map : int;
  mutable string_map : int;
  mutable fixed_array_map : int;
  mutable fixed_double_array_map : int;
  mutable empty_object_map : int;
  mutable smi_array_map : int;
  mutable double_array_map : int;
  mutable tagged_array_map : int;
  mutable function_map : int;
  mutable context_map : int;
  mutable cell_map : int;
}

(* ---------------- Layout constants ---------------- *)

let object_props_field = 1
let object_inline_base = 2
let inline_slots = 6
let array_length_field = 1
let array_elements_field = 2
let array_props_field = 3
let array_words = 4
let elements_header = 2
let string_length_field = 1
let string_chars_field = 3
let function_id_field = 1
let function_context_field = 2
let function_prototype_field = 3
let context_parent_field = 2
let context_slots_field = 3

let object_words = 2 + inline_slots

(* ---------------- Raw allocation ---------------- *)

let take_from_free_list t size =
  let rec go acc = function
    | [] -> None
    | (idx, sz) :: rest when sz >= size ->
      let remainder = if sz > size then [ (idx + size, sz - size) ] else [] in
      t.free_list <- List.rev_append acc (remainder @ rest);
      Some idx
    | hd :: rest -> go (hd :: acc) rest
  in
  go [] t.free_list

let rec alloc_raw t size =
  assert (size > 0);
  match take_from_free_list t size with
  | Some idx ->
    t.objects <- idx :: t.objects;
    t.words_used <- t.words_used + size;
    idx
  | None ->
    if t.bump + size <= t.size then begin
      let idx = t.bump in
      t.bump <- t.bump + size;
      t.objects <- idx :: t.objects;
      t.words_used <- t.words_used + size;
      idx
    end
    else if t.on_full () then alloc_raw t size
    else raise Out_of_memory

(* ---------------- Map registry ---------------- *)

let instance_type_code = function
  | It_map -> 0
  | It_oddball -> 1
  | It_heap_number -> 2
  | It_string -> 3
  | It_fixed_array -> 4
  | It_fixed_double_array -> 5
  | It_object -> 6
  | It_array -> 7
  | It_function -> 8
  | It_context -> 9

let register_map t ~itype ~prototype ~elements_kind =
  let idx = alloc_raw t 3 in
  let map_ptr = Value.pointer idx in
  let map_id = t.n_maps in
  let info =
    { map_id; map_ptr; itype; props = []; transitions = []; prototype;
      elements_kind }
  in
  if t.n_maps >= Array.length t.maps then begin
    let bigger = Array.make (max 16 (2 * Array.length t.maps)) info in
    Array.blit t.maps 0 bigger 0 t.n_maps;
    t.maps <- bigger
  end;
  t.maps.(t.n_maps) <- info;
  t.n_maps <- t.n_maps + 1;
  Hashtbl.replace t.map_ptr_to_id idx map_id;
  (* The meta-map points to itself; at boot time meta_map is being
     created so its ptr is this very object. *)
  let meta_ptr =
    if t.n_maps = 1 then map_ptr else t.maps.(t.meta_map).map_ptr
  in
  t.mem.(idx) <- meta_ptr;
  t.mem.(idx + 1) <- Value.smi map_id;
  t.mem.(idx + 2) <- Value.smi (instance_type_code itype);
  map_id

let map_info_by_id t id = t.maps.(id)
let map_id_of_map_ptr t ptr = Hashtbl.find t.map_ptr_to_id (Value.pointer_index ptr)

let map_of t ptr =
  let idx = Value.pointer_index ptr in
  let map_ptr = t.mem.(idx) in
  t.maps.(Hashtbl.find t.map_ptr_to_id (Value.pointer_index map_ptr))

let instance_type_of t ptr = (map_of t ptr).itype

(* ---------------- Object allocation helpers ---------------- *)

let alloc_with_map t map_id size =
  let idx = alloc_raw t size in
  t.mem.(idx) <- t.maps.(map_id).map_ptr;
  idx

let alloc_oddball t kind =
  let idx = alloc_with_map t t.oddball_map 2 in
  t.mem.(idx + 1) <- Value.smi kind;
  Value.pointer idx

(* ---------------- Creation / boot ---------------- *)

let create ?(size_words = 8 * 1024 * 1024) () =
  let t =
    {
      mem = Array.make size_words 0;
      size = size_words;
      bump = 8; (* keep low addresses unused so address 0 is never valid *)
      free_list = [];
      objects = [];
      maps = [||];
      n_maps = 0;
      map_ptr_to_id = Hashtbl.create 64;
      interned = Hashtbl.create 256;
      globals = Hashtbl.create 64;
      root_providers = [];
      on_full = (fun () -> false);
      gc_count = 0;
      last_live = 0;
      last_freed = 0;
      words_used = 0;
      undef = 0;
      nul = 0;
      tru = 0;
      fals = 0;
      hole = 0;
      meta_map = 0;
      oddball_map = 0;
      heap_number_map = 0;
      string_map = 0;
      fixed_array_map = 0;
      fixed_double_array_map = 0;
      empty_object_map = 0;
      smi_array_map = 0;
      double_array_map = 0;
      tagged_array_map = 0;
      function_map = 0;
      context_map = 0;
      cell_map = 0;
    }
  in
  (* Boot order matters: the meta map must exist before oddballs, and
     oddballs (undefined) before maps that use it as prototype. *)
  t.meta_map <- register_map t ~itype:It_map ~prototype:0 ~elements_kind:None;
  t.oddball_map <- register_map t ~itype:It_oddball ~prototype:0 ~elements_kind:None;
  t.undef <- alloc_oddball t 0;
  t.nul <- alloc_oddball t 1;
  t.tru <- alloc_oddball t 2;
  t.fals <- alloc_oddball t 3;
  t.hole <- alloc_oddball t 4;
  let u = t.undef in
  t.heap_number_map <- register_map t ~itype:It_heap_number ~prototype:u ~elements_kind:None;
  t.string_map <- register_map t ~itype:It_string ~prototype:u ~elements_kind:None;
  t.fixed_array_map <- register_map t ~itype:It_fixed_array ~prototype:u ~elements_kind:None;
  t.fixed_double_array_map <-
    register_map t ~itype:It_fixed_double_array ~prototype:u ~elements_kind:None;
  t.empty_object_map <- register_map t ~itype:It_object ~prototype:u ~elements_kind:None;
  t.smi_array_map <-
    register_map t ~itype:It_array ~prototype:u ~elements_kind:(Some Packed_smi);
  t.double_array_map <-
    register_map t ~itype:It_array ~prototype:u ~elements_kind:(Some Packed_double);
  t.tagged_array_map <-
    register_map t ~itype:It_array ~prototype:u ~elements_kind:(Some Packed_tagged);
  t.function_map <- register_map t ~itype:It_function ~prototype:u ~elements_kind:None;
  t.context_map <- register_map t ~itype:It_context ~prototype:u ~elements_kind:None;
  t.cell_map <- register_map t ~itype:It_fixed_array ~prototype:u ~elements_kind:None;
  t

let memory t = t.mem
let set_on_full t f = t.on_full <- f

let undefined t = t.undef
let null_value t = t.nul
let true_value t = t.tru
let false_value t = t.fals
let bool_value t b = if b then t.tru else t.fals

let is_truthy_oddball t v =
  if v = t.tru then Some true else if v = t.fals then Some false else None

(* ---------------- Field access ---------------- *)

let load t ptr k = t.mem.(Value.pointer_index ptr + k)
let store t ptr k v = t.mem.(Value.pointer_index ptr + k) <- v

(* ---------------- Numbers ---------------- *)

let alloc_heap_number t v =
  let idx = alloc_with_map t t.heap_number_map 3 in
  let bits = Int64.bits_of_float v in
  t.mem.(idx + 1) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  t.mem.(idx + 2) <- Int64.to_int (Int64.shift_right_logical bits 32);
  Value.pointer idx

let heap_number_value t ptr =
  let idx = Value.pointer_index ptr in
  let lo = Int64.of_int (t.mem.(idx + 1) land 0xFFFFFFFF) in
  let hi = Int64.of_int (t.mem.(idx + 2) land 0xFFFFFFFF) in
  Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32))

let is_number t v =
  Value.is_smi v || instance_type_of t v = It_heap_number

let number_value t v =
  if Value.is_smi v then float_of_int (Value.smi_value v)
  else if instance_type_of t v = It_heap_number then heap_number_value t v
  else invalid_arg "Heap.number_value: not a number"

let number t f =
  if Float.is_integer f && Float.abs f <= 1073741823.0 && not (f = 0.0 && 1.0 /. f < 0.0)
  then Value.smi (int_of_float f)
  else alloc_heap_number t f

(* ---------------- Strings ---------------- *)

let alloc_string t s =
  let n = String.length s in
  let idx = alloc_with_map t t.string_map (string_chars_field + n) in
  t.mem.(idx + string_length_field) <- Value.smi n;
  t.mem.(idx + 2) <- Value.smi (Hashtbl.hash s land 0x3FFFFFF);
  for i = 0 to n - 1 do
    t.mem.(idx + string_chars_field + i) <- Value.smi (Char.code s.[i])
  done;
  Value.pointer idx

let intern t s =
  match Hashtbl.find_opt t.interned s with
  | Some p -> p
  | None ->
    let p = alloc_string t s in
    Hashtbl.replace t.interned s p;
    p

let is_string t v = Value.is_pointer v && instance_type_of t v = It_string

let string_length t ptr = Value.smi_value (load t ptr string_length_field)

let string_char_code t ptr i =
  Value.smi_value (load t ptr (string_chars_field + i))

let string_value t ptr =
  let n = string_length t ptr in
  String.init n (fun i -> Char.chr (string_char_code t ptr i land 0xFF))

(* ---------------- Objects and hidden classes ---------------- *)

let new_object_map t ~prototype =
  register_map t ~itype:It_object ~prototype ~elements_kind:None

let alloc_object t ~map_id =
  let idx = alloc_with_map t map_id object_words in
  t.mem.(idx + object_props_field) <- t.undef;
  for i = 0 to inline_slots - 1 do
    t.mem.(idx + object_inline_base + i) <- t.undef
  done;
  Value.pointer idx

let alloc_empty_object t = alloc_object t ~map_id:t.empty_object_map

let own_slot (info : map_info) name = List.assoc_opt name info.props

let alloc_fixed_array t capacity init =
  let idx = alloc_with_map t t.fixed_array_map (elements_header + capacity) in
  t.mem.(idx + 1) <- Value.smi capacity;
  for i = 0 to capacity - 1 do
    t.mem.(idx + elements_header + i) <- init
  done;
  Value.pointer idx

(* Arrays keep every named property out-of-line (their fixed fields are
   length and elements); plain objects use 6 inline slots first. *)
let slot_location t obj slot =
  match (map_of t obj).itype with
  | It_array -> `Out_of_line (array_props_field, slot)
  | _ ->
    if slot < inline_slots then `Inline (object_inline_base + slot)
    else `Out_of_line (object_props_field, slot - inline_slots)

let load_slot t obj slot =
  match slot_location t obj slot with
  | `Inline field -> load t obj field
  | `Out_of_line (props_field, idx) ->
    let props = load t obj props_field in
    load t props (elements_header + idx)

let store_slot t obj slot v =
  match slot_location t obj slot with
  | `Inline field -> store t obj field v
  | `Out_of_line (props_field, idx) ->
    let props = load t obj props_field in
    store t props (elements_header + idx) v

let get_own_property t obj name =
  match own_slot (map_of t obj) name with
  | None -> None
  | Some slot -> Some (load_slot t obj slot)

let rec get_property t obj name =
  match get_own_property t obj name with
  | Some v -> Some v
  | None ->
    let proto = (map_of t obj).prototype in
    if proto = t.undef || proto = 0 then None
    else get_property t proto name

let transition_map t info name =
  match List.assoc_opt name info.transitions with
  | Some id -> id
  | None ->
    let slot = List.length info.props in
    let id =
      register_map t ~itype:info.itype ~prototype:info.prototype
        ~elements_kind:info.elements_kind
    in
    let fresh = t.maps.(id) in
    fresh.props <- info.props @ [ (name, slot) ];
    info.transitions <- (name, id) :: info.transitions;
    id

let grow_props t obj ~props_field needed =
  let current = load t obj props_field in
  let current_cap =
    if current = t.undef then 0
    else Value.smi_value (load t current 1)
  in
  if needed > current_cap then begin
    let cap = max 4 (max needed (2 * current_cap)) in
    let fresh = alloc_fixed_array t cap t.undef in
    for i = 0 to current_cap - 1 do
      store t fresh (elements_header + i) (load t current (elements_header + i))
    done;
    store t obj props_field fresh
  end

let set_property t obj name v =
  let info = map_of t obj in
  match own_slot info name with
  | Some slot -> store_slot t obj slot v
  | None ->
    let new_map = transition_map t info name in
    let slot = List.length info.props in
    (match (info.itype, slot) with
    | It_array, _ -> grow_props t obj ~props_field:array_props_field (slot + 1)
    | _, slot when slot >= inline_slots ->
      grow_props t obj ~props_field:object_props_field (slot - inline_slots + 1)
    | _ -> ());
    store t obj 0 t.maps.(new_map).map_ptr;
    store_slot t obj slot v

(* ---------------- Arrays ---------------- *)

let alloc_double_elements t capacity =
  let idx =
    alloc_with_map t t.fixed_double_array_map (elements_header + (2 * capacity))
  in
  t.mem.(idx + 1) <- Value.smi capacity;
  for i = 0 to capacity - 1 do
    (* 0.0 bits *)
    t.mem.(idx + elements_header + (2 * i)) <- 0;
    t.mem.(idx + elements_header + (2 * i) + 1) <- 0
  done;
  Value.pointer idx

let alloc_array t kind ~capacity =
  let capacity = max 1 capacity in
  let map_id =
    match kind with
    | Packed_smi -> t.smi_array_map
    | Packed_double -> t.double_array_map
    | Packed_tagged -> t.tagged_array_map
  in
  let elements =
    match kind with
    | Packed_double -> alloc_double_elements t capacity
    | Packed_smi | Packed_tagged -> alloc_fixed_array t capacity Value.zero
  in
  let idx = alloc_with_map t map_id array_words in
  t.mem.(idx + array_length_field) <- Value.smi 0;
  t.mem.(idx + array_elements_field) <- elements;
  t.mem.(idx + array_props_field) <- t.undef;
  Value.pointer idx

let array_length t arr = Value.smi_value (load t arr array_length_field)

let array_elements_kind t arr =
  match (map_of t arr).elements_kind with
  | Some k -> k
  | None -> invalid_arg "Heap.array_elements_kind: not an array"

let elements_capacity t elements = Value.smi_value (load t elements 1)

let read_double_element t elements i =
  let idx = Value.pointer_index elements + elements_header + (2 * i) in
  let lo = Int64.of_int (t.mem.(idx) land 0xFFFFFFFF) in
  let hi = Int64.of_int (t.mem.(idx + 1) land 0xFFFFFFFF) in
  Int64.float_of_bits (Int64.logor lo (Int64.shift_left hi 32))

let write_double_element t elements i v =
  let idx = Value.pointer_index elements + elements_header + (2 * i) in
  let bits = Int64.bits_of_float v in
  t.mem.(idx) <- Int64.to_int (Int64.logand bits 0xFFFFFFFFL);
  t.mem.(idx + 1) <- Int64.to_int (Int64.shift_right_logical bits 32)

let array_get t arr i =
  let len = array_length t arr in
  if i < 0 || i >= len then t.undef
  else begin
    let elements = load t arr array_elements_field in
    match array_elements_kind t arr with
    | Packed_smi | Packed_tagged -> load t elements (elements_header + i)
    | Packed_double ->
      let v = read_double_element t elements i in
      number t v
  end

(* Transition the backing store to a new kind, converting elements. *)
let transition_array t arr target_kind =
  let len = array_length t arr in
  let old_kind = array_elements_kind t arr in
  let old_elements = load t arr array_elements_field in
  let capacity = max 1 (elements_capacity t old_elements) in
  (match (old_kind, target_kind) with
  | Packed_smi, Packed_double ->
    let fresh = alloc_double_elements t capacity in
    for i = 0 to len - 1 do
      write_double_element t fresh i
        (float_of_int (Value.smi_value (load t old_elements (elements_header + i))))
    done;
    store t arr array_elements_field fresh;
    store t arr 0 t.maps.(t.double_array_map).map_ptr
  | Packed_smi, Packed_tagged ->
    store t arr 0 t.maps.(t.tagged_array_map).map_ptr
  | Packed_double, Packed_tagged ->
    let fresh = alloc_fixed_array t capacity t.undef in
    for i = 0 to len - 1 do
      store t fresh (elements_header + i) (number t (read_double_element t old_elements i))
    done;
    store t arr array_elements_field fresh;
    store t arr 0 t.maps.(t.tagged_array_map).map_ptr
  | _ -> invalid_arg "Heap.transition_array: invalid transition");
  ignore old_kind

let ensure_capacity t arr needed =
  let elements = load t arr array_elements_field in
  let capacity = elements_capacity t elements in
  if needed > capacity then begin
    let cap = max needed (2 * capacity) in
    let len = array_length t arr in
    match array_elements_kind t arr with
    | Packed_double ->
      let fresh = alloc_double_elements t cap in
      for i = 0 to len - 1 do
        write_double_element t fresh i (read_double_element t elements i)
      done;
      store t arr array_elements_field fresh
    | Packed_smi | Packed_tagged ->
      let fresh = alloc_fixed_array t cap Value.zero in
      for i = 0 to len - 1 do
        store t fresh (elements_header + i) (load t elements (elements_header + i))
      done;
      store t arr array_elements_field fresh
  end

let rec array_set t arr i v =
  let len = array_length t arr in
  if i < 0 || i > len then
    invalid_arg (Printf.sprintf "Heap.array_set: sparse write at %d (len %d)" i len);
  let kind = array_elements_kind t arr in
  let fits_kind =
    match kind with
    | Packed_smi -> Value.is_smi v
    | Packed_double -> is_number t v
    | Packed_tagged -> true
  in
  if not fits_kind then begin
    let target =
      match kind with
      | Packed_smi -> if is_number t v then Packed_double else Packed_tagged
      | Packed_double -> Packed_tagged
      | Packed_tagged -> assert false
    in
    transition_array t arr target;
    array_set t arr i v
  end
  else begin
    ensure_capacity t arr (i + 1);
    if i = len then store t arr array_length_field (Value.smi (len + 1));
    let elements = load t arr array_elements_field in
    match kind with
    | Packed_smi | Packed_tagged -> store t elements (elements_header + i) v
    | Packed_double -> write_double_element t elements i (number_value t v)
  end

let array_push t arr v = array_set t arr (array_length t arr) v

let array_pop t arr =
  let len = array_length t arr in
  if len = 0 then t.undef
  else begin
    let v = array_get t arr (len - 1) in
    store t arr array_length_field (Value.smi (len - 1));
    v
  end

(* ---------------- Functions and contexts ---------------- *)

let function_map_id t = t.function_map

let alloc_function t ~function_id ~context =
  let idx = alloc_with_map t t.function_map 4 in
  t.mem.(idx + function_id_field) <- Value.smi function_id;
  t.mem.(idx + function_context_field) <- context;
  t.mem.(idx + function_prototype_field) <- t.undef;
  Value.pointer idx

let is_function t v = Value.is_pointer v && instance_type_of t v = It_function
let function_id_of t f = Value.smi_value (load t f function_id_field)
let function_context t f = load t f function_context_field

let function_prototype t f =
  let p = load t f function_prototype_field in
  if p <> t.undef then p
  else begin
    let proto = alloc_empty_object t in
    store t f function_prototype_field proto;
    proto
  end

let alloc_context t ~parent ~slots =
  let idx = alloc_with_map t t.context_map (context_slots_field + slots) in
  t.mem.(idx + 1) <- Value.smi slots;
  t.mem.(idx + context_parent_field) <- parent;
  for i = 0 to slots - 1 do
    t.mem.(idx + context_slots_field + i) <- t.undef
  done;
  Value.pointer idx

let context_parent t c = load t c context_parent_field
let context_get t c i = load t c (context_slots_field + i)
let context_set t c i v = store t c (context_slots_field + i) v

(* ---------------- Globals (property cells) ---------------- *)

let global_cell t name =
  match Hashtbl.find_opt t.globals name with
  | Some c -> c
  | None ->
    let idx = alloc_with_map t t.cell_map 2 in
    t.mem.(idx + 1) <- t.undef;
    let ptr = Value.pointer idx in
    Hashtbl.replace t.globals name ptr;
    ptr

let cell_value t c = load t c 1
let set_cell_value t c v = store t c 1 v

(* ---------------- Garbage collection ---------------- *)

let object_size_at t idx =
  let map_ptr = t.mem.(idx) in
  let info = t.maps.(Hashtbl.find t.map_ptr_to_id (Value.pointer_index map_ptr)) in
  match info.itype with
  | It_map -> 3
  | It_oddball -> 2
  | It_heap_number -> 3
  | It_string -> string_chars_field + Value.smi_value (t.mem.(idx + string_length_field))
  | It_fixed_array ->
    if info.map_id = t.cell_map then 2
    else elements_header + Value.smi_value t.mem.(idx + 1)
  | It_fixed_double_array -> elements_header + (2 * Value.smi_value t.mem.(idx + 1))
  | It_object -> object_words
  | It_array -> array_words
  | It_function -> 4
  | It_context -> context_slots_field + Value.smi_value t.mem.(idx + 1)

let object_size t ptr = object_size_at t (Value.pointer_index ptr)

(* Which fields of an object hold tagged words (candidates for marking).
   SMIs are tagged too and are skipped by the marker naturally. *)
let scan_fields t idx f =
  let map_ptr = t.mem.(idx) in
  f map_ptr;
  let info = t.maps.(Hashtbl.find t.map_ptr_to_id (Value.pointer_index map_ptr)) in
  match info.itype with
  | It_map | It_oddball | It_heap_number -> ()
  | It_string -> () (* chars are SMIs *)
  | It_fixed_double_array -> () (* raw payload *)
  | It_fixed_array ->
    let n = if info.map_id = t.cell_map then 1 else
      Value.smi_value t.mem.(idx + 1) + 1 (* capacity word is an SMI; harmless *)
    in
    for k = 1 to n do
      f t.mem.(idx + k)
    done
  | It_object ->
    for k = 1 to object_words - 1 do
      f t.mem.(idx + k)
    done
  | It_array ->
    f t.mem.(idx + array_elements_field);
    f t.mem.(idx + array_props_field)
  | It_function ->
    f t.mem.(idx + function_context_field);
    f t.mem.(idx + function_prototype_field)
  | It_context ->
    let n = Value.smi_value t.mem.(idx + 1) in
    f t.mem.(idx + context_parent_field);
    for k = 0 to n - 1 do
      f t.mem.(idx + context_slots_field + k)
    done

let add_root_provider t p = t.root_providers <- p :: t.root_providers

let gc t =
  let marked = Hashtbl.create (List.length t.objects) in
  let stack = Stack.create () in
  let push v =
    if Value.is_pointer v && v <> 0 then begin
      let idx = Value.pointer_index v in
      if not (Hashtbl.mem marked idx) then begin
        Hashtbl.replace marked idx ();
        Stack.push idx stack
      end
    end
  in
  (* Roots: singletons, maps, interned strings, global cells + their
     values, engine-provided roots. *)
  push t.undef;
  push t.nul;
  push t.tru;
  push t.fals;
  push t.hole;
  for i = 0 to t.n_maps - 1 do
    push t.maps.(i).map_ptr;
    push t.maps.(i).prototype
  done;
  Hashtbl.iter (fun _ p -> push p) t.interned;
  Hashtbl.iter (fun _ c -> push c) t.globals;
  List.iter (fun provider -> List.iter push (provider ())) t.root_providers;
  while not (Stack.is_empty stack) do
    let idx = Stack.pop stack in
    scan_fields t idx push
  done;
  (* Sweep: rebuild the registry and the free list. *)
  let live = ref [] and live_words = ref 0 and freed = ref 0 in
  let free_ranges = ref [] in
  List.iter
    (fun idx ->
      let size = object_size_at t idx in
      if Hashtbl.mem marked idx then begin
        live := idx :: !live;
        live_words := !live_words + size
      end
      else begin
        freed := !freed + size;
        free_ranges := (idx, size) :: !free_ranges
      end)
    t.objects;
  (* Coalesce adjacent free ranges (address order). *)
  let sorted = List.sort compare !free_ranges in
  let coalesced =
    List.fold_left
      (fun acc (idx, size) ->
        match acc with
        | (pidx, psize) :: rest when pidx + psize = idx ->
          (pidx, psize + size) :: rest
        | _ -> (idx, size) :: acc)
      [] sorted
  in
  t.free_list <- List.rev coalesced;
  t.objects <- !live;
  t.words_used <- !live_words;
  t.gc_count <- t.gc_count + 1;
  t.last_live <- !live_words;
  t.last_freed <- !freed

let gc_count t = t.gc_count
let last_gc_live_words t = t.last_live
let last_gc_freed_words t = t.last_freed
let words_in_use t = t.words_used
let size_words t = t.size
