type t = {
  name : string;
  sets : int;
  set_mask : int;        (* sets - 1 when sets is a power of two, else -1 *)
  assoc : int;
  line_shift : int;
  hit_latency : int;
  tags : int array;      (* sets * assoc, -1 = invalid *)
  lru : int array;       (* sets * assoc, higher = more recent *)
  mutable clock : int;
}

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~name ~size_words ~assoc ~line_words ~hit_latency =
  let lines = size_words / line_words in
  let sets = max 1 (lines / assoc) in
  {
    name;
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    assoc;
    line_shift = log2i line_words;
    hit_latency;
    tags = Array.make (sets * assoc) (-1);
    lru = Array.make (sets * assoc) 0;
    clock = 0;
  }

(* Ways 4.. of a deep set (L2-style assoc > 4): cold continuation of
   the unrolled probe in [access]. *)
let rec find_way t base line i =
  if i >= t.assoc then -1
  else if Array.unsafe_get t.tags (base + i) = line then i
  else find_way t base line (i + 1)

(* Miss path: evict the LRU way.  Cold relative to the hit path. *)
let miss_fill t base line =
  let victim = ref 0 in
  for i = 1 to t.assoc - 1 do
    if Array.unsafe_get t.lru (base + i)
       < Array.unsafe_get t.lru (base + !victim)
    then victim := i
  done;
  Array.unsafe_set t.tags (base + !victim) line;
  Array.unsafe_set t.lru (base + !victim) t.clock;
  false

(* The hit path is loop-free (ways 0-3 unrolled, deeper sets defer to
   [find_way]) so the classic (non-flambda) inliner, which refuses
   functions containing loops, inlines it into [Cpu]'s timing paths.
   That needs this module's .cmx, which the workspace's release
   profile provides and dev's [-opaque] hides.
   [base + i < sets * assoc = Array.length tags] by construction. *)
let[@inline] access t addr =
  let line = addr lsr t.line_shift in
  (* Power-of-two set counts (every shipped hierarchy) index with a
     mask; the division only survives for odd custom geometries. *)
  let set =
    if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
  in
  let a = t.assoc in
  let base = set * a in
  t.clock <- t.clock + 1;
  let tags = t.tags in
  let i =
    if Array.unsafe_get tags base = line then 0
    else if a > 1 && Array.unsafe_get tags (base + 1) = line then 1
    else if a > 2 && Array.unsafe_get tags (base + 2) = line then 2
    else if a > 3 && Array.unsafe_get tags (base + 3) = line then 3
    else if a > 4 then find_way t base line 4
    else -1
  in
  if i >= 0 then begin
    Array.unsafe_set t.lru (base + i) t.clock;
    true
  end
  else miss_fill t base line

let hit_latency t = t.hit_latency

type hierarchy = { l1d : t; l1i : t; l2 : t; mem_latency : int }

let default_hierarchy () =
  {
    l1d = create ~name:"L1D" ~size_words:(32 * 1024 / 4) ~assoc:4 ~line_words:16 ~hit_latency:3;
    l1i = create ~name:"L1I" ~size_words:(32 * 1024 / 4) ~assoc:4 ~line_words:16 ~hit_latency:1;
    l2 = create ~name:"L2" ~size_words:(512 * 1024 / 4) ~assoc:8 ~line_words:16 ~hit_latency:12;
    mem_latency = 90;
  }

let small_hierarchy () =
  {
    l1d = create ~name:"L1D" ~size_words:(16 * 1024 / 4) ~assoc:2 ~line_words:16 ~hit_latency:2;
    l1i = create ~name:"L1I" ~size_words:(16 * 1024 / 4) ~assoc:2 ~line_words:16 ~hit_latency:1;
    l2 = create ~name:"L2" ~size_words:(128 * 1024 / 4) ~assoc:8 ~line_words:16 ~hit_latency:10;
    mem_latency = 110;
  }

let[@inline] data_latency h addr =
  if access h.l1d addr then h.l1d.hit_latency
  else if access h.l2 addr then h.l1d.hit_latency + h.l2.hit_latency
  else h.l1d.hit_latency + h.l2.hit_latency + h.mem_latency

let[@inline] inst_latency h addr =
  if access h.l1i addr then 0
  else if access h.l2 addr then h.l2.hit_latency
  else h.l2.hit_latency + h.mem_latency
