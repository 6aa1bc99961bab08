type counters = {
  mutable instructions : int;
  mutable branches : int;
  mutable taken_branches : int;
  mutable mispredicts : int;
  mutable loads : int;
  mutable stores : int;
  mutable frontend_stall : float;
  mutable backend_stall : float;
  mutable check_instructions : int;
  mutable check_branches : int;
  check_per_group : int array;
  mutable deopt_events : int;
  mutable jit_instructions : int;
  mutable runtime_instructions : int;
}

let create_counters () =
  {
    instructions = 0;
    branches = 0;
    taken_branches = 0;
    mispredicts = 0;
    loads = 0;
    stores = 0;
    frontend_stall = 0.0;
    backend_stall = 0.0;
    check_instructions = 0;
    check_branches = 0;
    check_per_group = Array.make 6 0;
    deopt_events = 0;
    jit_instructions = 0;
    runtime_instructions = 0;
  }

let reset_counters c =
  c.instructions <- 0;
  c.branches <- 0;
  c.taken_branches <- 0;
  c.mispredicts <- 0;
  c.loads <- 0;
  c.stores <- 0;
  c.frontend_stall <- 0.0;
  c.backend_stall <- 0.0;
  c.check_instructions <- 0;
  c.check_branches <- 0;
  Array.fill c.check_per_group 0 6 0;
  c.deopt_events <- 0;
  c.jit_instructions <- 0;
  c.runtime_instructions <- 0

(* Shared check-accounting path of both executors: one retired check
   instruction, attributed to its group, optionally a deopt branch. *)
let[@inline] note_check c ~group_index ~branch =
  c.check_instructions <- c.check_instructions + 1;
  c.check_per_group.(group_index) <- c.check_per_group.(group_index) + 1;
  if branch then c.check_branches <- c.check_branches + 1

let add_counters acc c =
  acc.instructions <- acc.instructions + c.instructions;
  acc.branches <- acc.branches + c.branches;
  acc.taken_branches <- acc.taken_branches + c.taken_branches;
  acc.mispredicts <- acc.mispredicts + c.mispredicts;
  acc.loads <- acc.loads + c.loads;
  acc.stores <- acc.stores + c.stores;
  acc.frontend_stall <- acc.frontend_stall +. c.frontend_stall;
  acc.backend_stall <- acc.backend_stall +. c.backend_stall;
  acc.check_instructions <- acc.check_instructions + c.check_instructions;
  acc.check_branches <- acc.check_branches + c.check_branches;
  Array.iteri
    (fun i v -> acc.check_per_group.(i) <- acc.check_per_group.(i) + v)
    c.check_per_group;
  acc.deopt_events <- acc.deopt_events + c.deopt_events;
  acc.jit_instructions <- acc.jit_instructions + c.jit_instructions;
  acc.runtime_instructions <- acc.runtime_instructions + c.runtime_instructions

let runtime_code_id = -1
let builtin_code_id = -2
let gc_code_id = -3

(* ------------------------------------------------------------------ *)
(* Block-batching observability                                        *)
(*                                                                     *)
(* How many block-batched accounting charges the pre-decoded engine    *)
(* took.  Deliberately OUTSIDE [counters]: harness results marshal the *)
(* [counters] record wholesale and the determinism suite digests them, *)
(* so anything engine-specific must not be in there.                   *)
(* ------------------------------------------------------------------ *)

type batching = {
  mutable fused_retired : int;
  mutable batched_blocks : int;
}

let create_batching () = { fused_retired = 0; batched_blocks = 0 }

let reset_batching b =
  b.fused_retired <- 0;
  b.batched_blocks <- 0

type sampler = {
  period : float;
  mutable next : float;
  rng : Support.Rng.t;
  samples : (int, int array) Hashtbl.t;
  mutable total : int;
}

let create_sampler ~period ~seed =
  {
    period;
    next = period;
    rng = Support.Rng.create seed;
    samples = Hashtbl.create 64;
    total = 0;
  }

let bucket s code_id size =
  match Hashtbl.find_opt s.samples code_id with
  | Some a when Array.length a >= size -> a
  | Some a ->
    let b = Array.make size 0 in
    Array.blit a 0 b 0 (Array.length a);
    Hashtbl.replace s.samples code_id b;
    b
  | None ->
    let b = Array.make size 0 in
    Hashtbl.replace s.samples code_id b;
    b

let advance s =
  (* +/-10 % jitter keeps the sampler from phase-locking with loops. *)
  let jitter = (Support.Rng.float s.rng 0.2 -. 0.1) *. s.period in
  s.next <- s.next +. s.period +. jitter

let sampler_tick s ~now ~code_id ~pc =
  while now >= s.next do
    let b = bucket s code_id (pc + 1) in
    b.(pc) <- b.(pc) + 1;
    s.total <- s.total + 1;
    if !Trace.on && s.total land 1023 = 0 then
      Trace.counter_at ~cat:"machine" ~ts:now "sampler.samples"
        (float_of_int s.total);
    advance s
  done

let sampler_bulk s ~from ~until ~code_id =
  ignore from;
  while until > s.next do
    let b = bucket s code_id 1 in
    b.(0) <- b.(0) + 1;
    s.total <- s.total + 1;
    if !Trace.on && s.total land 1023 = 0 then
      Trace.counter_at ~cat:"machine" ~ts:s.next "sampler.samples"
        (float_of_int s.total);
    advance s
  done

let samples_for s ~code_id ~size =
  let out = Array.make size 0 in
  (match Hashtbl.find_opt s.samples code_id with
  | None -> ()
  | Some a -> Array.blit a 0 out 0 (min size (Array.length a)));
  out

let total_samples s = s.total

let samples_by_code s =
  Hashtbl.fold
    (fun code_id a acc -> (code_id, Array.fold_left ( + ) 0 a) :: acc)
    s.samples []
