exception Regex_error of string

type node =
  | Char of char
  | Any
  | Class of { negated : bool; ranges : (char * char) list }
  | Start_anchor
  | End_anchor
  | Group of int * node list          (* capture index, alternatives-free body *)
  | Alt of node list list             (* alternatives, each a sequence *)
  | Repeat of { node : node; min : int; max : int option; greedy : bool }

type compiled = {
  src : string;
  body : node list;
  n_groups : int;
  mutable last_steps : int;
}

let source c = c.src

(* ---------------- Parsing ---------------- *)

type pstate = { pat : string; mutable pos : int; mutable groups : int }

let peek st = if st.pos < String.length st.pat then Some st.pat.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let fail fmt = Printf.ksprintf (fun m -> raise (Regex_error m)) fmt

let parse_escape st =
  match peek st with
  | None -> fail "dangling backslash"
  | Some c ->
    advance st;
    (match c with
    | 'd' -> Class { negated = false; ranges = [ ('0', '9') ] }
    | 'D' -> Class { negated = true; ranges = [ ('0', '9') ] }
    | 'w' ->
      Class
        { negated = false;
          ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ] }
    | 'W' ->
      Class
        { negated = true;
          ranges = [ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ] }
    | 's' ->
      Class
        { negated = false;
          ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ] }
    | 'S' ->
      Class
        { negated = true;
          ranges = [ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ] }
    | 'n' -> Char '\n'
    | 't' -> Char '\t'
    | 'r' -> Char '\r'
    | c -> Char c)

let parse_class st =
  let negated = peek st = Some '^' in
  if negated then advance st;
  let ranges = ref [] in
  let rec go () =
    match peek st with
    | None -> fail "unterminated character class"
    | Some ']' -> advance st
    | Some '\\' ->
      advance st;
      (match parse_escape st with
      | Char c -> ranges := (c, c) :: !ranges
      | Class { negated = false; ranges = rs } -> ranges := rs @ !ranges
      | _ -> fail "unsupported escape in class");
      go ()
    | Some c ->
      advance st;
      if peek st = Some '-' && st.pos + 1 < String.length st.pat && st.pat.[st.pos + 1] <> ']'
      then begin
        advance st;
        match peek st with
        | Some hi ->
          advance st;
          ranges := (c, hi) :: !ranges;
          go ()
        | None -> fail "unterminated range"
      end
      else begin
        ranges := (c, c) :: !ranges;
        go ()
      end
  in
  go ();
  Class { negated; ranges = !ranges }

let parse_int st =
  let start = st.pos in
  while (match peek st with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then None
  else Some (int_of_string (String.sub st.pat start (st.pos - start)))

let rec parse_alternatives st =
  let first = parse_sequence st in
  if peek st = Some '|' then begin
    let alts = ref [ first ] in
    while peek st = Some '|' do
      advance st;
      alts := parse_sequence st :: !alts
    done;
    [ Alt (List.rev !alts) ]
  end
  else first

and parse_sequence st =
  let out = ref [] in
  let rec go () =
    match peek st with
    | None | Some '|' | Some ')' -> ()
    | Some _ ->
      let atom = parse_atom st in
      let atom = parse_quantifier st atom in
      out := atom :: !out;
      go ()
  in
  go ();
  List.rev !out

and parse_atom st =
  match peek st with
  | Some '(' ->
    advance st;
    (* (?: ...) non-capturing *)
    let capture =
      if peek st = Some '?' then begin
        advance st;
        if peek st = Some ':' then begin
          advance st;
          false
        end
        else fail "unsupported group modifier"
      end
      else true
    in
    let idx =
      if capture then begin
        st.groups <- st.groups + 1;
        st.groups
      end
      else 0
    in
    let body = parse_alternatives st in
    if peek st <> Some ')' then fail "unterminated group";
    advance st;
    if capture then Group (idx, body) else Group (0, body)
  | Some '[' ->
    advance st;
    parse_class st
  | Some '\\' ->
    advance st;
    parse_escape st
  | Some '.' ->
    advance st;
    Any
  | Some '^' ->
    advance st;
    Start_anchor
  | Some '$' ->
    advance st;
    End_anchor
  | Some (('*' | '+' | '?') as c) -> fail "dangling quantifier '%c'" c
  | Some c ->
    advance st;
    Char c
  | None -> fail "expected atom"

and parse_quantifier st atom =
  let quantified min max =
    advance st;
    let greedy =
      if peek st = Some '?' then begin
        advance st;
        false
      end
      else true
    in
    Repeat { node = atom; min; max; greedy }
  in
  match peek st with
  | Some '*' -> quantified 0 None
  | Some '+' -> quantified 1 None
  | Some '?' -> quantified 0 (Some 1)
  | Some '{' ->
    advance st;
    let m = match parse_int st with Some m -> m | None -> fail "bad {m,n}" in
    let max =
      if peek st = Some ',' then begin
        advance st;
        parse_int st
      end
      else Some m
    in
    if peek st <> Some '}' then fail "unterminated {m,n}";
    advance st;
    let greedy =
      if peek st = Some '?' then begin
        advance st;
        false
      end
      else true
    in
    Repeat { node = atom; min = m; max; greedy }
  | _ -> atom

let compile pat =
  let st = { pat; pos = 0; groups = 0 } in
  let body = parse_alternatives st in
  if st.pos <> String.length pat then fail "trailing characters in pattern";
  { src = pat; body; n_groups = st.groups; last_steps = 0 }

(* ---------------- Matching ---------------- *)

type match_result = {
  m_start : int;
  m_end : int;
  captures : (int * int) option array;
}

let class_match negated ranges c =
  let inside = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
  inside <> negated

(* Backtracking bail-out budget.  Exhausting it is a watchdog event
   (the search will not terminate in useful time), so it goes through
   the structured fault taxonomy rather than the parse-error exception;
   the harness and pool layers classify and contain it like any other
   runaway simulation. *)
let default_step_limit = 2_000_000

let limit = ref default_step_limit
let set_step_limit n = limit := if n > 0 then n else default_step_limit
let step_limit () = !limit

(* CPS backtracking matcher. *)
let exec re s from =
  let n = String.length s in
  let caps = Array.make (re.n_groups + 1) None in
  let steps = ref 0 in
  let limit = step_limit () in
  let rec match_seq nodes i (k : int -> bool) =
    incr steps;
    if !steps > limit then
      Support.Fault.runaway ~what:("regex:" ^ re.src)
        ~limit:(float_of_int limit);
    match nodes with
    | [] -> k i
    | node :: rest -> match_node node i (fun j -> match_seq rest j k)
  and match_node node i k =
    match node with
    | Char c -> i < n && s.[i] = c && k (i + 1)
    | Any -> i < n && s.[i] <> '\n' && k (i + 1)
    | Class { negated; ranges } -> i < n && class_match negated ranges s.[i] && k (i + 1)
    | Start_anchor -> i = 0 && k i
    | End_anchor -> i = n && k i
    | Group (0, body) -> match_seq body i k
    | Group (g, body) ->
      let saved = caps.(g) in
      match_seq body i (fun j ->
          caps.(g) <- Some (i, j);
          k j || begin
            caps.(g) <- saved;
            false
          end)
    | Alt alternatives ->
      List.exists (fun alt -> match_seq alt i k) alternatives
    | Repeat { node; min; max; greedy } ->
      let max_v = Option.value max ~default:max_int in
      let rec try_more count i =
        if greedy then
          (count < max_v
          && match_node node i (fun j -> j > i && try_more (count + 1) j))
          || (count >= min && k i)
        else
          (count >= min && k i)
          || (count < max_v
             && match_node node i (fun j -> j > i && try_more (count + 1) j))
      in
      try_more 0 i
  in
  let result = ref None in
  let start = ref (max 0 from) in
  while !result = None && !start <= n do
    Array.fill caps 0 (Array.length caps) None;
    let i0 = !start in
    if match_seq re.body i0 (fun j ->
           result := Some (i0, j);
           true)
    then ()
    else incr start
  done;
  re.last_steps <- !steps;
  match !result with
  | None -> None
  | Some (i0, j) -> Some { m_start = i0; m_end = j; captures = Array.copy caps }

let test re s = exec re s 0 <> None

let steps_of_last_exec re = re.last_steps
