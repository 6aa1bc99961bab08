exception Invalid of { name : string; value : string; expected : string }

(* Name and checker of every declared knob.  Declarations run at module
   initialisation, before any domain is spawned. *)
let registry : (string * (unit -> unit)) list ref = ref []

let raw name =
  match Sys.getenv_opt name with None | Some "" -> None | Some v -> Some v

let string name ~default parse =
  let read () =
    match raw name with
    | None -> default
    | Some value -> (
      match parse value with
      | Ok x -> x
      | Error expected -> raise (Invalid { name; value; expected }))
  in
  registry := (name, fun () -> ignore (read ())) :: !registry;
  read

let is_off v = List.mem v [ "off"; "none"; "0" ]

let int name ~min ~default =
  string name ~default (fun v ->
      match int_of_string_opt (String.trim v) with
      | Some n when n >= min -> Ok n
      | _ -> Error (Printf.sprintf "an integer >= %d" min))

let float name ~default =
  string name ~default (fun v ->
      let v = String.trim v in
      match float_of_string_opt v with
      | _ when is_off v -> Ok infinity
      | Some f when f > 0.0 -> Ok f
      | _ -> Error "a positive number, or off")

let flag name ~default =
  string name ~default (fun v ->
      match String.trim v with
      | "1" | "on" | "true" | "yes" -> Ok true
      | v when is_off v || v = "false" || v = "no" -> Ok false
      | _ -> Error "on/off (1/0, true/false, yes/no)")

let path_or_off name ~default =
  string name ~default (fun v -> Ok (if is_off v then None else Some v))

let validate () = List.iter (fun (_, check) -> check ()) (List.rev !registry)

let validate_or_exit prog =
  try validate ()
  with Invalid { name; value; expected } ->
    Printf.eprintf "%s: %s=%S: expected %s\n%!" prog name value expected;
    exit 2

let set () =
  List.sort compare
    (List.filter_map
       (fun (name, _) -> Option.map (fun v -> (name, v)) (raw name))
       !registry)
