type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* reversed *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- row :: t.rows

let add_missing_row t ~label ~reason =
  let n = List.length t.columns in
  let row =
    match n with
    | 0 -> []
    | 1 -> [ label ]
    | _ ->
      label
      :: Printf.sprintf "(missing: %s)" reason
      :: List.init (n - 2) (fun _ -> "-")
  in
  t.rows <- row :: t.rows

(* Display width: count UTF-8 code points, not bytes, so bar glyphs align. *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pad width s =
  let w = display_width s in
  if w >= width then s else s ^ String.make (width - w) ' '

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i header ->
        List.fold_left
          (fun acc row -> max acc (display_width (List.nth row i)))
          (display_width header) rows)
      t.columns
  in
  let buf = Buffer.create 1024 in
  let hline sep =
    Buffer.add_string buf
      (sep ^ String.concat sep (List.map (fun w -> String.make (w + 2) '-') widths) ^ sep ^ "\n")
  in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (if i = 0 then "| " else " | ");
        Buffer.add_string buf (pad (List.nth widths i) cell))
      cells;
    Buffer.add_string buf " |\n"
  in
  Buffer.add_string buf (t.title ^ "\n");
  hline "+";
  emit_row t.columns;
  hline "+";
  List.iter emit_row rows;
  hline "+";
  Buffer.contents buf

let print t = print_string (render t)

let fmt_pct v = Printf.sprintf "%.1f%%" (v *. 100.0)

let fmt_speedup v = Printf.sprintf "%.3fx" v

let bar ?(width = 24) ~max v =
  if max <= 0.0 then String.make width ' '
  else begin
    let frac = Float.min 1.0 (Float.max 0.0 (v /. max)) in
    let eighths = int_of_float (Float.round (frac *. float_of_int (width * 8))) in
    let full = eighths / 8 and rem = eighths mod 8 in
    let partials = [| ""; "\xe2\x96\x8f"; "\xe2\x96\x8e"; "\xe2\x96\x8d";
                      "\xe2\x96\x8c"; "\xe2\x96\x8b"; "\xe2\x96\x8a"; "\xe2\x96\x89" |]
    in
    let b = Buffer.create width in
    for _ = 1 to full do
      Buffer.add_string b "\xe2\x96\x88"
    done;
    Buffer.add_string b partials.(rem);
    let used = full + if rem > 0 then 1 else 0 in
    Buffer.add_string b (String.make (width - used) ' ');
    Buffer.contents b
  end

let section title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line
