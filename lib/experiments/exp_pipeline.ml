let flowchart =
  {|
   JavaScript source
        |
        v  (parser)
   +-----------+   type feedback    +--------------------------+
   | bytecode  | -----------------> | TurboFan-style optimizer |
   +-----------+                    |  graph IR (+ checks)     |
        |                           |  reductions, DCE         |
        v                           |  regalloc, codegen       |
   interpreter  <---- deopt ------  +--------------------------+
   (Ignition)        (bailout)            |
        |                                 v
        |                           machine code on the
        +----- hot-function ---->   simulated CPU (X64 / ARM64
              tier-up               / ARM64+jsldrsmi)
|}

let sample_source =
  {|
function dot(a, b, n) {
  var s = 0;
  for (var i = 0; i < n; i++) s = s + a[i] * b[i];
  return s;
}
var xs = [1, 2, 3, 4, 5, 6, 7, 8];
function bench() { return dot(xs, xs, 8) % 16777213; }
|}

let fig2 () =
  Support.Table.section "Fig 2: compilation pipeline and code representations";
  print_string flowchart;
  Common.degraded "fig2" @@ fun () ->
  let config = Common.config_for ~arch:Arch.Arm64 ~seed:1 Common.V_normal in
  let eng = Engine.create config sample_source in
  Harness.drive eng ~calls:20;
  let rt = Engine.runtime eng in
  let h = rt.Runtime.heap in
  let v = Heap.cell_value h (Heap.global_cell h "dot") in
  if Heap.is_function h v then begin
    let fid = Heap.function_id_of h v in
    let f = Runtime.func rt fid in
    print_endline "\n=== representation 1: bytecode (interpreter tier) ===";
    print_string (Bytecode.disassemble f.Runtime.info);
    print_endline "=== representation 2: optimizer graph IR ===";
    (match Engine.graph_of_fid eng fid with
    | Some g -> print_string (Turbofan.Son.to_string g)
    | None -> print_endline "(not compiled)");
    print_endline "=== representation 3: machine code ===";
    match Engine.code_of_fid eng fid with
    | Some code -> print_string (Code.listing code)
    | None -> print_endline "(not compiled)"
  end
