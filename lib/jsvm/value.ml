type t = int

let smi_min = -(1 lsl 30)
let smi_max = (1 lsl 30) - 1

let is_smi v = v land 1 = 0
let is_pointer v = v land 1 = 1

let smi_fits v = v >= smi_min && v <= smi_max

let smi v =
  if not (smi_fits v) then invalid_arg (Printf.sprintf "Value.smi: %d out of range" v);
  v lsl 1

let smi_value v =
  assert (is_smi v);
  v asr 1

let pointer idx =
  assert (idx >= 0);
  (idx lsl 1) lor 1

let pointer_index v =
  assert (is_pointer v);
  v asr 1

let zero = 0
let one = 2
