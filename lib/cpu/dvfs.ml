type governor = Performance | Powersave | Schedutil

type t = {
  governor : governor;
  topology : Topology.t;
  current : int array;  (* ladder index per logical CPU *)
  mutable transitions : int;
}

(* The modelled P-state ladder of the Xeon 8360Y: 800 MHz to the
   2400 MHz nominal plus a 3500 MHz single-core turbo step. *)
let ladder_mhz = [| 800; 1000; 1200; 1400; 1600; 1800; 2000; 2200; 2400; 3500 |]

let top_index = Array.length ladder_mhz - 1

let initial_index = function
  | Performance -> top_index
  | Powersave -> 0
  | Schedutil -> 0

let create ?(governor = Performance) ~topology () =
  {
    governor;
    topology;
    current = Array.make (Topology.cpu_count topology) (initial_index governor);
    transitions = 0;
  }

let governor t = t.governor

let check t cpu =
  if cpu < 0 || cpu >= Array.length t.current then
    invalid_arg "Dvfs: cpu id out of range"

let frequency_mhz t ~cpu =
  check t cpu;
  ladder_mhz.(t.current.(cpu))

let set_index t cpu idx =
  if t.current.(cpu) <> idx then begin
    t.current.(cpu) <- idx;
    t.transitions <- t.transitions + 1
  end

(* schedutil: target = 1.25 * f_nominal * util, snapped up to the next
   ladder step (the kernel rounds up so the CPU is never too slow). *)
let schedutil_index ~nominal_mhz util =
  let target = 1.25 *. float_of_int nominal_mhz *. util in
  let rec find i =
    if i >= top_index then top_index
    else if float_of_int ladder_mhz.(i) >= target then i
    else find (i + 1)
  in
  find 0

let note_utilisation t ~cpu util =
  check t cpu;
  if util < 0.0 || util > 1.0 then
    invalid_arg "Dvfs.note_utilisation: utilisation outside [0,1]";
  match t.governor with
  | Performance | Powersave -> ()
  | Schedutil ->
    let nominal_mhz = Topology.base_frequency_mhz t.topology in
    set_index t cpu (schedutil_index ~nominal_mhz util)

let transitions t = t.transitions

let speed_factor t ~cpu =
  check t cpu;
  float_of_int (frequency_mhz t ~cpu)
  /. float_of_int (Topology.base_frequency_mhz t.topology)
