let standard_size = 3000

let indexes_above arr ~threshold =
  let acc = ref [] in
  for i = Array.length arr - 1 downto 0 do
    if arr.(i) > threshold then acc := i :: !acc
  done;
  !acc

(* annotated: an unconstrained [>] is the polymorphic compare, an
   external call per element *)
let count_above (arr : int array) ~(threshold : int) =
  let n = ref 0 in
  for i = 0 to Array.length arr - 1 do
    if arr.(i) > threshold then incr n
  done;
  !n

let sample_input ~seed ~size =
  let rng = Horse_sim.Rng.create ~seed in
  Array.init size (fun _ -> Horse_sim.Rng.int rng 10_000)
