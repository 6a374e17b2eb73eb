type t = { counters : (string, int ref) Hashtbl.t }

let create () = { counters = Hashtbl.create 32 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let incr t ?(by = 1) name =
  let r = counter_ref t name in
  r := !r + by

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
