type 'a node = { v : 'a; mutable next : 'a node option }

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable head : 'a node option;
  mutable len : int;
}

let create ~compare () = { compare; head = None; len = 0 }

let compare_fn t = t.compare

let length t = t.len

let is_empty t = t.len = 0

let first t = t.head

let next node = node.next

let value node = node.v

(* Stable insert: walk past every element <= x so equal elements keep
   FIFO order, as a run queue requires. *)
let insert_sorted t x =
  let node = { v = x; next = None } in
  let rec walk prev steps =
    match (match prev with None -> t.head | Some p -> p.next) with
    | Some cur when t.compare cur.v x <= 0 -> walk (Some cur) (steps + 1)
    | tail ->
      node.next <- tail;
      (match prev with None -> t.head <- Some node | Some p -> p.next <- Some node);
      steps
  in
  let steps = walk None 0 in
  t.len <- t.len + 1;
  (node, steps)

let remove_node t target =
  let rec walk prev steps =
    match (match prev with None -> t.head | Some p -> p.next) with
    | None -> raise Not_found
    | Some cur when cur == target ->
      (match prev with
      | None -> t.head <- cur.next
      | Some p -> p.next <- cur.next);
      cur.next <- None;
      t.len <- t.len - 1;
      steps
    | Some cur -> walk (Some cur) (steps + 1)
  in
  walk None 0

let pop_first t =
  match t.head with
  | None -> None
  | Some node ->
    t.head <- node.next;
    node.next <- None;
    t.len <- t.len - 1;
    Some node.v

let nth_node t i =
  if i < 0 || i >= t.len then invalid_arg "Linked_list.nth_node: out of range";
  let rec walk node i =
    match (node, i) with
    | Some n, 0 -> n
    | Some n, i -> walk n.next (i - 1)
    | None, _ -> assert false
  in
  walk t.head i

let fold f acc t =
  let rec walk acc = function
    | None -> acc
    | Some node -> walk (f acc node.v) node.next
  in
  walk acc t.head

let iter f t = fold (fun () x -> f x) () t

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

let of_sorted_list ~compare xs =
  let rec check = function
    | a :: (b :: _ as rest) ->
      if compare a b > 0 then
        invalid_arg "Linked_list.of_sorted_list: input not sorted";
      check rest
    | [ _ ] | [] -> ()
  in
  check xs;
  let t = create ~compare () in
  let rec build = function
    | [] -> None
    | x :: rest ->
      let node = { v = x; next = build rest } in
      Some node
  in
  t.head <- build xs;
  t.len <- List.length xs;
  t

let is_sorted t =
  let rec walk = function
    | Some a -> (
      match a.next with
      | Some b -> t.compare a.v b.v <= 0 && walk a.next
      | None -> true)
    | None -> true
  in
  walk t.head

let pp pp_elt ppf t =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_elt)
    (to_list t)
