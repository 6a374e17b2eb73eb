(* The original boxed-cell event queue, kept verbatim as the reference
   model for the flat {!Event_queue}: one heap-allocated cell per event,
   tombstoned on cancel and skimmed at pop time.  The property tests
   drive random op scripts through both implementations and require
   identical observable traces. *)

type 'a cell = {
  at : Time_ns.t;
  seq : int;
  payload : 'a;
  mutable live : bool;
}

type 'a t = {
  heap : 'a cell Binary_heap.t;
  mutable next_seq : int;
  mutable live_count : int;
}

type handle = H : 'a cell -> handle

let compare_cell a b =
  let c = Time_ns.compare a.at b.at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  { heap = Binary_heap.create ~compare:compare_cell (); next_seq = 0; live_count = 0 }

let schedule t ~at payload =
  let cell = { at; seq = t.next_seq; payload; live = true } in
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
  Binary_heap.push t.heap cell;
  H cell

let cancel t (H cell) =
  if cell.live then begin
    cell.live <- false;
    t.live_count <- t.live_count - 1;
    true
  end
  else false

(* Discard cancelled cells sitting at the top of the heap. *)
let rec skim t =
  match Binary_heap.peek t.heap with
  | Some cell when not cell.live ->
    ignore (Binary_heap.pop t.heap);
    skim t
  | _ -> ()

let next_time t =
  skim t;
  Option.map (fun cell -> cell.at) (Binary_heap.peek t.heap)

let pop t =
  skim t;
  match Binary_heap.pop t.heap with
  | None -> None
  | Some cell ->
    cell.live <- false;
    t.live_count <- t.live_count - 1;
    Some (cell.at, cell.payload)

let length t = t.live_count

let is_empty t = t.live_count = 0
