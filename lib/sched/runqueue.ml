module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Time = Horse_sim.Time_ns

type kind = Normal | Ull

type event = Inserted | Removed

type callback = event -> pos:int -> node:Al.handle -> unit

type subscription = int

type t = {
  id : int;
  cpu : Horse_cpu.Topology.cpu_id;
  mutable kind : kind;
  queue : Vcpu.t Al.t;
  load : Load_tracking.t;
  mutable sub_ids : int array;  (* ascending subscription ids *)
  mutable sub_fns : callback array;
  mutable nsubs : int;
  mutable next_subscription : int;
}

let no_callback : callback = fun _ ~pos:_ ~node:_ -> ()

let create ?arena ?(kind = Normal) ~cpu ~id () =
  let arena =
    match arena with
    | Some arena -> arena
    | None -> Al.create_arena ~compare:Vcpu.compare_credit ()
  in
  {
    id;
    cpu;
    kind;
    queue = Al.create arena;
    load = Load_tracking.create ();
    sub_ids = Array.make 4 0;
    sub_fns = Array.make 4 no_callback;
    nsubs = 0;
    next_subscription = 0;
  }

let id t = t.id

let cpu t = t.cpu

let kind t = t.kind

let is_ull t = t.kind = Ull

let set_kind t kind =
  if not (Al.is_empty t.queue) then
    invalid_arg "Runqueue.set_kind: queue not empty";
  t.kind <- kind

let timeslice t =
  match t.kind with Ull -> Time.span_us 1.0 | Normal -> Time.span_ms 10.0

let length t = Al.length t.queue

let queue t = t.queue

let arena t = Al.arena t.queue

let load t = t.load

(* Deterministic fan-out: subscription ids are handed out increasing
   and the arrays are kept in id order, so subscribers always fire
   ascending — unlike the Hashtbl this replaces.  Every argument is
   an immediate int (or constant constructor): no change record, no
   per-event closure. *)
let notify t ev ~pos ~node =
  for i = 0 to t.nsubs - 1 do
    (t.sub_fns.(i)) ev ~pos ~node
  done

let enqueue t vcpu =
  let node, steps = Al.insert_sorted t.queue vcpu in
  Vcpu.set_state vcpu Vcpu.Queued;
  notify t Inserted ~pos:steps ~node;
  (node, steps)

let dequeue t node =
  let vcpu = Al.value t.queue node in
  let pos = Al.remove_node t.queue node in
  Vcpu.set_state vcpu Vcpu.Offline;
  notify t Removed ~pos ~node;
  pos

let pop_front t =
  match Al.pop_first t.queue with
  | None -> None
  | Some vcpu ->
    notify t Removed ~pos:0 ~node:Al.nil;
    Some vcpu

let apply_merge t ~plan ~source =
  (* Captured before execute consumes the plan/source; [nodes] is the
     spliced handles in source order (they survive the merge: slots
     are re-owned, not moved). *)
  let keys, counts = Psm.Plan.keys_counts plan in
  let nodes = Al.handles source in
  let stats = Psm.Plan.execute plan ~target:t.queue ~source in
  (* Tell the remaining subscribers where every vCPU landed, phrased
     as sequential inserts: element j of the segment spliced at key k
     sits at position k + (elements spliced before this segment) + j.
     One pass, running offset — no per-segment length recount, no
     list accumulation. *)
  let offset = ref 0 in
  let cursor = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let key = keys.(i) and count = counts.(i) in
    for j = 0 to count - 1 do
      let node = nodes.(!cursor + j) in
      Vcpu.set_state (Al.value t.queue node) Vcpu.Queued;
      notify t Inserted ~pos:(key + !offset + j) ~node
    done;
    cursor := !cursor + count;
    offset := !offset + count
  done;
  (stats, nodes)

let subscribe t f =
  let s = t.next_subscription in
  t.next_subscription <- s + 1;
  if t.nsubs = Array.length t.sub_ids then begin
    let cap = 2 * t.nsubs in
    let ids = Array.make cap 0 and fns = Array.make cap no_callback in
    Array.blit t.sub_ids 0 ids 0 t.nsubs;
    Array.blit t.sub_fns 0 fns 0 t.nsubs;
    t.sub_ids <- ids;
    t.sub_fns <- fns
  end;
  t.sub_ids.(t.nsubs) <- s;
  t.sub_fns.(t.nsubs) <- f;
  t.nsubs <- t.nsubs + 1;
  s

let unsubscribe t s =
  let lo = ref 0 and hi = ref t.nsubs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.sub_ids.(mid) < s then lo := mid + 1 else hi := mid
  done;
  if !lo < t.nsubs && t.sub_ids.(!lo) = s then begin
    let i = !lo in
    Array.blit t.sub_ids (i + 1) t.sub_ids i (t.nsubs - i - 1);
    Array.blit t.sub_fns (i + 1) t.sub_fns i (t.nsubs - i - 1);
    t.nsubs <- t.nsubs - 1;
    t.sub_fns.(t.nsubs) <- no_callback (* drop the closure *)
  end

let subscriber_count t = t.nsubs
