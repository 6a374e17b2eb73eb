module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Time = Horse_sim.Time_ns

type kind = Normal | Ull

type t = {
  id : int;
  cpu : Horse_cpu.Topology.cpu_id;
  mutable kind : kind;
  queue : Vcpu.t Al.t;
  load : Load_tracking.t;
  mutable attached : int;  (* paused sandboxes assigned here *)
  mutable events : int ref;  (* the attachers' maintenance counter *)
}

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
    attached = 0;
    events = ref 0;
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

(* §4.1.3 upkeep, counted: each mutation stands for one posA update
   per attached plan, which the plans themselves defer to their merge
   (their cache is keyed by the queue's version). *)
let mutated t = t.events := !(t.events) + t.attached

let enqueue t vcpu =
  let node, steps = Al.insert_sorted t.queue vcpu in
  Vcpu.set_state vcpu Vcpu.Queued;
  mutated t;
  (node, steps)

let dequeue t node =
  let vcpu = Al.value t.queue node in
  let pos = Al.remove_node t.queue node in
  Vcpu.set_state vcpu Vcpu.Offline;
  mutated t;
  pos

let pop_front t =
  match Al.pop_first t.queue with
  | None -> None
  | Some vcpu ->
    mutated t;
    Some vcpu

let attach t ~events =
  if t.attached > 0 && events != t.events then
    invalid_arg "Runqueue.attach: another maintenance counter";
  t.events <- events;
  t.attached <- t.attached + 1

let detach t =
  if t.attached = 0 then invalid_arg "Runqueue.detach: nothing attached";
  t.attached <- t.attached - 1

let attached t = t.attached

let apply_merge t ~plan ~source =
  (* [nodes] is the spliced handles in source order, captured before
     execute consumes the source (they survive the merge: slots are
     re-owned, not moved) *)
  let nodes = Al.handles source in
  let stats = Psm.Plan.execute plan ~target:t.queue ~source in
  detach t;
  for i = 0 to Array.length nodes - 1 do
    Vcpu.set_state (Al.value t.queue nodes.(i)) Vcpu.Queued
  done;
  (* one insert per spliced vCPU for each plan still attached *)
  t.events := !(t.events) + (t.attached * Array.length nodes);
  (stats, nodes)
