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
  mutable plans : Vcpu.t Psm.Plan.t array;  (* attach order *)
  mutable attached : int;
  mutable events : int ref;  (* the attachers' maintenance counter *)
}

(* Filler for the unused tail of [plans]; never read. *)
let no_plan : Vcpu.t Psm.Plan.t = Obj.magic 0

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
    plans = Array.make 4 no_plan;
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

(* §4.1.3 upkeep, eager: every attached plan hears of every mutation,
   in attach order, and the counter grows by the number of plans told.
   Immediate arguments only — nothing is allocated per mutation. *)
let note_insert t ~pos vcpu =
  for i = 0 to t.attached - 1 do
    Psm.Plan.note_target_insert t.plans.(i) ~pos vcpu
  done;
  t.events := !(t.events) + t.attached

let note_remove t ~pos =
  for i = 0 to t.attached - 1 do
    Psm.Plan.note_target_remove t.plans.(i) ~pos
  done;
  t.events := !(t.events) + t.attached

let enqueue t vcpu =
  let node, steps = Al.insert_sorted t.queue vcpu in
  Vcpu.set_state vcpu Vcpu.Queued;
  note_insert t ~pos:steps vcpu;
  (node, steps)

let dequeue t node =
  let vcpu = Al.value t.queue node in
  let pos = Al.remove_node t.queue node in
  Vcpu.set_state vcpu Vcpu.Offline;
  note_remove t ~pos;
  pos

let pop_front t =
  match Al.pop_first t.queue with
  | None -> None
  | Some vcpu ->
    note_remove t ~pos:0;
    Some vcpu

let attach t ~events plan =
  if t.attached > 0 && events != t.events then
    invalid_arg "Runqueue.attach: another maintenance counter";
  t.events <- events;
  if t.attached = Array.length t.plans then begin
    let plans = Array.make (2 * t.attached) no_plan in
    Array.blit t.plans 0 plans 0 t.attached;
    t.plans <- plans
  end;
  t.plans.(t.attached) <- plan;
  t.attached <- t.attached + 1

let detach t plan =
  let i = ref 0 in
  while !i < t.attached && t.plans.(!i) != plan do
    incr i
  done;
  if !i < t.attached then begin
    Array.blit t.plans (!i + 1) t.plans !i (t.attached - !i - 1);
    t.attached <- t.attached - 1;
    t.plans.(t.attached) <- no_plan (* drop the plan *)
  end

let attached t = t.attached

let apply_merge t ~plan ~source =
  detach t plan;
  (* Captured before execute consumes the plan/source; [nodes] is the
     spliced handles in source order (they survive the merge: slots
     are re-owned, not moved). *)
  let keys, counts = Psm.Plan.keys_counts plan in
  let nodes = Al.handles source in
  let stats = Psm.Plan.execute plan ~target:t.queue ~source in
  (* Tell the plans still attached where every vCPU landed, phrased
     as sequential inserts: element j of the segment spliced at key k
     sits at position k + (elements spliced before this segment) + j.
     One pass, running offset — no per-segment length recount, no
     list accumulation. *)
  let offset = ref 0 in
  let cursor = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let key = keys.(i) and count = counts.(i) in
    for j = 0 to count - 1 do
      let vcpu = Al.value t.queue nodes.(!cursor + j) in
      Vcpu.set_state vcpu Vcpu.Queued;
      note_insert t ~pos:(key + !offset + j) vcpu
    done;
    cursor := !cursor + count;
    offset := !offset + count
  done;
  (stats, nodes)
