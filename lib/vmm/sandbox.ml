module Vcpu = Horse_sched.Vcpu
module Runqueue = Horse_sched.Runqueue
module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm

type state = Created | Booting | Running | Paused | Stopped | Crashed

type strategy = Vanilla | Ppsm | Coal | Horse

let strategy_name = function
  | Vanilla -> "vanil"
  | Ppsm -> "ppsm"
  | Coal -> "coal"
  | Horse -> "horse"

let strategy_code = function Vanilla -> 0 | Ppsm -> 1 | Coal -> 2 | Horse -> 3

let strategies = [| Vanilla; Ppsm; Coal; Horse |]

type psm_state = {
  merge_vcpus : Vcpu.t Al.t;
  ull_queue : Runqueue.t;
  plan : Vcpu.t Psm.Plan.t;
}

type paused =
  | Paused_vanilla
  | Paused_coal of Horse_coalesce.Coalesce.Precomputed.t
  | Paused_ppsm of psm_state
  | Paused_horse of psm_state * Horse_coalesce.Coalesce.Precomputed.t

type t = {
  id : int;
  vcpus : Vcpu.t array;
  memory_mb : int;
  ull : bool;
  mutable state : state;
  (* allocated by the first placement, then written in place *)
  mutable nodes : Al.handle array;
  mutable queues : Runqueue.t array;
  mutable paused : paused option;
}

let create ~id ~vcpus ~memory_mb ?(ull = false) () =
  if vcpus <= 0 then invalid_arg "Sandbox.create: vcpus must be positive";
  if memory_mb <= 0 then invalid_arg "Sandbox.create: memory must be positive";
  {
    id;
    vcpus = Array.init vcpus (fun index -> Vcpu.create ~sandbox:id ~index ());
    memory_mb;
    ull;
    state = Created;
    nodes = [||];
    queues = [||];
    paused = None;
  }

let id t = t.id

let vcpus t = t.vcpus

let vcpu_count t = Array.length t.vcpus

let memory_mb t = t.memory_mb

let is_ull t = t.ull

let state t = t.state

let set_state t s = t.state <- s

let nodes t = t.nodes

let queues t = t.queues

let place t i node queue =
  if Array.length t.nodes = 0 then begin
    t.nodes <- Array.make (vcpu_count t) node;
    t.queues <- Array.make (vcpu_count t) queue
  end;
  t.nodes.(i) <- node;
  t.queues.(i) <- queue

let place_all t nodes queue =
  if Array.length t.queues = 0 then t.queues <- Array.make (vcpu_count t) queue
  else Array.fill t.queues 0 (vcpu_count t) queue;
  t.nodes <- nodes

let paused t = t.paused

let set_paused t p = t.paused <- p

(* Rough per-entry sizes in bytes: an arrayB slot is one handle, a
   plan segment is two array cells (key and count), a merge_vcpus
   element is its share of the arena's parallel arrays.  The constants
   predate the arena representation and are kept as-is: the absolute
   number only feeds the §5.2 memory report, which must stay
   comparable across revisions — so a segment is still billed 48
   bytes (sized for the small boxed record it once was), and arrayB
   is still billed per paused sandbox, one slot per queued vCPU,
   although the queue's order buffer is shared. *)
let horse_memory_footprint_bytes t =
  match t.paused with
  | None | Some (Paused_vanilla | Paused_coal _) -> 0
  | Some (Paused_ppsm h | Paused_horse (h, _)) ->
    let index_bytes = 8 * Runqueue.length h.ull_queue in
    let plan_bytes = 48 * Psm.Plan.key_count h.plan in
    let merge_bytes = 24 * Al.length h.merge_vcpus in
    index_bytes + plan_bytes + merge_bytes + 64

let pp ppf t =
  let state_name =
    match t.state with
    | Created -> "created"
    | Booting -> "booting"
    | Running -> "running"
    | Paused -> "paused"
    | Stopped -> "stopped"
    | Crashed -> "crashed"
  in
  Format.fprintf ppf "sandbox<%d %dvcpu %dMB%s %s>" t.id (vcpu_count t)
    t.memory_mb
    (if t.ull then " uLL" else "")
    state_name
