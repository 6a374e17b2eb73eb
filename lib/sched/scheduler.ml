module Topology = Horse_cpu.Topology

type t = {
  topology : Topology.t;
  arena : Vcpu.t Horse_psm.Arena_list.arena;
  queues : Runqueue.t array;
  mutable ull : Runqueue.t list;
  global_load : Load_tracking.t;
}

let create ?(ull_count = 1) ~topology () =
  let n = Topology.cpu_count topology in
  if ull_count < 0 || ull_count > n then
    invalid_arg "Scheduler.create: bad ull_count";
  (* One arena for every queue (and for the merge_vcpus of sandboxes
     pausing against them): P²SM can only splice lists that share
     slot storage. *)
  let arena =
    Horse_psm.Arena_list.create_arena ~capacity:64
      ~compare:Vcpu.compare_credit ()
  in
  let queues =
    Array.init n (fun cpu -> Runqueue.create ~arena ~cpu ~id:cpu ())
  in
  (* Reserve the highest-numbered CPUs: they are the farthest from CPU
     0 where the control plane runs. *)
  let ull =
    List.init ull_count (fun i ->
        let q = queues.(n - 1 - i) in
        Runqueue.set_kind q Runqueue.Ull;
        q)
  in
  {
    topology;
    arena;
    queues;
    ull;
    global_load = Load_tracking.create ();
  }

let topology t = t.topology

let arena t = t.arena

let cpu_count t = Array.length t.queues

let runqueue t ~cpu =
  if cpu < 0 || cpu >= Array.length t.queues then
    invalid_arg "Scheduler.runqueue: cpu out of range";
  t.queues.(cpu)

let runqueues t = t.queues

let ull_runqueues t = t.ull

let add_ull_runqueue t =
  let candidate =
    Array.fold_left
      (fun acc q ->
        if Runqueue.is_ull q || Runqueue.length q > 0 then acc
        else
          match acc with
          | Some best when Runqueue.id best >= Runqueue.id q -> acc
          | Some _ | None -> Some q)
      None t.queues
  in
  match candidate with
  | None -> invalid_arg "Scheduler.add_ull_runqueue: no empty normal queue"
  | Some q ->
    Runqueue.set_kind q Runqueue.Ull;
    t.ull <- q :: t.ull;
    q

let select_normal t =
  let better q best =
    let lq = Load_tracking.load (Runqueue.load q)
    and lb = Load_tracking.load (Runqueue.load best) in
    if lq < lb then true
    else if lq > lb then false
    else Runqueue.length q < Runqueue.length best
  in
  let best =
    Array.fold_left
      (fun acc q ->
        if Runqueue.is_ull q then acc
        else
          match acc with
          | None -> Some q
          | Some b -> if better q b then Some q else acc)
      None t.queues
  in
  match best with
  | Some q -> q
  | None -> invalid_arg "Scheduler.select_normal: every queue is reserved"

let select_ull_for_pause t =
  match t.ull with
  | [] -> invalid_arg "Scheduler.select_ull_for_pause: no ull_runqueue"
  | first :: rest ->
    List.fold_left
      (fun best q ->
        if Runqueue.attached q < Runqueue.attached best then q else best)
      first rest

let global_load t = t.global_load

let total_queued t =
  Array.fold_left (fun acc q -> acc + Runqueue.length q) 0 t.queues
