module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Rng = Horse_sim.Rng
module Cost_model = Horse_cpu.Cost_model
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Load_tracking = Horse_sched.Load_tracking
module Vcpu = Horse_sched.Vcpu
module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Coalesce = Horse_coalesce.Coalesce
module Fault = Horse_fault.Fault

let log_src = Horse_sim.Logging.src "vmm"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Invalid_state of string

type breakdown = {
  parse_ns : float;
  lock_ns : float;
  sanity_ns : float;
  merge_ns : float;
  load_ns : float;
  finalize_ns : float;
}

let breakdown_total_ns b =
  b.parse_ns +. b.lock_ns +. b.sanity_ns +. b.merge_ns +. b.load_ns
  +. b.finalize_ns

type resume_result = {
  total : Time.span;
  breakdown : breakdown;
  strategy : Sandbox.strategy;
  merge_threads : int;
  preempted_cpus : int list;
}

type t = {
  cost : Cost_model.t;
  jitter : float;
  rng : Rng.t;
  scheduler : Scheduler.t;
  metrics : Metrics.t;
  faults : Fault.Plan.t;
  (* per-strategy handles, indexed by Sandbox.strategy_code: pause and
     resume sit on the warm trigger path, so no per-call sprintf or
     string hashing *)
  pauses_c : int ref array;
  resumes_c : int ref array;
}

let create ?(cost = Cost_model.firecracker) ?(jitter = 0.02) ?(seed = 7)
    ?(faults = Fault.Plan.none) ~scheduler ~metrics () =
  if jitter < 0.0 || jitter > 0.5 then
    invalid_arg "Vmm.create: jitter outside [0, 0.5]";
  Fault.Plan.attach_metrics faults metrics;
  let by_strategy fmt f =
    Array.map
      (fun s -> f metrics (Printf.sprintf fmt (Sandbox.strategy_name s)))
      Sandbox.strategies
  in
  {
    cost;
    jitter;
    rng = Rng.create ~seed;
    scheduler;
    metrics;
    faults;
    pauses_c = by_strategy "vmm.pauses.%s" Metrics.counter_ref;
    resumes_c = by_strategy "vmm.resumes.%s" Metrics.counter_ref;
  }

let cost t = t.cost

let faults t = t.faults

let scheduler t = t.scheduler

let jittered t ns =
  let factor =
    if t.jitter = 0.0 then 1.0
    else 1.0 -. t.jitter +. Rng.float t.rng (2.0 *. t.jitter)
  in
  Time.span_ns (int_of_float (Float.round (Float.max 0.0 (ns *. factor))))

let require_state sandbox expected message =
  if not (List.mem (Sandbox.state sandbox) expected) then
    raise (Invalid_state message)

(* Remove the sandbox's vCPUs from their queues; each dequeue counts
   the upkeep of the plans attached to that queue. *)
let evacuate t sandbox =
  let walked = ref 0 in
  List.iter
    (fun { Sandbox.node; queue; _ } ->
      walked := !walked + Runqueue.dequeue queue node;
      Load_tracking.on_dequeue (Runqueue.load queue))
    (Sandbox.placements sandbox);
  Sandbox.set_placements sandbox [];
  ignore t;
  !walked

(* Release everything a live sandbox holds in the scheduler: queue
   slots if Running, the P²SM pause-state if Paused.  Draining
   [merge_vcpus] matters: its nodes live in the shared run-queue
   arena, so dropping the list without popping would leak their slots
   (and leave stale-but-unreclaimed generations behind). *)
let teardown t sandbox =
  if Sandbox.state sandbox = Sandbox.Running then ignore (evacuate t sandbox);
  (match Sandbox.paused sandbox with
  | Some (Sandbox.Paused_ppsm ps | Sandbox.Paused_horse (ps, _)) ->
    Runqueue.detach ps.Sandbox.ull_queue;
    while Al.pop_first ps.Sandbox.merge_vcpus <> None do
      ()
    done
  | Some (Sandbox.Paused_vanilla | Sandbox.Paused_coal _) | None -> ());
  Sandbox.set_paused sandbox None

(* An injected fault killed the sandbox: release its scheduler state
   and mark it [Crashed] — unlike [stop], a crashed sandbox is never
   reused, and the caller decides what latency the failed operation
   burned. *)
let crash t sandbox =
  teardown t sandbox;
  Sandbox.set_state sandbox Sandbox.Crashed;
  Metrics.incr t.metrics "vmm.crashes"

let inject t sandbox ~trigger ~site ~cost_ns =
  crash t sandbox;
  raise (Fault.Injected { trigger; site; cost = jittered t cost_ns })

(* Place every vCPU on the least-loaded normal queue, as a fresh boot
   or a snapshot restore does. *)
let place_on_normal_queues t sandbox =
  let placements =
    Array.to_list
      (Array.map
         (fun vcpu ->
           let queue = Scheduler.select_normal t.scheduler in
           let node, _steps = Runqueue.enqueue queue vcpu in
           Load_tracking.on_enqueue (Runqueue.load queue);
           { Sandbox.vcpu; node; queue })
         (Sandbox.vcpus sandbox))
  in
  Sandbox.set_placements sandbox placements

let boot t sandbox =
  require_state sandbox [ Sandbox.Created; Sandbox.Stopped ]
    "boot: sandbox already started";
  Sandbox.set_state sandbox Sandbox.Booting;
  place_on_normal_queues t sandbox;
  Sandbox.set_state sandbox Sandbox.Running;
  Metrics.incr t.metrics "vmm.boots";
  if Horse_sim.Logging.debug_enabled log_src then
    Log.debug (fun m -> m "boot %a" Sandbox.pp sandbox);
  jittered t t.cost.Cost_model.cold_boot_ns

let restore t sandbox =
  require_state sandbox [ Sandbox.Created; Sandbox.Stopped ]
    "restore: sandbox already started";
  (* corruption is detected by the integrity check after the snapshot
     is loaded: the full restore latency is already burned *)
  if Fault.Plan.fires t.faults Fault.Restore_corruption then
    inject t sandbox ~trigger:Fault.Restore_corruption ~site:"vmm.restore"
      ~cost_ns:t.cost.Cost_model.restore_ns;
  Sandbox.set_state sandbox Sandbox.Booting;
  place_on_normal_queues t sandbox;
  Sandbox.set_state sandbox Sandbox.Running;
  Metrics.incr t.metrics "vmm.restores";
  jittered t t.cost.Cost_model.restore_ns

let pelt = Coalesce.Affine.pelt

let make_precomputed n =
  Coalesce.Precomputed.make ~alpha:pelt.Coalesce.Affine.alpha
    ~beta:pelt.Coalesce.Affine.beta ~n

(* Pause-side setup of the §4.1.3 structures: merge_vcpus and posA,
   attached to the queue posA targets (arrayB is the queue's own order
   buffer and needs no upkeep; posA is computed when first read). *)
let build_psm_state t sandbox =
  let ull_queue = Scheduler.select_ull_for_pause t.scheduler in
  (* merge_vcpus lives in the queue's arena: the eventual splice is
     slot surgery, not a copy. *)
  let merge_vcpus = Al.create (Runqueue.arena ull_queue) in
  Array.iter
    (fun vcpu -> ignore (Al.insert_sorted merge_vcpus vcpu))
    (Sandbox.vcpus sandbox);
  let plan =
    Psm.Plan.build ~source:merge_vcpus ~target:(Runqueue.queue ull_queue)
  in
  Runqueue.attach ull_queue
    ~events:(Metrics.counter_ref t.metrics "psm.maintenance_events");
  { Sandbox.merge_vcpus; ull_queue; plan }

let pause t ~strategy sandbox =
  require_state sandbox [ Sandbox.Running ] "pause: sandbox not running";
  if Fault.Plan.fires t.faults Fault.Pause_crash then
    inject t sandbox ~trigger:Fault.Pause_crash ~site:"vmm.pause"
      ~cost_ns:t.cost.Cost_model.pause_base_ns;
  let c = t.cost in
  let n = Sandbox.vcpu_count sandbox in
  let walked = evacuate t sandbox in
  Array.iter (fun v -> Vcpu.set_state v Vcpu.Paused) (Sandbox.vcpus sandbox);
  let base =
    c.Cost_model.pause_base_ns
    +. (float_of_int walked *. c.Cost_model.merge_walk_node_ns)
  in
  let paused, extra =
    match strategy with
    | Sandbox.Vanilla -> (Sandbox.Paused_vanilla, 0.0)
    | Sandbox.Coal ->
      ( Sandbox.Paused_coal (make_precomputed n),
        c.Cost_model.coalesce_precompute_ns )
    | Sandbox.Ppsm ->
      ( Sandbox.Paused_ppsm (build_psm_state t sandbox),
        float_of_int n *. c.Cost_model.pause_sort_vcpu_ns )
    | Sandbox.Horse ->
      let ps = build_psm_state t sandbox in
      ( Sandbox.Paused_horse (ps, make_precomputed n),
        (float_of_int n *. c.Cost_model.pause_sort_vcpu_ns)
        +. c.Cost_model.coalesce_precompute_ns )
  in
  Sandbox.set_paused sandbox (Some paused);
  Sandbox.set_state sandbox Sandbox.Paused;
  let cnt = t.pauses_c.(Sandbox.strategy_code strategy) in
  cnt := !cnt + 1;
  if Horse_sim.Logging.debug_enabled log_src then
    Log.debug (fun m ->
        m "pause %a strategy=%s" Sandbox.pp sandbox
          (Sandbox.strategy_name strategy));
  jittered t (base +. extra)

(* Step ④, vanilla flavour: one sorted insert per vCPU, in vCPU
   order, into the least-loaded normal queue. *)
let vanilla_merge t sandbox =
  let c = t.cost in
  let merge_ns = ref c.Cost_model.runq_fetch_ns in
  let placements =
    Array.to_list
      (Array.map
         (fun vcpu ->
           let queue = Scheduler.select_normal t.scheduler in
           let node, steps = Runqueue.enqueue queue vcpu in
           merge_ns :=
             !merge_ns +. c.Cost_model.runq_select_ns
             +. (float_of_int (steps + 1) *. c.Cost_model.merge_walk_node_ns)
             +. c.Cost_model.merge_link_ns;
           { Sandbox.vcpu; node; queue })
         (Sandbox.vcpus sandbox))
  in
  (placements, !merge_ns)

(* Step ④, P²SM flavour: one splice of the pre-sorted [merge_vcpus]
   into the assigned ull_runqueue at the maintained posA; returns the
   merge threads spawned. *)
let psm_merge sandbox ps =
  let stats, nodes =
    Runqueue.apply_merge ps.Sandbox.ull_queue ~plan:ps.Sandbox.plan
      ~source:ps.Sandbox.merge_vcpus
  in
  let queue = Runqueue.queue ps.Sandbox.ull_queue in
  Sandbox.set_placements sandbox
    (Array.fold_right
       (fun node acc ->
         { Sandbox.vcpu = Al.value queue node; node;
           queue = ps.Sandbox.ull_queue }
         :: acc)
       nodes []);
  stats.Psm.Plan.threads

let distinct_queues placements =
  List.fold_left
    (fun acc { Sandbox.queue; _ } ->
      if List.exists (fun q -> Runqueue.id q = Runqueue.id queue) acc then acc
      else queue :: acc)
    [] placements

let sample_cpus t count =
  List.init count (fun _ ->
      Rng.int t.rng (Topology.cpu_count (Scheduler.topology t.scheduler)))

let resume t sandbox =
  (* the lifecycle check: only a paused sandbox holds resume state *)
  let paused =
    match Sandbox.paused sandbox with
    | Some p -> p
    | None -> raise (Invalid_state "resume: sandbox not paused")
  in
  let c = t.cost in
  let n = Sandbox.vcpu_count sandbox in
  let parse_ns = c.Cost_model.parse_ns in
  let lock_ns = c.Cost_model.lock_acquire_ns in
  let sanity_ns = c.Cost_model.sanity_check_ns in
  (* a crash mid-resume surfaces at the step-③ sanity check — before
     the merge touches any queue, so teardown leaves the run queues
     exactly as they were *)
  if Fault.Plan.fires t.faults Fault.Resume_crash then
    inject t sandbox ~trigger:Fault.Resume_crash ~site:"vmm.resume"
      ~cost_ns:(parse_ns +. lock_ns +. sanity_ns);
  let finalize_ns = c.Cost_model.lock_release_ns +. c.Cost_model.state_change_ns in
  let vanilla_load_ns =
    c.Cost_model.load_first_touch_ns
    +. (float_of_int n *. c.Cost_model.load_update_ns)
  in
  let psm_merge_ns =
    c.Cost_model.psm_thread_wake_ns +. c.Cost_model.psm_splice_ns
    +. c.Cost_model.horse_bookkeeping_ns
  in
  let global_load = Scheduler.global_load t.scheduler in
  let strategy, merge_ns, load_ns, merge_threads =
    match paused with
    | Sandbox.Paused_vanilla ->
      let placements, merge_ns = vanilla_merge t sandbox in
      Sandbox.set_placements sandbox placements;
      List.iter
        (fun { Sandbox.queue; _ } ->
          Load_tracking.on_enqueue (Runqueue.load queue);
          Load_tracking.on_enqueue global_load)
        placements;
      (Sandbox.Vanilla, merge_ns, vanilla_load_ns, 0)
    | Sandbox.Paused_coal pre ->
      let placements, merge_ns = vanilla_merge t sandbox in
      Sandbox.set_placements sandbox placements;
      (* per-queue loads: one coalesced update per distinct target
         queue, covering all of its k insertions at once *)
      List.iter
        (fun queue ->
          let k =
            List.length
              (List.filter
                 (fun { Sandbox.queue = q; _ } -> Runqueue.id q = Runqueue.id queue)
                 placements)
          in
          Load_tracking.on_enqueue_coalesced (Runqueue.load queue)
            (make_precomputed k))
        (distinct_queues placements);
      (* the lock-protected global variable: a single coalesced write *)
      Load_tracking.on_enqueue_coalesced global_load pre;
      (Sandbox.Coal, merge_ns, c.Cost_model.coalesce_apply_ns, 0)
    | Sandbox.Paused_ppsm ps ->
      let threads = psm_merge sandbox ps in
      let load_tracker = Runqueue.load ps.Sandbox.ull_queue in
      for _ = 1 to n do
        Load_tracking.on_enqueue load_tracker;
        Load_tracking.on_enqueue global_load
      done;
      (Sandbox.Ppsm, psm_merge_ns, vanilla_load_ns, threads)
    | Sandbox.Paused_horse (ps, pre) ->
      let threads = psm_merge sandbox ps in
      Load_tracking.on_enqueue_coalesced
        (Runqueue.load ps.Sandbox.ull_queue)
        pre;
      Load_tracking.on_enqueue_coalesced global_load pre;
      (Sandbox.Horse, psm_merge_ns, c.Cost_model.coalesce_apply_ns, threads)
  in
  Sandbox.set_paused sandbox None;
  Sandbox.set_state sandbox Sandbox.Running;
  let breakdown =
    { parse_ns; lock_ns; sanity_ns; merge_ns; load_ns; finalize_ns }
  in
  (* a straggler vCPU stretches the whole resume by the plan's factor
     (the breakdown keeps the nominal step costs) *)
  let total_ns =
    if Fault.Plan.fires t.faults Fault.Vcpu_slowdown then
      breakdown_total_ns breakdown *. Fault.Plan.slowdown t.faults
    else breakdown_total_ns breakdown
  in
  let total = jittered t total_ns in
  let code = Sandbox.strategy_code strategy in
  let cnt = t.resumes_c.(code) in
  cnt := !cnt + 1;
  if Horse_sim.Logging.debug_enabled log_src then
    Log.debug (fun m ->
        m "resume %a strategy=%s total=%dns threads=%d" Sandbox.pp sandbox
          (Sandbox.strategy_name strategy)
          (Time.span_to_ns total) merge_threads);
  {
    total;
    breakdown;
    strategy;
    merge_threads;
    preempted_cpus = sample_cpus t merge_threads;
  }

let stop t sandbox =
  teardown t sandbox;
  Sandbox.set_state sandbox Sandbox.Stopped;
  Metrics.incr t.metrics "vmm.stops"

let dispatch_overhead t ~strategy =
  match strategy with
  | Sandbox.Horse -> Time.span_zero
  | Sandbox.Vanilla | Sandbox.Ppsm | Sandbox.Coal ->
    jittered t t.cost.Cost_model.dispatch_ns

let maintenance_cost t ~events =
  if events < 0 then invalid_arg "Vmm.maintenance_cost: negative events";
  Time.span_ns
    (int_of_float
       (Float.round (float_of_int events *. t.cost.Cost_model.posa_update_ns)))
