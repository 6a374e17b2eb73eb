module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Fault = Horse_fault.Fault

let log_src = Horse_sim.Logging.src "platform"

module Log = (val Logs.src_log log_src : Logs.LOG)

type start_mode = Cold | Restore | Warm of Sandbox.strategy

let mode_name = function
  | Cold -> "cold"
  | Restore -> "restore"
  | Warm strategy -> "warm-" ^ Sandbox.strategy_name strategy

(* Dense start-mode codes for the trigger-record arena's mode column
   and the per-mode metric-handle arrays. *)
let mode_count = 6

let mode_code = function
  | Cold -> 0
  | Restore -> 1
  | Warm Sandbox.Vanilla -> 2
  | Warm Sandbox.Ppsm -> 3
  | Warm Sandbox.Coal -> 4
  | Warm Sandbox.Horse -> 5

(* decode through a preallocated table so iterating the arena never
   allocates a [Warm _] block *)
let mode_table =
  [|
    Cold;
    Restore;
    Warm Sandbox.Vanilla;
    Warm Sandbox.Ppsm;
    Warm Sandbox.Coal;
    Warm Sandbox.Horse;
  |]

let mode_of_code i =
  if i < 0 || i >= mode_count then invalid_arg "Platform.mode_of_code";
  mode_table.(i)

type record = {
  function_name : string;
  mode : start_mode;
  triggered_at : Time.t;
  init : Time.span;
  exec : Time.span;
  preemption : Time.span;
  completed_at : Time.t;
}

let record_total r = Time.add_span r.init (Time.add_span r.exec r.preemption)

exception No_warm_sandbox of string

exception Unknown_function of string

module Recovery = struct
  type t = {
    max_attempts : int;
    backoff : Time.span;
    degrade : bool;
    warm_timeout : Time.span option;
    restore_timeout : Time.span option;
    cold_timeout : Time.span option;
  }

  let none =
    {
      max_attempts = 1;
      backoff = Time.span_zero;
      degrade = false;
      warm_timeout = None;
      restore_timeout = None;
      cold_timeout = None;
    }

  let default =
    {
      max_attempts = 4;
      backoff = Time.span_ms 1.0;
      degrade = true;
      (* each watchdog sits well above its rung's healthy worst case
         (vanilla warm resume ≲ 250 µs, restore ≈ 1.3 ms, boot ≈ 1.5 s)
         but below a slowdown-stretched one, so only genuine stragglers
         trip it *)
      warm_timeout = Some (Time.span_ms 1.0);
      restore_timeout = Some (Time.span_ms 5.0);
      cold_timeout = Some (Time.span_s 10.0);
    }

  let create ?(max_attempts = default.max_attempts)
      ?(backoff = default.backoff) ?(degrade = default.degrade)
      ?(warm_timeout = default.warm_timeout)
      ?(restore_timeout = default.restore_timeout)
      ?(cold_timeout = default.cold_timeout) () =
    if max_attempts < 1 then
      invalid_arg "Platform.Recovery.create: max_attempts < 1";
    { max_attempts; backoff; degrade; warm_timeout; restore_timeout;
      cold_timeout }
end

type invocation = {
  id : int;
  fn_id : int;
  inv_mode : start_mode;  (* the rung that served it *)
  orig_mode : start_mode;  (* the mode triggered: a retry restarts here *)
  attempt : int;
  doomed : bool;  (* an exec-time crash fires instead of the completion *)
  sandbox : Sandbox.t;
  started : Time.t;
  inv_init : Time.span;
  inv_exec : Time.span;
  cpus : int list;
  on_complete : (int -> unit) option;  (* handed the arena slot *)
  mutable preempt_ns : int;
  mutable finish_at : Time.t;
  mutable completion : Engine.event_handle option;
}

type t = {
  engine : Engine.t;
  vmm : Vmm.t;
  scheduler : Scheduler.t;
  metrics : Metrics.t;
  rng : Rng.t;
  keep_alive : Time.span;
  recovery : Recovery.t;
  registry : Function_def.Registry.t;  (* name <-> dense fn-id *)
  mutable pools : Sandbox.t Queue.t array;
      (* fn-id -> FIFO warm pool: push-back on park, pop-front on
         trigger, O(1) either way so million-sandbox pools stay cheap;
         cells past the registry's count are spare empty queues *)
  dvfs : Horse_cpu.Dvfs.t;
  energy : Horse_cpu.Energy.t;
  occupancy : (int, invocation) Hashtbl.t;  (* cpu -> invocation *)
  live : (int, invocation) Hashtbl.t;
  arena : Trigger_records.t;  (* completed invocations, append order *)
  (* per-mode interned counters: the trigger and completion paths
     must neither sprintf a counter name nor re-hash it *)
  triggers_c : int ref array;
  completions_c : int ref;
  mutable next_sandbox_id : int;
  mutable next_invocation_id : int;
}

let create ?(topology = Topology.r650) ?(cost = Cost_model.firecracker)
    ?(ull_count = 1) ?(keep_alive = Time.span_s 600.0) ?(jitter = 0.02)
    ?(seed = 42) ?(governor = Horse_cpu.Dvfs.Performance)
    ?(faults = Fault.Plan.none) ?(recovery = Recovery.none) ~engine () =
  let scheduler = Scheduler.create ~ull_count ~topology () in
  let metrics = Metrics.create () in
  let vmm =
    Vmm.create ~cost ~jitter ~seed:(seed + 1) ~faults ~scheduler ~metrics ()
  in
  {
    engine;
    vmm;
    scheduler;
    metrics;
    recovery;
    registry = Function_def.Registry.create ();
    dvfs = Horse_cpu.Dvfs.create ~governor ~topology ();
    energy = Horse_cpu.Energy.create ~topology ();
    rng = Rng.create ~seed;
    keep_alive;
    pools = [||];
    occupancy = Hashtbl.create 64;
    live = Hashtbl.create 64;
    arena = Trigger_records.create ();
    triggers_c =
      Array.init mode_count (fun i ->
          Metrics.counter_ref metrics
            ("platform.triggers." ^ mode_name (mode_of_code i)));
    completions_c = Metrics.counter_ref metrics "platform.completions";
    next_sandbox_id = 0;
    next_invocation_id = 0;
  }

let engine t = t.engine

let vmm t = t.vmm

let faults t = Vmm.faults t.vmm

let recovery t = t.recovery

let scheduler t = t.scheduler

let metrics t = t.metrics

let dvfs t = t.dvfs

let energy t = t.energy

let register t fn =
  if Function_def.Registry.find t.registry fn.Function_def.name <> None then
    invalid_arg
      (Printf.sprintf "Platform.register: %s already registered"
         fn.Function_def.name);
  let id = Function_def.Registry.intern t.registry fn in
  if id >= Array.length t.pools then
    t.pools <-
      Array.init
        (max 8 (2 * (id + 1)))
        (fun i ->
          if i < Array.length t.pools then t.pools.(i) else Queue.create ())

let registry t = t.registry

let fn_id t ~name =
  match Function_def.Registry.find t.registry name with
  | Some id -> id
  | None -> raise (Unknown_function name)

let function_name t ~fn_id = Function_def.Registry.name t.registry fn_id

let check_fn_id t ~fn_id caller =
  if fn_id < 0 || fn_id >= Function_def.Registry.count t.registry then
    invalid_arg (caller ^ ": unknown fn_id")

let pool_size t ~fn_id =
  check_fn_id t ~fn_id "Platform.pool_size";
  Queue.length t.pools.(fn_id)

let new_sandbox t fn_id =
  let fn = Function_def.Registry.def t.registry fn_id in
  let id = t.next_sandbox_id in
  t.next_sandbox_id <- id + 1;
  Sandbox.create ~id ~vcpus:fn.Function_def.vcpus
    ~memory_mb:fn.Function_def.memory_mb ~ull:fn.Function_def.ull ()

let provision t ~name ~count ~strategy =
  let fn_id = fn_id t ~name in
  let p = t.pools.(fn_id) in
  let provisioned = ref 0 in
  for _ = 1 to count do
    (* a pause-time fault kills the fresh sandbox; retry the slot a
       bounded number of times rather than looping on a hot plan *)
    let rec attempt tries =
      let sb = new_sandbox t fn_id in
      ignore (Vmm.boot t.vmm sb);
      match Vmm.pause t.vmm ~strategy sb with
      | (_ : Time.span) ->
        Queue.push sb p;
        incr provisioned
      | exception Fault.Injected _ -> if tries < 3 then attempt (tries + 1)
    in
    attempt 1
  done;
  Metrics.incr t.metrics ~by:!provisioned "platform.provisioned"

let rec pop_pool t fn_id =
  let p = t.pools.(fn_id) in
  match Queue.take_opt p with
  | None -> raise (No_warm_sandbox (Function_def.Registry.name t.registry fn_id))
  | Some sb ->
    (* a stale entry (expired under us) is discarded and the next one
       tried; an empty pool after discards degrades like a dry pool *)
    if Fault.Plan.fires (Vmm.faults t.vmm) Fault.Pool_expiry then begin
      Vmm.stop t.vmm sb;
      Metrics.incr t.metrics "platform.expired_pool_entries";
      pop_pool t fn_id
    end
    else sb

let push_pool t fn_id sb = Queue.push sb t.pools.(fn_id)

let remove_from_pool t fn_id sb =
  let p = t.pools.(fn_id) in
  let before = Queue.length p in
  let keep = Queue.create () in
  Queue.iter (fun other -> if not (other == sb) then Queue.push other keep) p;
  Queue.clear p;
  Queue.transfer keep p;
  Queue.length p < before

(* A P²SM merge thread landed on [cpu]: whatever runs there loses a
   context-switch round-trip, the thread's splice, and the cache/TLB
   refill proportional to the state the merge touched — the dominant
   term, and the paper's ≈30 µs p99 tail at 36 vCPUs. *)
let preemption_penalty t ~resumed_vcpus =
  let c = Vmm.cost t.vmm in
  Time.span_ns
    (int_of_float
       (Float.round
          ((2.0 *. c.Cost_model.context_switch_ns)
          +. c.Cost_model.psm_splice_ns
          +. (float_of_int resumed_vcpus
             *. c.Cost_model.preempt_cache_refill_per_vcpu_ns))))

let schedule_expiry t fn_id sb =
  ignore
    (Engine.schedule t.engine ~after:t.keep_alive (fun _ ->
         if Sandbox.state sb = Sandbox.Paused && remove_from_pool t fn_id sb
         then begin
           Vmm.stop t.vmm sb;
           Metrics.incr t.metrics "platform.keepalive_expiries"
         end))

(* Materialize the boxed record for one arena slot — only callers
   that ask for a record value pay for this. *)
let record_of_slot t i =
  let a = t.arena in
  {
    function_name =
      Function_def.Registry.name t.registry (Trigger_records.fn_id a i);
    mode = mode_of_code (Trigger_records.mode_code a i);
    triggered_at = Trigger_records.triggered_at a i;
    init = Trigger_records.init a i;
    exec = Trigger_records.exec a i;
    preemption = Trigger_records.preemption a i;
    completed_at = Trigger_records.completed_at a i;
  }

let complete t inv =
  (* account the execution's energy at each CPU's current frequency *)
  List.iter
    (fun cpu ->
      Horse_cpu.Energy.account t.energy ~cpu
        ~freq_mhz:(Horse_cpu.Dvfs.frequency_mhz t.dvfs ~cpu)
        inv.inv_exec)
    inv.cpus;
  List.iter (fun cpu -> Hashtbl.remove t.occupancy cpu) inv.cpus;
  Hashtbl.remove t.live inv.id;
  let code = mode_code inv.inv_mode in
  let slot =
    Trigger_records.append t.arena ~fn_id:inv.fn_id ~mode:code
      ~triggered_at:inv.started ~init:inv.inv_init ~exec:inv.inv_exec
      ~preemption:(Time.span_ns inv.preempt_ns)
      ~completed_at:(Engine.now t.engine)
  in
  t.completions_c := !(t.completions_c) + 1;
  (* post-execution policy: warm sandboxes go back to their pool, cold
     ones idle under keep-alive before being reclaimed.  A crash during
     the re-pause loses the sandbox (it is never pooled) but not the
     completed invocation — the arena row above already stands. *)
  (match inv.inv_mode with
  | Warm strategy -> (
    try
      ignore (Vmm.pause t.vmm ~strategy inv.sandbox);
      push_pool t inv.fn_id inv.sandbox
    with Fault.Injected _ -> Metrics.incr t.metrics "platform.pool_losses")
  | Cold | Restore -> (
    try
      ignore (Vmm.pause t.vmm ~strategy:Sandbox.Vanilla inv.sandbox);
      push_pool t inv.fn_id inv.sandbox;
      schedule_expiry t inv.fn_id inv.sandbox
    with Fault.Injected _ -> Metrics.incr t.metrics "platform.pool_losses"));
  match inv.on_complete with None -> () | Some f -> f slot

let downgrade = function
  | Warm _ -> Some Restore
  | Restore -> Some Cold
  | Cold -> None

let timeout_for (recovery : Recovery.t) = function
  | Warm _ -> recovery.Recovery.warm_timeout
  | Restore -> recovery.Recovery.restore_timeout
  | Cold -> recovery.Recovery.cold_timeout

(* One rung of the fallback ladder: try to bring a sandbox up under
   [mode]; on an injected fault, a dry pool or a watchdog timeout
   (with [degrade] on) charge the burned virtual time into
   [penalty_ns] and descend Warm → Restore → Cold.  The bottom rung
   never descends, so the ladder always terminates.  [attempt] and
   [orig_mode] belong to the async retry loop: an exec-time crash
   re-enters here from the top of the ladder after a backoff. *)
let rec start_attempt t ~fn_id ~orig_mode ~mode ~on_complete ~attempt
    ~triggered_at ~penalty_ns =
  let recovery = t.recovery in
  let descend ~to_ ~burned_ns =
    Metrics.incr t.metrics
      (Printf.sprintf "platform.fallbacks.%s-to-%s" (mode_name mode)
         (mode_name to_));
    start_attempt t ~fn_id ~orig_mode ~mode:to_ ~on_complete ~attempt
      ~triggered_at
      ~penalty_ns:(penalty_ns + burned_ns)
  in
  match
    match mode with
    | Cold ->
      let sb = new_sandbox t fn_id in
      let boot = Vmm.boot t.vmm sb in
      ( sb,
        Time.add_span boot (Vmm.dispatch_overhead t.vmm ~strategy:Sandbox.Vanilla),
        [] )
    | Restore ->
      let sb = new_sandbox t fn_id in
      let restore = Vmm.restore t.vmm sb in
      ( sb,
        Time.add_span restore
          (Vmm.dispatch_overhead t.vmm ~strategy:Sandbox.Vanilla),
        [] )
    | Warm _ ->
      let sb = pop_pool t fn_id in
      let result = Vmm.resume t.vmm sb in
      (* the resume ran under the strategy recorded at pause time, and
         dispatch must match it (a vanilla-paused sandbox cannot take
         the HORSE fast path even if the trigger asked for it) *)
      ( sb,
        Time.add_span result.Vmm.total
          (Vmm.dispatch_overhead t.vmm ~strategy:result.Vmm.strategy),
        result.Vmm.preempted_cpus )
  with
  | exception Fault.Injected { cost; _ }
    when recovery.Recovery.degrade && downgrade mode <> None ->
    descend
      ~to_:(Option.get (downgrade mode))
      ~burned_ns:(Time.span_to_ns cost)
  | exception No_warm_sandbox _ when recovery.Recovery.degrade ->
    descend ~to_:Restore ~burned_ns:0
  | sandbox, init, preempted_cpus -> (
    match timeout_for recovery mode with
    | Some limit when Time.span_to_ns init > Time.span_to_ns limit -> (
      Metrics.incr t.metrics
        (Printf.sprintf "platform.timeouts.%s" (mode_name mode));
      match downgrade mode with
      | Some next when recovery.Recovery.degrade ->
        (* the watchdog killed the attempt at [limit]; the slow start
           itself is abandoned, only the watchdog window is charged *)
        Vmm.stop t.vmm sandbox;
        descend ~to_:next ~burned_ns:(Time.span_to_ns limit)
      | Some _ | None ->
        (* bottom rung (or degradation off): counted, but accepted *)
        launch t ~fn_id ~orig_mode ~mode ~on_complete ~attempt ~triggered_at
          ~penalty_ns ~sandbox ~init ~preempted_cpus)
    | Some _ | None ->
      launch t ~fn_id ~orig_mode ~mode ~on_complete ~attempt ~triggered_at
        ~penalty_ns ~sandbox ~init ~preempted_cpus)

and launch t ~fn_id ~orig_mode ~mode ~on_complete ~attempt ~triggered_at
    ~penalty_ns ~sandbox ~init ~preempted_cpus =
  let fn = Function_def.Registry.def t.registry fn_id in
  let now = Engine.now t.engine in
  apply_preemptions t ~resumed_vcpus:(Sandbox.vcpu_count sandbox)
    preempted_cpus;
  let exec = Function_def.sample_exec fn t.rng in
  let cpus =
    List.map
      (fun { Sandbox.queue; _ } -> Runqueue.cpu queue)
      (Sandbox.placements sandbox)
  in
  let id = t.next_invocation_id in
  t.next_invocation_id <- id + 1;
  (* honest latency accounting: init covers everything since the
     original trigger — async retry waits (elapsed virtual time),
     failed-rung costs ([penalty_ns]) and the successful rung itself *)
  let wait_ns = Time.span_to_ns (Time.diff now triggered_at) in
  let inv_init = Time.span_ns (wait_ns + penalty_ns + Time.span_to_ns init) in
  (* doomed: the sandbox dies part-way through execution.  The crash
     instant is drawn now (deterministically); [exec_crash] decides
     between a backed-off retry and an abort when it fires. *)
  let faults = Vmm.faults t.vmm in
  let doomed = Fault.Plan.fires faults Fault.Exec_crash in
  let runs_for =
    if doomed then
      let frac = Fault.Plan.fraction faults Fault.Exec_crash in
      Time.span_ns (int_of_float (frac *. float_of_int (Time.span_to_ns exec)))
    else exec
  in
  let inv =
    {
      id;
      fn_id;
      inv_mode = mode;
      orig_mode;
      attempt;
      doomed;
      sandbox;
      started = triggered_at;
      inv_init;
      inv_exec = exec;
      cpus;
      on_complete;
      preempt_ns = 0;
      finish_at = Time.add triggered_at (Time.add_span inv_init runs_for);
      completion = None;
    }
  in
  Hashtbl.replace t.live id inv;
  (* the step-5 load variable drives frequency scaling: refresh the
     governor of each CPU this invocation occupies from its run
     queue's tracked load *)
  List.iter
    (fun { Sandbox.queue; _ } ->
      Horse_cpu.Dvfs.note_utilisation t.dvfs ~cpu:(Runqueue.cpu queue)
        (Horse_sched.Load_tracking.utilisation (Runqueue.load queue)))
    (Sandbox.placements sandbox);
  List.iter (fun cpu -> Hashtbl.replace t.occupancy cpu inv) cpus;
  inv.completion <-
    Some (Engine.schedule_at t.engine ~at:inv.finish_at (fun _ -> fire t inv));
  if Horse_sim.Logging.debug_enabled log_src then
    Log.debug (fun m ->
        m "trigger %s mode=%s init=%dns exec=%dns" fn.Function_def.name
          (mode_name mode)
          (Time.span_to_ns inv_init) (Time.span_to_ns exec));
  (* hoisted per-mode handles: no sprintf, no series-name hashing on
     the per-trigger path.  The init distribution is NOT observed here
     — only [complete] feeds it, so doomed attempts never publish a
     partial init that mid-ladder observers would mistake for a final
     one (see [complete]). *)
  let code = mode_code mode in
  let c = t.triggers_c.(code) in
  c := !c + 1

(* What an invocation's scheduled event does: the completion for a
   healthy invocation, the exec-crash handler for a doomed one.  A
   preemption reschedules through this too, so a pushed-back doomed
   invocation still crashes instead of silently completing. *)
and fire t inv = if inv.doomed then exec_crash t inv else complete t inv

and apply_preemptions t ~resumed_vcpus cpus =
  List.iter
    (fun cpu ->
      match Hashtbl.find_opt t.occupancy cpu with
      | None -> ()
      | Some inv -> (
        match inv.completion with
        | None -> ()
        | Some handle ->
          let penalty = preemption_penalty t ~resumed_vcpus in
          if Engine.cancel t.engine handle then begin
            inv.preempt_ns <- inv.preempt_ns + Time.span_to_ns penalty;
            inv.finish_at <- Time.add inv.finish_at penalty;
            Metrics.incr t.metrics "platform.preemptions";
            inv.completion <-
              Some
                (Engine.schedule_at t.engine ~at:inv.finish_at (fun _ ->
                     fire t inv))
          end))
    cpus

and exec_crash t inv =
  List.iter (fun cpu -> Hashtbl.remove t.occupancy cpu) inv.cpus;
  Hashtbl.remove t.live inv.id;
  Vmm.crash t.vmm inv.sandbox;
  Metrics.incr t.metrics "platform.exec_crashes";
  let recovery = t.recovery in
  if inv.attempt < recovery.Recovery.max_attempts then begin
    Metrics.incr t.metrics "platform.retries";
    let delay_ns =
      Time.span_to_ns recovery.Recovery.backoff * (1 lsl (inv.attempt - 1))
    in
    ignore
      (Engine.schedule t.engine ~after:(Time.span_ns delay_ns) (fun _ ->
           match
             start_attempt t ~fn_id:inv.fn_id ~orig_mode:inv.orig_mode
               ~mode:inv.orig_mode ~on_complete:inv.on_complete
               ~attempt:(inv.attempt + 1) ~triggered_at:inv.started
               ~penalty_ns:0
           with
           | () -> ()
           | exception (No_warm_sandbox _ | Fault.Injected _) ->
             Metrics.incr t.metrics "platform.aborts"))
  end
  else Metrics.incr t.metrics "platform.aborts"

let trigger t ~fn_id ~mode ?on_complete () =
  check_fn_id t ~fn_id "Platform.trigger";
  start_attempt t ~fn_id ~orig_mode:mode ~mode ~on_complete ~attempt:1
    ~triggered_at:(Engine.now t.engine) ~penalty_ns:0

(* A whole-server outage: every in-flight invocation is lost (its
   completion event cancelled, its sandbox crashed) and every warm
   pool flushed.  Returns how many in-flight invocations died; pool
   entries are counted separately in [platform.blackout_pool_losses].
   Recovery is the cluster's business — it re-routes around the dead
   server and marks it healthy again later. *)
let blackout t =
  let lost = ref 0 in
  Hashtbl.iter
    (fun _ inv ->
      (match inv.completion with
      | Some handle -> ignore (Engine.cancel t.engine handle)
      | None -> ());
      List.iter (fun cpu -> Hashtbl.remove t.occupancy cpu) inv.cpus;
      Vmm.crash t.vmm inv.sandbox;
      incr lost)
    t.live;
  Hashtbl.reset t.live;
  let pooled = ref 0 in
  Array.iter
    (fun p ->
      Queue.iter
        (fun sb ->
          Vmm.crash t.vmm sb;
          incr pooled)
        p;
      Queue.clear p)
    t.pools;
  Metrics.incr t.metrics "platform.blackouts";
  Metrics.incr t.metrics ~by:!lost "platform.blackout_invocation_losses";
  Metrics.incr t.metrics ~by:!pooled "platform.blackout_pool_losses";
  !lost

let trigger_records t = t.arena

let record_count t = Trigger_records.length t.arena

let iter_records t f = Trigger_records.iter t.arena f

let live_invocations t = Hashtbl.length t.live
