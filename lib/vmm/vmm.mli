(** The virtualization system: sandbox lifecycle + the resume paths.

    One [Vmm.t] stands for the hypervisor of one server (Firecracker/
    KVM or Xen, chosen by the cost profile).  It owns no event loop:
    every operation synchronously mutates the scheduler state and
    returns the virtual duration it would have taken, which the
    caller (the FaaS layer or a bench harness) adds to the clock.

    The resume implementation follows §3.1's six steps literally —
    parse ①, lock ②, sanity ③, per-vCPU sorted merge ④, load update
    ⑤, unlock + state flip ⑥ — with strategies differing only in ④
    and ⑤:

    - [Vanilla]: each vCPU is sorted-merged into the least-loaded
      normal queue; one lock-protected load update per vCPU.
    - [Ppsm]: one O(1) P²SM splice into the assigned ull_runqueue;
      vanilla per-vCPU load updates.
    - [Coal]: vanilla per-vCPU merge; one coalesced load update from
      the pause-time constants.
    - [Horse]: P²SM splice + coalesced update (§4). *)

type t

exception Invalid_state of string
(** A lifecycle violation: resuming a non-paused sandbox, pausing a
    non-running one, booting twice, … — the sanity checks of step ③. *)

type breakdown = {
  parse_ns : float;  (** step ① *)
  lock_ns : float;  (** step ② *)
  sanity_ns : float;  (** step ③ *)
  merge_ns : float;  (** step ④ *)
  load_ns : float;  (** step ⑤ *)
  finalize_ns : float;  (** step ⑥ *)
}

val breakdown_total_ns : breakdown -> float

type resume_result = {
  total : Horse_sim.Time_ns.span;
  breakdown : breakdown;
  strategy : Sandbox.strategy;
      (** the strategy the sandbox was paused under, which the resume
          ran *)
  merge_threads : int;
      (** P²SM threads spawned (0 on the vanilla/coal paths) *)
  preempted_cpus : int list;
      (** CPUs whose current occupant each merge thread preempted
          (sampled; drives the §5.4 tail-latency analysis) *)
}

val create :
  ?cost:Horse_cpu.Cost_model.t ->
  ?jitter:float ->
  ?seed:int ->
  ?faults:Horse_fault.Fault.Plan.t ->
  scheduler:Horse_sched.Scheduler.t ->
  metrics:Horse_sim.Metrics.t ->
  unit ->
  t
(** [cost] defaults to {!Horse_cpu.Cost_model.firecracker}; [jitter]
    (default 0.02) is the relative measurement noise applied to
    returned durations — pass 0.0 for bit-exact tests.  [faults]
    (default {!Horse_fault.Fault.Plan.none}) drives the crash /
    corruption / slowdown hooks in {!pause}, {!resume} and {!restore};
    its injected-fault counters are routed into [metrics].
    @raise Invalid_argument if [jitter] is not in [0, 0.5]. *)

val cost : t -> Horse_cpu.Cost_model.t

val faults : t -> Horse_fault.Fault.Plan.t

val scheduler : t -> Horse_sched.Scheduler.t

val boot : t -> Sandbox.t -> Horse_sim.Time_ns.span
(** Cold start: full microVM creation + guest boot (≈1.5 s on the
    Firecracker profile).  Places the vCPUs on normal queues and
    moves the sandbox to [Running].
    @raise Invalid_state unless the sandbox is [Created] or
    [Stopped]. *)

val restore : t -> Sandbox.t -> Horse_sim.Time_ns.span
(** FaaSnap-style snapshot restore (≈1.3 ms): same placement as
    {!boot}, snapshot-load cost instead of boot cost. *)

val pause : t -> strategy:Sandbox.strategy -> Sandbox.t -> Horse_sim.Time_ns.span
(** Remove the sandbox's vCPUs from their queues and store the
    strategy's resume state as its {!Sandbox.paused} value: nothing
    for [Vanilla], the coalescing constants for [Coal], the P²SM state
    for [Ppsm] (merge_vcpus and the posA plan, attached to the
    assigned ull_runqueue, whose own order buffer serves as arrayB),
    both for [Horse].
    @raise Invalid_state unless [Running]. *)

val resume : t -> Sandbox.t -> resume_result
(** Execute the six-step resume under the strategy recorded at pause
    time.  @raise Invalid_state unless [Paused]. *)

val stop : t -> Sandbox.t -> unit
(** Tear the sandbox down from any live state (releases queue slots
    and HORSE structures). *)

val crash : t -> Sandbox.t -> unit
(** Like {!stop} but leaves the sandbox [Crashed]: the fault hooks
    call this before raising {!Horse_fault.Fault.Injected}, and the
    platform calls it when an execution-time fault kills a running
    sandbox.  Scheduler state is fully released — run queues look as
    if the sandbox had been stopped cleanly. *)

val dispatch_overhead : t -> strategy:Sandbox.strategy -> Horse_sim.Time_ns.span
(** Userspace trigger-handling time outside the resume call.  The
    HORSE fast path bypasses it (0); every other warm start pays
    [cost.dispatch_ns]. *)

val maintenance_cost : t -> events:int -> Horse_sim.Time_ns.span
(** Virtual time consumed by [events] posA/arrayB refreshes (§5.2's
    pause-side CPU overhead). *)
