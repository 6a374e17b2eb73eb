(** The FaaS control plane: function registry, warm pools, triggers.

    A platform owns a simulation engine, a hypervisor ({!Horse_vmm.Vmm})
    and its scheduler.  Tenants {!register} functions; operators
    {!provision} warm (paused) sandboxes per function — the
    provisioned-concurrency option the paper's premium offerings
    expose; triggers then start functions under one of the paper's
    four scenarios:

    - [Cold]: create + boot a sandbox (≈1.5 s init);
    - [Restore]: FaaSnap-style snapshot restore (≈1.3 ms);
    - [Warm strategy]: resume a paused sandbox from the pool with the
      given resume strategy — [Sandbox.Vanilla] is the paper's
      {e warm} scenario, [Sandbox.Horse] is HORSE's fast path.

    Completions re-pause warm sandboxes back into their pool (or stop
    cold ones after the keep-alive window).  While a long-running
    invocation executes it occupies the physical CPUs of its vCPUs;
    HORSE merge threads that land on an occupied CPU delay that
    invocation by a context-switch round-trip — the effect §5.4
    quantifies at the 99th percentile. *)

type t

type start_mode = Cold | Restore | Warm of Horse_vmm.Sandbox.strategy

val mode_name : start_mode -> string

val mode_code : start_mode -> int
(** The dense code in [0 .. 5] (cold, restore, four warm strategies)
    stored in the trigger-record arena's mode column. *)

val mode_of_code : int -> start_mode
(** Decode via a preallocated table — allocation-free.
    @raise Invalid_argument outside [0 .. 5]. *)

type record = {
  function_name : string;
  mode : start_mode;
  triggered_at : Horse_sim.Time_ns.t;
  init : Horse_sim.Time_ns.span;  (** sandbox readiness time *)
  exec : Horse_sim.Time_ns.span;  (** function service time *)
  preemption : Horse_sim.Time_ns.span;
      (** delay injected by merge threads that hit this invocation *)
  completed_at : Horse_sim.Time_ns.t;
}

val record_total : record -> Horse_sim.Time_ns.span
(** init + exec + preemption. *)

exception No_warm_sandbox of string
(** A [Warm _] trigger found the function's pool empty (only escapes
    when {!Recovery.t.degrade} is off). *)

exception Unknown_function of string

(** How the platform reacts to injected faults — the self-healing
    policy.  {!Recovery.none} (the default) is byte-for-byte the
    legacy behaviour: one attempt, no watchdogs, faults and dry pools
    escape as exceptions.  {!Recovery.default} turns on the full
    ladder:

    - {b graceful degradation}: a failed or timed-out [Warm] start
      falls back to [Restore], a failed [Restore] to [Cold] — with
      the virtual time burned by every failed rung charged into the
      eventual record's [init] (no latency is hidden).  The record
      is appended to {!trigger_records} only at completion: a doomed
      attempt never publishes a partial init, so an observer that
      looks mid-ladder sees no row for the invocation yet;
    - {b watchdog timeouts}: a per-mode limit on the synchronous init
      duration; a tripped watchdog stops the sandbox, charges the
      watchdog window and descends the ladder;
    - {b bounded retries}: an execution-time crash re-triggers the
      original mode after [backoff * 2^(attempt-1)] until
      [max_attempts], then aborts (no record — the invocation is
      lost, visible in the completion ratio). *)
module Recovery : sig
  type t = {
    max_attempts : int;  (** total tries per invocation, >= 1 *)
    backoff : Horse_sim.Time_ns.span;  (** base retry delay, doubled per attempt *)
    degrade : bool;  (** enable the Warm -> Restore -> Cold ladder *)
    warm_timeout : Horse_sim.Time_ns.span option;
    restore_timeout : Horse_sim.Time_ns.span option;
    cold_timeout : Horse_sim.Time_ns.span option;
  }

  val none : t
  (** One attempt, no degradation, no timeouts — legacy behaviour. *)

  val default : t
  (** 4 attempts, 1 ms backoff, degradation on; watchdogs at 1 ms
      (warm), 5 ms (restore), 10 s (cold) — each above its rung's
      healthy worst case so only genuine stragglers trip. *)

  val create :
    ?max_attempts:int ->
    ?backoff:Horse_sim.Time_ns.span ->
    ?degrade:bool ->
    ?warm_timeout:Horse_sim.Time_ns.span option ->
    ?restore_timeout:Horse_sim.Time_ns.span option ->
    ?cold_timeout:Horse_sim.Time_ns.span option ->
    unit ->
    t
  (** {!default} with overrides.
      @raise Invalid_argument if [max_attempts < 1]. *)
end

val create :
  ?topology:Horse_cpu.Topology.t ->
  ?cost:Horse_cpu.Cost_model.t ->
  ?ull_count:int ->
  ?keep_alive:Horse_sim.Time_ns.span ->
  ?jitter:float ->
  ?seed:int ->
  ?governor:Horse_cpu.Dvfs.governor ->
  ?faults:Horse_fault.Fault.Plan.t ->
  ?recovery:Recovery.t ->
  engine:Horse_sim.Engine.t ->
  unit ->
  t
(** Defaults: the r650 topology, the Firecracker cost profile, one
    ull_runqueue, a 10-minute keep-alive for cold sandboxes (the
    common platform default), 2 % timing jitter, the Performance
    governor (§5.2's setting), an inert fault plan and
    {!Recovery.none} — so by default nothing ever fails and the
    platform behaves exactly as it always has. *)

val engine : t -> Horse_sim.Engine.t

val vmm : t -> Horse_vmm.Vmm.t

val faults : t -> Horse_fault.Fault.Plan.t
(** The fault plan shared with the hypervisor (inert by default). *)

val recovery : t -> Recovery.t

val scheduler : t -> Horse_sched.Scheduler.t

val metrics : t -> Horse_sim.Metrics.t

val dvfs : t -> Horse_cpu.Dvfs.t
(** The frequency governor, fed from the global tracked load (the
    variable of resume step ⑤) at every trigger. *)

val energy : t -> Horse_cpu.Energy.t
(** Per-CPU energy meters: each completed invocation's execution is
    accounted on its CPUs at their frequency at completion time. *)

val register : t -> Function_def.t -> unit
(** @raise Invalid_argument if the name is already taken. *)

val registry : t -> Function_def.Registry.t
(** The platform's name-interning registry: dense fn-ids in
    registration order. *)

val fn_id : t -> name:string -> int
(** The dense id for a registered function.  Names are a setup-time
    concept: {!register} and {!provision} take the name, and
    everything after setup ({!pool_size}, {!trigger}) takes this id.
    @raise Unknown_function *)

val function_name : t -> fn_id:int -> string
(** @raise Invalid_argument on an unknown id. *)

val provision :
  t -> name:string -> count:int -> strategy:Horse_vmm.Sandbox.strategy -> unit
(** Boot [count] sandboxes for [name] and park them paused in its
    warm pool under [strategy] (provisioned concurrency).  Happens
    instantaneously in virtual time — provisioning precedes the
    measured window.
    @raise Unknown_function *)

val pool_size : t -> fn_id:int -> int
(** Paused sandboxes in the function's warm pool.
    @raise Invalid_argument on an unregistered id. *)

val trigger :
  t ->
  fn_id:int ->
  mode:start_mode ->
  ?on_complete:(int -> unit) ->
  unit ->
  unit
(** Start one invocation of the function now (in virtual time).  The
    sandbox-ready path runs synchronously against the scheduler state;
    execution completes after [init + exec (+ preemption)] on the
    engine, at which point the invocation's row is appended to
    {!trigger_records} and [on_complete] is handed that row's arena
    slot.  Nothing is boxed: read the columns in place, or call
    {!record_of_slot} for a record value.

    A [Warm s] trigger resumes under the strategy the sandbox was
    {e paused} with (and pays that strategy's dispatch); [s] decides
    how the sandbox is re-paused after completion, so a mismatched
    pool converges to [s] after one use.

    Under an active fault plan the start may descend the
    {!Recovery} fallback ladder; the record's [mode] is then the rung
    that actually served the invocation and its [init] includes the
    failed rungs' burned time.
    @raise Invalid_argument on an unregistered id, before any side
    effect.  @raise No_warm_sandbox (only with {!Recovery.t.degrade}
    off).  @raise Horse_fault.Fault.Injected (only with
    {!Recovery.t.degrade} off). *)

val blackout : t -> int
(** Whole-server outage: cancel every in-flight invocation (crashing
    its sandbox) and flush every warm pool, in fn-id order.  Returns
    the number of in-flight invocations lost.  Bumps
    [platform.blackouts], [platform.blackout_invocation_losses] and
    [platform.blackout_pool_losses].  The caller (the cluster) is
    responsible for routing around the server until it recovers. *)

val trigger_records : t -> Trigger_records.t
(** The struct-of-arrays store of completed invocations, in completion
    order.  Read columns by slot index — the allocation-free way to
    consume results. *)

val record_count : t -> int

val record_of_slot : t -> int -> record
(** Materialize the boxed {!record} for one {!trigger_records} slot —
    for callers that want a record value; aggregations read the
    columns in place.
    @raise Invalid_argument on an out-of-range slot. *)

val iter_records : t -> (int -> unit) -> unit
(** Apply to every completed invocation's arena slot, completion
    order, allocating nothing. *)

val live_invocations : t -> int
