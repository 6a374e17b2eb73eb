(** A multi-server FaaS deployment: several {!Platform}s (one
    hypervisor each) behind a partitioned router plane.

    The paper evaluates a single server; real provisioned concurrency
    spreads the warm pool across a fleet.  Every cluster runs on one
    code path, the message protocol: {!create_sharded} partitions the
    run over a {!Horse_sim.Shard_engine} — router [r] of [routers] is
    logical shard [r], server [g] is shard [routers + g], and every
    router<->server interaction crosses a placement delay as a
    deterministic cross-shard message.  Each router routes from its own
    mirrors of its servers' state, which only those messages update, so
    {!run} can drain the routers and servers on multiple domains while
    staying bit-identical to the sequential run.

    With [routers > 1] the control plane itself is partitioned:
    functions map to routers by a deterministic hash of their dense
    registry id ({!router_of_fn}), router [r] owns the disjoint server
    group [{ g | g mod routers = r }] with its own mirrors, pending
    queue and policy instance, and the routers form a
    directed spill ring — a trigger arriving at a router whose group
    is fully down, or dry of warm pools for a warm trigger, is
    forwarded to the next router over a declared router<->router
    channel (at most [routers - 1] hops) rather than rejected.

    Each trigger is placed by a pluggable scheduling policy
    ({!Policy}).  The built-ins:

    - {!Policy.push} (warm-first), {!Policy.push_least_loaded} and
      {!Policy.push_round_robin} — push every trigger immediately to a
      server chosen from the optimistically-debited mirrors;
    - {!Policy.pull} — idle servers claim triggers from a router-side
      queue through capacity tokens, eliminating stale-mirror
      misroutes during blackouts;
    - {!Policy.core_granular} — route on per-vCPU occupancy mirrors,
      late-binding each vCPU to a run queue only at dispatch time.

    The router tracks per-server health: a blacked-out server (see
    {!schedule_faults}) receives no traffic until it recovers, and a
    trigger that cannot be placed is recorded as a typed {!rejection}
    instead of letting an exception escape. *)

type reject_reason =
  | All_servers_down  (** no healthy server to route to *)
  | No_warm_capacity
      (** the chosen server raised {!Platform.No_warm_sandbox} (only
          reachable with {!Platform.Recovery.t.degrade} off); the
          router records it when the server's reply arrives, one
          placement delay after the trigger reached the server *)

val reject_reason_name : reject_reason -> string

type rejection = {
  reason : reject_reason;
  function_name : string;
  at : Horse_sim.Time_ns.t;  (** when the router gave up *)
}

type outcome =
  | Accepted of int  (** (global) server index *)
  | Rejected of rejection
  | Queued
      (** the policy deferred placement; the trigger waits in the
          router-side queue until a server claims it (pull policy) *)
  | Forwarded of int
      (** multi-router only: the receiving router's group was fully
          down (or dry for a warm trigger) and the trigger was spilled
          to this neighbor router over the ring; its final outcome
          resolves there, one hop delay later *)

(** The scheduling-policy interface (the tentpole of the cluster's
    routing layer).  A policy is a recipe ({!t}) instantiated once per
    cluster into an {!instance} holding its mutable state (cursors,
    token counts).  The cluster calls [decide] for every trigger and
    the [on_*] hooks as routing-relevant events reach the router — all
    on the router's timeline, in deterministic message-delivery order,
    so any policy is automatically bit-identical across [--jobs] and
    [--shards].

    Hooks return {e claims}: server indices asking to be handed a
    queued trigger.  The cluster resolves each claim against its
    pending queue — dispatching the oldest trigger to the claiming
    server (one placement delay away), or calling [on_claim_unused] so
    the policy can reclaim the token when the queue is dry.  Claims
    for servers that went unhealthy in the meantime are dropped. *)
module Policy : sig
  (** What a policy may read: the router's believed state of its own
      server group — the router's message-maintained mirrors, one cell
      per router-local server index.  The arrays are the router's own
      state: policies read them and never write them.  [v_warm] is the
      pool row of the function whose trigger is being decided; it
      starts as a zero row and keeps the last decided function's row
      between decisions, so outside [decide] it may describe another
      function. *)
  type view = {
    v_healthy : bool array;  (** per server: not blacked out *)
    v_live : int array;  (** believed live invocations per server *)
    v_busy : int array;  (** believed busy vCPUs per server *)
    mutable v_warm : int array;
        (** believed warm-pool size per server for the function *)
    v_total_vcpus : int;  (** logical CPUs per server *)
    v_pending : unit -> int;  (** triggers waiting in the router queue *)
  }

  type decision =
    | Assign of int  (** place on this server now *)
    | Enqueue  (** park in the router queue until a server claims it *)

  type instance = {
    label : string;
    decide : view -> vcpus:int -> needs_pool:bool -> decision;
        (** [vcpus] is the function's vCPU requirement; [needs_pool]
            is true for [Warm _] triggers.  Only called while at least
            one server is healthy ([All_servers_down] is rejected
            before the policy runs). *)
    on_completion : view -> server:int -> int list;
        (** a completion notification from [server] reached the
            router; returns claims *)
    on_rejection : view -> server:int -> int list;
        (** a dry-pool rejection from [server] reached the router *)
    on_health_change : view -> server:int -> up:bool -> int list;
        (** [server] was marked down (blackout) or back up *)
    on_provision : server:int -> count:int -> unit;
        (** pre-run: [count] warm sandboxes were parked on [server] *)
    on_claim_unused : server:int -> unit;
        (** a claim found the queue empty; the policy may bank it *)
  }

  type t
  (** A named policy recipe; {!instantiate} builds fresh per-cluster
      state. *)

  val name : t -> string

  val v : name:string -> (servers:int -> instance) -> t
  (** Define a custom policy. *)

  val instantiate : t -> servers:int -> instance

  val push : unit -> t
  (** Warm-first push (["push-warm-first"]): a warm trigger goes to
      the least-loaded healthy server believed to hold a warm sandbox
      for the function, anything else (or a warm trigger with no such
      server) to the least-loaded healthy server.  Never enqueues. *)

  val push_least_loaded : unit -> t
  (** ["push-least-loaded"]: always the least-loaded healthy server,
      the one with the fewest believed live invocations, ties going to
      the lowest index (a scan of the group's mirrors).  Never
      enqueues. *)

  val push_round_robin : unit -> t
  (** ["push-round-robin"]: the first healthy server at or after a
      cursor that advances past every pick.  Never enqueues. *)

  val pull : unit -> t
  (** Pull-based scheduling (Hiku-style).  Each server holds claim
      tokens mirroring proven free capacity: seeded 1 at creation,
      [+count] per provisioned sandbox, [+1] per completion or
      rejection notification, zeroed on a health transition (a
      recovered server restarts with a 2-token probe window).
      [decide] spends a token of the healthiest-stocked server
      (preferring warm holders for warm triggers); with no tokens the
      trigger is [Enqueue]d until a completion mints a claim — so
      after a blackout wipes a server's pools, traffic follows real
      completions instead of stale mirrors. *)

  val core_granular : unit -> t
  (** Core-granular late binding (Kaffes-style): route on per-vCPU
      occupancy ([v_busy] vs [v_total_vcpus]), preferring the server
      with the most free cores that can hold the trigger's [vcpus]
      outright (warm holders first for warm triggers); the server's
      scheduler late-binds each vCPU to the least-loaded run queue at
      dispatch time ({!Horse_sched.Scheduler.select_normal}).  Never
      enqueues. *)

  val builtins : unit -> t list
  (** [[push (); pull (); core_granular ()]] — the shoot-out set. *)
end

type t

val create_sharded :
  ?servers:int ->
  ?policy:Policy.t ->
  ?e2e:bool ->
  ?topology:Horse_cpu.Topology.t ->
  ?cost:Horse_cpu.Cost_model.t ->
  ?keep_alive:Horse_sim.Time_ns.span ->
  ?seed:int ->
  ?faults:Horse_fault.Fault.Plan.t ->
  ?recovery:Platform.Recovery.t ->
  ?ull_count:int ->
  ?placement:Horse_sim.Time_ns.span ->
  ?shards:int ->
  ?scheduler:Horse_sim.Shard_engine.scheduler ->
  ?routers:int ->
  unit ->
  t
(** A cluster of [servers] platforms behind [routers] routers, run on
    its own {!Horse_sim.Shard_engine} with [routers + servers] logical
    shards.  Defaults: 4 servers, 1 router, {!Policy.push} (warm-first),
    each server an r650 with one ull_runqueue, an inert fault plan,
    legacy (no-op) recovery.  [e2e] (default off) turns on the
    router-side end-to-end latency stream ({!e2e_latencies}).  Each
    server's platform gets its own plan derived from [faults] by server
    index, so per-server fault sequences are independent of routing
    order; the cluster-level plan drives the {!schedule_faults}
    blackout schedule and counts its injections in {!metrics}.
    [ull_count] sets the reserved ull runqueues per server: parked
    HORSE sandboxes spread across them, and because a paused sandbox's
    P²SM maintenance is counted on every mutation of the queue it is
    attached to, per-trigger maintenance cost scales with
    [parked / ull_count] — raise it for large warm pools.

    The channel matrix mirrors the topology: one channel per
    router<->server direction carrying [placement] (the placement
    latency, default 50us) between each server and its owning router,
    a directed spill ring [r -> (r + 1) mod routers] when
    [routers > 1], and no server<->server channels, so the adaptive
    scheduler bounds each shard by its tightest relevant inbound link.
    [scheduler] (default [Adaptive]) passes through to
    {!Horse_sim.Shard_engine.create} — [Lockstep] is kept as the
    epoch-semantics oracle.  [shards] (default 1) is the number of
    execution strands {!run} uses — purely an execution-placement
    choice, results are bit-identical for every value and every
    scheduler.  [routers] partitions the control plane itself; results
    are deterministic for every value, and bit-identical across
    [shards], [scheduler] and execution placement at any fixed
    [routers].  Each router routes from its own mirrors of its group's
    health, live-load, busy-vCPU and pool sizes, updated only by the
    cross-shard message protocol: a trigger optimistically debits the
    mirrors, the server's completion (or dry-pool rejection)
    notification reconciles them one placement delay later.
    Pull-policy claims ride the same protocol: the claim is resolved on
    the owning router's timeline and the claimed trigger crosses one
    placement delay to the claiming server.
    @raise Invalid_argument if [servers <= 0], [shards < 1],
    [routers < 1] or [routers > servers]. *)

val router_count : t -> int
(** Router shards in the control plane (the [routers] argument). *)

val router_of_fn : t -> fn_id:int -> int
(** The router owning a function: a deterministic multiplicative hash
    of the dense id modulo {!router_count} (always 0 when
    [router_count = 1]), so Zipf-popular functions spread across the
    plane.  Un-pinned triggers for the function enter here. *)

val router_of_server : t -> int -> int
(** The router owning a server ([server mod router_count]).
    @raise Invalid_argument on an out-of-range index. *)

val router_engine : t -> int -> Horse_sim.Engine.t
(** Router [r]'s engine (logical shard [r] of the shard engine).
    Schedule arrivals bound for router [r] here; {!engine} is router
    0's.  @raise Invalid_argument on an out-of-range index. *)

val router_servers : t -> int -> int array
(** The (global, ascending) server indices of router [r]'s group.
    @raise Invalid_argument on an out-of-range index. *)

val router_metrics : t -> int -> Horse_sim.Metrics.t
(** Router [r]'s own counter registry (see {!metrics} for the merged
    view).  @raise Invalid_argument on an out-of-range index. *)

val e2e_latencies_of : t -> int -> Horse_sim.Stats.Quantile.t option
(** Router [r]'s end-to-end latency stream (the triggers that
    {e completed} on router [r]'s timeline — including any it
    received over the spill ring).  [None] when [e2e] is off.
    @raise Invalid_argument on an out-of-range index. *)

val server_count : t -> int

val server : t -> int -> Platform.t
(** @raise Invalid_argument on an out-of-range index. *)

val policy_name : t -> string
(** The instantiated policy's label (e.g. ["push-warm-first"],
    ["pull"], ["core"]). *)

val engine : t -> Horse_sim.Engine.t
(** Router 0's engine (logical shard 0).  Schedule workload arrivals
    here (the only router when [router_count = 1]; see
    {!router_engine} otherwise).  Drive the cluster with {!run}, never
    [Engine.run] on this engine: that drains router 0 alone and leaves
    every server's and message's events unprocessed. *)

val shard_engine : t -> Horse_sim.Shard_engine.t option
(** The cluster's shard engine; always [Some].  Exposes
    {!Horse_sim.Shard_engine.epochs} and
    {!Horse_sim.Shard_engine.messages_delivered} diagnostics. *)

val shards : t -> int
(** Execution tasks {!run} will use (the [shards] argument). *)

val metrics : t -> Horse_sim.Metrics.t
(** Fleet-level counters: [cluster.rejections.<reason>],
    [cluster.blackouts], [cluster.blackout_lost], [cluster.recoveries],
    [cluster.spills].  With one router this {e is} the router's live
    registry; with several it is a fresh registry holding the
    per-router sums, rebuilt per call (see {!router_metrics} for one
    router's live registry). *)

val healthy : t -> int -> bool
(** @raise Invalid_argument on an out-of-range index. *)

val healthy_count : t -> int

val pending_count : t -> int
(** Triggers parked in the router-side queue (pull policy), waiting
    for a claim.  Always 0 under the push and core policies. *)

val e2e_latencies : t -> Horse_sim.Stats.Quantile.t option
(** With [~e2e:true], the fleet's end-to-end latency stream in
    microseconds — arrival at the router to completion notification
    (including queueing, placement and spill delays and the recovery
    ladder), tracked at p50/p99/p999.  With one router this {e is} the
    router's live stream; with several it is a fresh exact merge of
    every router's stream, rebuilt per call (see {!e2e_latencies_of}
    for one router's live stream).  [None] when [e2e] is off. *)

val mark_down : t -> int -> unit
(** Exclude a server from routing (as a blackout does) and zero the
    router's mirrors of it.  Exposed for tests and manual drain.  The
    router sees only what goes through the cluster: provision with
    {!provision} and drain with [mark_down], not through the
    {!Platform} behind its back. *)

val mark_up : t -> int -> unit
(** Re-admit a server to routing. *)

val register : t -> Function_def.t -> unit
(** Register the function on every server. *)

val fn_id : t -> name:string -> int
(** The fleet-wide dense id for a registered function.  Every server
    interns the same functions in the same order, so one id stands for
    all servers.  Names are a setup-time concept: {!register} and
    {!provision} take the name, and everything after setup
    ({!pool_size}, {!trigger}, {!schedule_batch}) takes this id.
    @raise Platform.Unknown_function *)

val function_name : t -> fn_id:int -> string
(** @raise Invalid_argument on an unknown id. *)

val provision :
  ?router:int ->
  t ->
  name:string ->
  total:int ->
  strategy:Horse_vmm.Sandbox.strategy ->
  unit
(** Park [total] warm sandboxes for [name], spread round-robin across
    the owning router's server group (the whole fleet when
    [router_count = 1]; that router's policy instance observes each
    through [on_provision]).  The owner defaults to {!router_of_fn};
    [?router] overrides it — the workflow stepper parks a DAG's pools
    on its root function's router.
    @raise Invalid_argument on an out-of-range [router]. *)

val pool_size : t -> fn_id:int -> int
(** Fleet-wide warm-pool size.
    @raise Invalid_argument on an unregistered id. *)

val trigger :
  ?router:int ->
  t ->
  fn_id:int ->
  mode:Platform.start_mode ->
  ?on_complete:(int -> int -> unit) ->
  unit ->
  outcome
(** Route one invocation of the function among the healthy servers
    of the owning router's group.  [Accepted i] is the chosen (global) server;
    [Rejected _] means no healthy server existed (the rejection is
    recorded and counted, and [on_complete] never fires); [Queued]
    means the policy parked the trigger in the router queue until a
    server claims it; [Forwarded r] means the trigger spilled to
    neighbor router [r] (multi-router only).  A chosen server whose
    pool turns out dry still returns [Accepted i]: the router learns of
    it from the server's reply and records a [No_warm_capacity]
    rejection at arrival + 2 × placement, and [on_complete] never
    fires.

    The trigger enters at {!router_of_fn}'s router by default; on a
    multi-router cluster the call must be made on that router's
    timeline (pre-run setup, or a callback on {!router_engine}).
    [?router] pins the trigger to a specific router instead — pinned
    triggers place within that router's group and {e never} spill, so
    [on_complete] always fires on the pinned timeline (the workflow
    stepper relies on this).

    [on_complete server slot] fires on the router's timeline when the
    completion notification arrives: [slot] indexes
    [Platform.trigger_records (server t server)], the invocation's one
    stored row (the same pair {!iter_records} yields).  Nothing is
    boxed; a caller that wants a record value calls
    [Platform.record_of_slot (server t server) slot].  A {!rejection}
    names the triggered function.
    @raise Invalid_argument on an unregistered id (before any routing
    side effect) or an out-of-range [router]. *)

val schedule_batch :
  ?window:int ->
  ?on_complete:(int -> int -> unit) ->
  t ->
  Horse_trace.Batch.t ->
  unit
(** Ingest a whole (sorted) trigger batch, offsets relative to the
    owning router engines' current time, each trigger routed exactly
    as {!trigger} would at its arrival instant ([payload] column =
    {!Platform.mode_code}) — each row lands on its function's affine
    router's engine, and [on_complete] fires for each as in
    {!trigger}.  Arrivals are pre-scheduled through
    {!Horse_trace.Batch.arm}, one windowed cursor per router ([window]
    at a time, default 4096), so each event queue holds one window
    rather than the whole trace; within the batch, arrivals fire in
    batch order.  With [window >= length]
    the schedule is event-for-event identical to calling
    {!trigger} in a loop of [Engine.schedule_at]; with smaller
    windows, later-window arrivals are enqueued mid-run, so an
    unrelated simulation event at {e exactly} a window-boundary
    timestamp may interleave differently — each ingestion style is
    individually deterministic and shard-count-invariant.
    @raise Invalid_argument if [window < 1] or the batch is unsorted,
    and at its arrival instant for a row with an unregistered id. *)

val run : ?until:Horse_sim.Time_ns.t -> t -> unit
(** Drive the simulation to completion (or to [until], inclusive):
    the shard engine's epoch loop over every router and server,
    spread over [shards] strands of a [Horse_parallel.Team] when
    [shards > 1]. *)

val schedule_faults : t -> horizon:Horse_sim.Time_ns.span -> int
(** Schedule the cluster plan's {!Horse_fault.Fault.Plan.blackouts}
    over the next [horizon]: at each outage start the owning router
    marks the server down and the server is {!Platform.blackout}ed; at
    its end the server is marked healthy again (its pools start empty
    — the warm capacity was lost).  Returns the number of outages
    scheduled (0 for an inert plan). *)

val record_count : t -> int
(** Completions logged fleet-wide so far. *)

val iter_records : t -> (int -> int -> unit) -> unit
(** [iter_records t f] applies [f server slot] to every completion,
    allocating nothing; [slot] indexes
    [Platform.trigger_records (server t server)].  Router-major
    order: router 0's completions in observed order, then router
    1's, … (one stream when [router_count = 1]).  A boxed record of
    one completion is [Platform.record_of_slot (server t server) slot]. *)

val rejections : t -> rejection list
(** All rejected triggers, oldest first per router, router-major. *)

val live_invocations : t -> int

val triggers_per_server : t -> int array
(** How many triggers each server was {e dispatched} (routing
    diagnostics), counting those whose pool came back dry. *)
