(** Deterministic fault injection — the simulator's failure plane.

    Every component of the testbed assumes a perfect machine unless a
    {!Plan} says otherwise.  A plan is a seeded, reproducible schedule
    of failure events: each {!trigger} kind owns a private
    {!Horse_sim.Rng} stream derived from the plan seed, so whether a
    given hook point fires depends only on (seed, trigger, how many
    times that trigger was consulted before) — never on wall clock,
    domain count or the order other triggers fire in.  Replaying the
    same workload against the same plan yields byte-identical metrics
    and records.

    Hook points live in [Vmm] (crash during pause/resume, snapshot
    corruption on restore, vCPU slowdown), [Platform] (warm-pool entry
    expiry, crash during execution) and [Cluster] (whole-server
    blackout and recovery).  Components consult the plan with
    {!Plan.fires} and react by raising {!Injected} with the virtual
    time the failed operation burned before the fault was detected;
    the robustness machinery above (fallback ladder, retries, health
    tracking) charges that cost honestly into the invocation record.

    A plan with every rate at zero ({!Plan.none}, or any all-zero
    rates) is inert: no stream is ever advanced, no metric bumped —
    the zero-fault run is bit-identical to a run with no plan at
    all. *)

type trigger =
  | Pause_crash  (** sandbox dies while being paused *)
  | Resume_crash  (** sandbox dies mid-resume (pre-merge sanity stage) *)
  | Exec_crash  (** sandbox dies partway through function execution *)
  | Restore_corruption  (** snapshot fails its integrity check on restore *)
  | Pool_expiry  (** a warm-pool entry turns out to be stale *)
  | Server_blackout  (** a whole server drops out, recovering later *)
  | Vcpu_slowdown  (** straggler vCPU: the operation runs slower *)

val all_triggers : trigger list

exception
  Injected of {
    trigger : trigger;
    site : string;  (** which hook raised, e.g. ["vmm.resume"] *)
    cost : Horse_sim.Time_ns.span;
        (** virtual time burned before the fault was detected *)
  }

module Plan : sig
  type t

  val none : t
  (** The inert plan: nothing ever fires.  Shared value; attaching
      metrics to it is a no-op. *)

  val create :
    ?seed:int ->
    ?rates:(trigger * float) list ->
    ?slowdown:float ->
    unit ->
    t
  (** A plan firing each listed trigger with its probability in
      [0, 1] (unlisted triggers never fire).  [slowdown] (default 8.0)
      is the factor {!Vcpu_slowdown} multiplies an operation's
      duration by.  [seed] defaults to 1.
      @raise Invalid_argument on a rate outside [0, 1] or
      [slowdown < 1.0]. *)

  val uniform : ?seed:int -> ?slowdown:float -> rate:float -> unit -> t
  (** Every trigger at the same [rate] — the shape the fault-rate
      sweep experiment uses. *)

  val derive : t -> index:int -> t
  (** A statistically independent plan with the same rates, keyed by
      [(plan, index)] without advancing any of [t]'s streams: the
      cluster gives each server its own derived plan so per-server
      fault sequences do not depend on routing order.
      @raise Invalid_argument if [index < 0]. *)

  val rate : t -> trigger -> float

  val slowdown : t -> float

  val attach_metrics : t -> Horse_sim.Metrics.t -> unit
  (** Route this plan's [fault.injected.<trigger>] counters into a
      registry (a platform attaches its own at creation).  First
      attachment wins; attaching to {!none} or an inactive plan is a
      no-op. *)

  val fires : t -> trigger -> bool
  (** Roll [trigger]'s stream against its rate.  Draws nothing when
      the rate is zero.  Bumps [fault.injected.<name>] on the attached
      registry when it fires. *)

  val fraction : t -> trigger -> float
  (** A deterministic uniform draw in [0, 1) from [trigger]'s stream
      (e.g. how far through execution an {!Exec_crash} lands).  Only
      meaningful right after {!fires} returned true. *)

  val blackouts :
    t ->
    servers:int ->
    horizon:Horse_sim.Time_ns.span ->
    (int * Horse_sim.Time_ns.span * Horse_sim.Time_ns.span) list
  (** The plan's whole-server outage schedule over [horizon]:
      [(server, start offset, outage duration)], at most one outage
      per server.  Each server rolls its own derived stream once per
      simulated second of horizon against the {!Server_blackout}
      rate; the first success starts an outage lasting 5–20 % of the
      horizon.  Deterministic in (seed, servers, horizon) and
      independent of every other trigger stream. *)
end
