(** A conservative, window-synchronized parallel discrete-event layer.

    One simulation run is partitioned into [sources] logical shards —
    each with its own {!Engine} (private event queue, clock and
    derived RNG).  Cross-shard interaction happens only through
    {!post}ed messages over declared {e channels}, each carrying a
    static minimum delay; pairs with no channel never exchange
    messages.  Two schedulers drive the shards:

    {b Adaptive} (the default).  Outer windows fast-forward to the
    global minimum next activity and span a configurable multiple of
    the lookahead.  Inside a window the shards advance in {e rounds}:
    each round the coordinator grounds every shard at its earliest
    possible execution time and shortest-paths the channel-delay
    matrix to a per-destination earliest-input-time bound — the
    tightest {e relevant inbound} chain, not the global minimum — then
    delivers the due messages and lets every shard run to its own
    bound.  Shards with slack channels (or none) cross the whole
    window in one round, so quiet gaps and one-sided phases cost a
    handful of rounds instead of one global-lookahead epoch per
    [lookahead] of virtual time.

    {b Lockstep} (the PR-5 scheme, kept as the epoch-semantics
    oracle).  Every window spans exactly one minimum channel delay and
    every shard synchronizes at every window boundary.

    Under both schemes every quantity that shapes execution — window
    boundaries, per-destination bounds, the delivery order [(time,
    source, sequence)] — is computed from global workload state only,
    never from the strand grouping, so a run is {e bit-identical for
    every shard count}, including fully sequential execution.

    The executor hook keeps this library free of any dependency on the
    domain pool: callers (see [Horse_faas.Cluster.run]) pass a
    barrier executor built on [Horse_parallel.Team]; the default runs
    every strand inline on the calling domain.

    Threading contract: during [run], shard [i]'s callbacks execute on
    the strand owning shard [i] — all mutable state reachable from a
    shard's callbacks must be private to that shard, and the only
    cross-shard channel is {!post}.  A callback running on shard [i]
    must pass [~src:i]. *)

type t

type scheduler =
  | Lockstep  (** one global-minimum-delay window per epoch, all shards *)
  | Adaptive  (** wide windows, per-channel bounds, idle fast-forward *)

val create :
  ?seed:int ->
  ?scheduler:scheduler ->
  ?channels:(int * int * Time_ns.span) list ->
  sources:int ->
  lookahead:Time_ns.span ->
  unit ->
  t
(** [sources] logical shards, each owning an {!Engine} seeded from an
    independent stream derived from [(seed, shard index)] ([seed]
    defaults to 42).  [lookahead] is the default cross-shard latency:
    without [channels] every source pair (including self-sends) is a
    channel with that minimum delay — the historical uniform matrix.
    With [channels], only the listed [(src, dst, min_delay)] pairs may
    exchange messages (duplicates keep the smallest delay) and a
    {!post} on any other pair raises; unlisted pairs carry no bound,
    which is what lets the adaptive scheduler run un-coupled shards
    ahead.  The adaptive outer window spans [16 * lookahead];
    [scheduler] defaults to [Adaptive].
    @raise Invalid_argument if [sources < 1], any delay is not
    positive, or a channel endpoint is out of range. *)

val sources : t -> int

val lookahead : t -> Time_ns.span

val scheduler : t -> scheduler

val engine : t -> int -> Engine.t
(** The engine of one logical shard.
    @raise Invalid_argument on an out-of-range index. *)

val post :
  t -> src:int -> dst:int -> at:Time_ns.t -> (Engine.t -> unit) -> unit
(** Send a cross-shard message: [fire] runs on shard [dst]'s engine at
    time [at], receiving that engine.  Messages are delivered in
    [(at, src, seq)] order, where [seq] is a per-source counter — a
    total order independent of shard grouping.  Must be called either
    before {!run} (pre-run setup: provisioning, fault schedules) or
    from a callback executing on shard [src]; in the latter case [at]
    must be at or past shard [dst]'s current safe horizon — guaranteed
    whenever [at >= now + declared channel delay], which is the
    channel contract.
    @raise Invalid_argument on an out-of-range shard index, a pair
    with no declared channel, or a delivery time inside the
    destination's open window. *)

val run :
  ?until:Time_ns.t ->
  ?shards:int ->
  ?executor:((int -> unit) -> unit) ->
  t ->
  unit
(** Drive all shards to completion (or to [until], inclusive, exactly
    like {!Engine.run}).  The logical shards are grouped onto at most
    [shards] strands (default 1): shard 0 alone on strand 0, the rest
    round-robin.  Once per synchronization round, [executor f] must
    run [f w] for every strand [w] in [0, shards) — concurrently or
    not — and return only when all calls have completed, establishing
    the usual happens-before in both directions
    ([Horse_parallel.Team.run] does exactly this; the default calls
    every strand inline, in strand order).  Rounds whose work lives on
    a single strand skip the executor entirely.  Results are
    bit-identical for every [shards]/[executor].
    @raise Invalid_argument if [shards < 1]. *)

(** {2 Instrumentation}

    Counters over the life of the instance.  All of them are functions
    of the workload alone — identical across shard counts and
    executors — except wall-clock barrier time, which lives on the
    team ([Horse_parallel.Team.barrier_wait_ns]). *)

val epochs : t -> int
(** Outer windows executed.  Under [Lockstep] every window is one
    barrier round; under [Adaptive] a window covers a whole
    fast-forward gap plus [16 * lookahead] of virtual time. *)

val rounds : t -> int
(** Synchronization rounds executed (equals {!epochs} under
    [Lockstep]).  Each round is at most one executor fan-out. *)

val fast_forwards : t -> int
(** Windows that started strictly past the previous window's end —
    idle virtual time crossed without walking epochs. *)

val messages_delivered : t -> int
(** Cross-shard messages delivered so far. *)

val events_drained : t -> int array
(** Per-shard count of events fired by each shard's engine — the
    load-balance picture across strands. *)
