(** Flat trigger batches: the allocation-light hand-off between the
    trace layer and the FaaS router.

    A batch is three parallel int columns — arrival offset (integer
    nanoseconds), interned function id, and an opaque int payload the
    consumer defines (the FaaS layer stores its dense start-mode code
    there).  Producing a million-trigger trace costs three int-array
    writes per arrival instead of a closure plus list cons each, and
    the consumer ingests it through a windowed cursor ({!arm}) so the
    event queue holds one window, not the whole trace. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty batch ([capacity] rows pre-sized, default 64). *)

val length : t -> int

val add :
  t -> at:Horse_sim.Time_ns.span -> fn_id:int -> payload:int -> unit
(** Append one trigger; allocation-free except on capacity doubling. *)

(** {2 Column reads} — O(1), by index in [0 .. length - 1].
    @raise Invalid_argument out of range. *)

val time : t -> int -> Horse_sim.Time_ns.span

val time_ns : t -> int -> int

val fn_id : t -> int -> int

val payload : t -> int -> int

val stamp_payloads : t -> (int -> int) -> unit
(** Rewrite the payload column in place: row [i]'s payload becomes
    [f i] (by row index, post-{!sort} order).  DAG-aware ingestion
    uses this to stamp per-arrival workflow-instance seeds onto an
    already-generated arrival process — the time and fn-id columns
    are untouched. *)

val sort : t -> unit
(** Stable in-place sort by arrival time: equal-time triggers keep
    insertion order, matching the engine's FIFO tie-break for
    one-by-one scheduling. *)

val sorted : t -> bool
(** Whether arrival times are non-decreasing (consumers require it). *)

val of_spans :
  ?payload:int -> fn_id:int -> Horse_sim.Time_ns.span list -> t
(** Adapt a classic sorted offset list (see {!Arrivals}) — every
    trigger gets the same function and payload. *)

val uniform :
  rng:Horse_sim.Rng.t ->
  n:int ->
  duration:Horse_sim.Time_ns.span ->
  ?fn_id:int ->
  ?payload:int ->
  unit ->
  t
(** [n] arrivals uniform over [0, duration), sorted.  Draw-for-draw
    identical to sampling [n] offsets with the same {!Horse_sim.Rng}
    and sorting the list — the flat replacement for the scale
    experiment's arrival generation.
    @raise Invalid_argument if [n < 0] or [duration] is empty. *)

val bursty :
  rng:Horse_sim.Rng.t ->
  n:int ->
  duration:Horse_sim.Time_ns.span ->
  ?burst:int ->
  ?spacing:Horse_sim.Time_ns.span ->
  ?fn_id:int ->
  ?payload:int ->
  unit ->
  t
(** [n] arrivals clumped into bursts, sorted.  Burst epochs are
    uniform over [0, duration); each clump has a geometric-shaped
    size (mean [burst], default 48) and exponential intra-clump
    spacing (mean [spacing], default 1µs), so a whole clump lands
    inside one placement round-trip.  Same aggregate rate as
    {!uniform} with the same [n]; only the clustering differs.
    @raise Invalid_argument if [n < 0], [burst < 1], or a span is
    empty. *)

val arm :
  ?window:int ->
  t ->
  lanes:int ->
  route:(int -> int) ->
  engine:(int -> Horse_sim.Engine.t) ->
  fire:(int -> int -> unit) ->
  unit
(** Ingest a sorted batch through a windowed cursor: row [k] goes to
    lane [route k] (in [0 .. lanes - 1]) and fires [fire lane k] on
    [engine lane] at the lane engine's current time plus the row's
    offset.  Each lane pre-schedules [window] arrivals at a time
    (default 4096), so its event queue holds one window rather than
    the whole trace; within a lane, rows fire in batch order.  The
    event that arms a lane's next window is scheduled before that
    window's boundary arrival, at the same instant, so it fires first
    under the engine's FIFO tie-break — one extra engine event per
    window after the first.  With [window >= length] the schedule is
    event-for-event identical to calling [Engine.schedule_at] row by
    row.
    @raise Invalid_argument if [window < 1] or the batch is unsorted. *)
