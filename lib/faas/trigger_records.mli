(** Struct-of-arrays arena for completed-invocation records.

    Seven parallel int columns (fn-id, start-mode code, and the five
    time fields as integer nanoseconds), grown by doubling and
    addressed by slot index.  Appending writes seven ints and boxes
    nothing, so the per-trigger record cost is 7 words flat — the
    replacement for [Platform]'s old [record list], whose cons + boxed
    record + string name made 100M-trigger runs O(run length) in GC
    pressure.

    The mode column carries owner-defined dense codes (the platform
    maps its [start_mode] onto them); the fn-id column carries
    {!Function_def.Registry} ids.  Rows are never removed, so a slot
    names one completed invocation for the arena's lifetime: this row
    is the one store of a completed trigger, and everything downstream
    (the cluster's completion logs, the workflow node rows) refers to
    it by slot rather than copying it. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty arena ([capacity] rows pre-sized, default 64). *)

val length : t -> int
(** Rows appended so far — append order is completion order. *)

val append :
  t ->
  fn_id:int ->
  mode:int ->
  triggered_at:Horse_sim.Time_ns.t ->
  init:Horse_sim.Time_ns.span ->
  exec:Horse_sim.Time_ns.span ->
  preemption:Horse_sim.Time_ns.span ->
  completed_at:Horse_sim.Time_ns.t ->
  int
(** Append one row and return its slot; allocation-free except on
    capacity doubling. *)

(** {2 Column reads} — all O(1), allocation-free, by slot index
    ([0 .. length - 1]).
    @raise Invalid_argument on an out-of-range slot. *)

val fn_id : t -> int -> int

val mode_code : t -> int -> int

val triggered_at : t -> int -> Horse_sim.Time_ns.t

val init : t -> int -> Horse_sim.Time_ns.span

val exec : t -> int -> Horse_sim.Time_ns.span

val preemption : t -> int -> Horse_sim.Time_ns.span

val completed_at : t -> int -> Horse_sim.Time_ns.t

val total_ns : t -> int -> int
(** init + exec + preemption, in nanoseconds — the end-to-end latency
    every experiment aggregates. *)

val iter : t -> (int -> unit) -> unit
(** Apply to every slot index in append (= completion) order. *)
