(** The pending-event set of the discrete-event engine.

    Events are ordered by timestamp; events scheduled for the same
    instant fire in FIFO order of their scheduling (a sequence number
    breaks ties), which keeps runs deterministic. *)

type 'a t
(** A queue of payloads of type ['a] tagged with firing times. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t

val schedule : 'a t -> at:Time_ns.t -> 'a -> handle
(** Enqueue [payload] to fire at [at].  Scheduling in the past is the
    caller's bug and raises [Invalid_argument] when popped before a
    later event (the queue itself accepts any timestamp). *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] prevents the event from firing.  Returns [false] if
    it already fired or was already cancelled.  The handle leads
    straight to the event's heap position, which a sift removes in
    O(log n) with no allocation. *)

val next_time : 'a t -> Time_ns.t option
(** The firing time of the earliest live event. *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** Remove and return the earliest live event. *)

val pop_until : 'a t -> limit:Time_ns.t option -> (Time_ns.t * 'a) option
(** [pop_until q ~limit] is [pop q] restricted to events firing at or
    before [limit] ([None] means no bound).  The limit check and the
    removal share one look at the heap root, so a run loop pays no
    separate peek.  Events beyond the limit stay queued. *)

val length : 'a t -> int
(** The number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool
