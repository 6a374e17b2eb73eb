(** The original boxed-cell event queue, kept as a reference model.

    Semantically identical to {!Event_queue} (timestamp order, FIFO
    among equal timestamps, O(1) tombstoning cancel) but implemented
    the straightforward way: one allocated cell per event on a generic
    {!Binary_heap}.  It exists so the flat production queue can be
    property-tested against an independent implementation. *)

type 'a t

type handle

val create : unit -> 'a t

val schedule : 'a t -> at:Time_ns.t -> 'a -> handle

val cancel : 'a t -> handle -> bool

val next_time : 'a t -> Time_ns.t option

val pop : 'a t -> (Time_ns.t * 'a) option

val length : 'a t -> int

val is_empty : 'a t -> bool
