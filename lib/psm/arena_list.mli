(** Flat slot-arena sorted lists — the run-queue substrate.

    Same recipe {!Horse_sim.Event_queue} proved for the event core,
    applied to the paper's other hot structure: a sorted list whose
    order is one per-list order buffer of slots (a gap buffer, the
    paper's [arrayB]), over arena-wide parallel [int] arrays
    (position/owner/generation) plus one payload array, addressed by
    immediate [(generation, slot)] handles.  The order buffer is the
    list's only record of its order.  One {!arena} hosts many
    lists (every run queue of a scheduler, plus the [merge_vcpus] of
    paused sandboxes), which is what lets P²SM move a source list's
    slots into a target list without copying them.

    Versus {!Linked_list} (kept as the reference oracle):
    - [remove_node] and [pop_first] find their element in O(1) and
      close the gap on the shorter side of the buffer (O(1) at either
      end) instead of an O(n) head walk — no boxed cells, no walk;
    - the {e reported} cost is unchanged: every mutation still returns
      the node count the old list walked (the position of the element,
      found by binary search over the per-list order buffer), because
      that number feeds the calibrated simulator cost model and must
      stay bit-identical;
    - insertion keeps FIFO order among equal elements, as a run queue
      requires.

    {b Handle invariants.}  A handle is valid from the [insert_sorted]
    that returned it until the [remove_node]/[pop_first] that frees
    its slot; freeing bumps the slot's generation, so stale handles
    are detected ([Not_found]) rather than aliased.  A P²SM merge
    {e re-owns} handles: after {!Unsafe.merge_commit} the source
    list's handles remain valid but now belong to the target list.
    Positions obtained from handles are only meaningful while the
    owning list is unchanged, which {!version} tells: every structural
    mutation of a list bumps its counter, so a structure derived from
    a list (a P²SM plan) can record the version it was computed at
    and recompute only when the list has changed since. *)

type 'a arena
(** Shared slot storage for lists of ['a] under one ordering. *)

type 'a t
(** One sorted list carved out of an arena. *)

type handle
(** Immediate [(generation, slot)] reference to one element. *)

val create_arena :
  ?capacity:int -> compare:('a -> 'a -> int) -> unit -> 'a arena
(** An empty arena; [capacity] (default 16) pre-sizes the slot arrays,
    which double on demand. *)

val create : 'a arena -> 'a t
(** A new empty list drawing slots from [arena]. *)

val arena : 'a t -> 'a arena

val live_slots : 'a arena -> int
(** Slots currently owned by some list of the arena.  Every alloc must
    be balanced by a release, so after all the arena's lists empty out
    this must read 0 — the leak detector the fault-injection tests
    audit with. *)

val length : 'a t -> int

val version : 'a t -> int
(** Structural mutations of the list so far: [insert_sorted],
    [remove_node], a [pop_first] that removes, and
    {!Unsafe.merge_commit} (on both lists) each add one.  Equal
    versions mean an unchanged list. *)

val is_empty : 'a t -> bool

val value : 'a t -> handle -> 'a
(** @raise Not_found if the handle is stale or owned by another
    list. *)

val mem : 'a t -> handle -> bool
(** True iff the handle is live and owned by this list. *)

val position : 'a t -> handle -> int
(** Current 0-based sorted position, O(1).
    @raise Not_found as {!value}. *)

val insert_sorted : 'a t -> 'a -> handle * int
(** Insert keeping order (stable: after equal elements); returns the
    handle and the number of nodes the oracle list would have walked
    past (= the element's position, by binary search — the
    sorted-merge cost of resume step ④, computed without walking). *)

val remove_node : 'a t -> handle -> int
(** Remove, closing the gap on the shorter side of the order buffer
    (O(min(position, length - position)), O(1) at either end);
    returns the nodes the oracle would have walked (= the removed
    element's position).  Frees the slot: the handle becomes stale.
    @raise Not_found if stale or foreign. *)

val pop_first : 'a t -> 'a option
(** Remove and return the head element, O(1). *)

val upper_bound : 'a t -> from:int -> 'a -> int
(** The first 0-based position at or after [from] whose element
    exceeds [x], or [length t] if none does; a binary search,
    O(log (length t - from)), allocating nothing.  From 0 this is the
    number of elements [<= x]; from a position whose predecessors are
    all [<= x] it is the same number, found faster. *)

val nth : 'a t -> int -> handle
(** Handle at 0-based position [i], O(1).
    @raise Invalid_argument if out of range. *)

val handles : 'a t -> handle array
(** All handles in sorted order (fresh array). *)

val to_list : 'a t -> 'a list

val of_sorted_list : 'a arena -> 'a list -> 'a t
(** Wrap an already sorted list (O(n)).
    @raise Invalid_argument if the input is not sorted under the
    arena's ordering. *)

val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val is_sorted : 'a t -> bool
(** Full invariant check (order, position/buffer agreement, ownership)
    used by tests and debug assertions. *)

(** Raw merge surgery for {!Psm} — Algorithm 1's merge, phrased as
    order-buffer stores.  Using it directly can break every invariant;
    nothing outside P²SM should. *)
module Unsafe : sig
  val merge_commit :
    target:'a t ->
    source:'a t ->
    keys:int array ->
    counts:int array ->
    nseg:int ->
    unit
  (** Merge [source] into [target]: rebuild the target's order buffer
      by a single two-cursor pass over both lists' orders (segment [i]
      of [counts.(i)] source elements entering before target position
      [keys.(i)], for [i < nseg]), re-own the source slots, fix
      lengths, and leave [source] empty.  O(|A| + |B|) at most, in
      place when the target's buffer has room (target elements before
      the first key are then not touched).  Keys must be strictly
      ascending and the counts must sum to [length source]. *)
end
