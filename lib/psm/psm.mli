(** P²SM — parallel precomputed sorted merge (paper §4.1).

    Merges a sorted list [A] (a paused sandbox's [merge_vcpus]) into a
    sorted list [B] (the [ull_runqueue]) in O(1) pointer writes, using:

    - the paper's [arrayB]: position [k] → the handle of [B]'s node at
      position [k], so splice points are addressable without walking.
      This is [B]'s own order buffer ({!Arena_list.nth}, O(1)), which
      the list keeps current on every mutation — one array per queue,
      shared by every subscribed plan, not a copy per paused sandbox;
    - {!Plan} — the paper's [posA]: a map from splice position in [B]
      to the contiguous sublist of [A] that belongs there.

    Both lists live in one {!Arena_list.arena}, so the splice is plain
    [int]-array surgery and a handle stays valid across the merge (the
    slot is re-owned by the target, not copied).

    The key of an element [a] of [A] is [#{b ∈ B : b ≤ a}]: the
    number of elements of [B] it must be placed after (equal elements
    of [B] keep priority, matching the stable FIFO order of a run
    queue).  Sublists with distinct keys touch disjoint chain cells,
    so the merge needs no mutual exclusion — Algorithm 1's
    parallelism argument — and {!Plan.execute_parallel} really runs
    it on OCaml domains.

    The plan supports the incremental maintenance of §4.1.3: while a
    sandbox stays paused, every insert/remove on the ull_runqueue is
    reflected with {!Plan.note_target_insert} /
    {!Plan.note_target_remove}, and every vCPU added to the paused set
    with {!Plan.note_source_insert}.  [arrayB] needs no upkeep of its
    own.  The maintenance path is in-place over flat [int] arrays: it
    allocates nothing per event, which is what keeps resume storms
    (thousands of subscribed paused sandboxes) affordable. *)

exception Stale
(** Raised by merge execution when the precomputed structures do not
    match the current lists (a missed incremental update — a bug in
    the caller's bookkeeping). *)

module Plan : sig
  type 'a t
  (** The [posA] of the paper, for one (source, target) pair.  Stored
      as flat parallel arrays (key, head handle, tail handle, count
      per segment), so incremental maintenance is in-place int
      arithmetic.  The plan also counts the target length its
      {!note_target_insert}/{!note_target_remove} calls imply, which
      is how {!execute} detects a target mutation nobody reported.
      Functions that name the lists raise [Invalid_argument] if they
      are not the plan's. *)

  type stats = {
    threads : int;  (** segments spliced = merge threads used *)
    spliced : int;  (** elements transferred *)
    max_segment : int;  (** longest sublist (0 if empty source) *)
  }

  val build : source:'a Arena_list.t -> target:'a Arena_list.t -> 'a t
  (** The precompute phase, by a linear two-pointer scan
      (O(|A| + |B|)).  Source and target must share an arena. *)

  val key_count : 'a t -> int

  val total : 'a t -> int
  (** Elements covered by the plan (must equal [|A|] at merge time). *)

  val keys : 'a t -> int list
  (** Sorted splice keys (for inspection and tests). *)

  val keys_counts : 'a t -> int array * int array
  (** Fresh copies of the (key, element count) pairs, segment order.
      Taken {e before} {!execute}, they let the run-queue layer tell
      other subscribers where each element landed (§4.1.3's continuous
      updates after a merge) in one pass. *)

  val segments_snapshot : 'a t -> (int * Arena_list.handle list) list
  (** The current (key, nodes) decomposition, keys ascending and nodes
      in source order (test/debug inspection). *)

  val note_target_insert : 'a t -> pos:int -> 'a -> unit
  (** The target gained an element with value [v] at 0-based position
      [pos]: shifts affected keys and splits the straddling segment.
      Call for every paused plan whenever the ull_runqueue grows.
      Allocates nothing. *)

  val note_target_remove : 'a t -> pos:int -> unit
  (** The target lost the element at 0-based position [pos]: shifts
      keys down and coalesces the two segments that become
      adjacent.  Allocates nothing. *)

  val note_source_insert :
    'a t -> target:'a Arena_list.t -> node:Arena_list.handle -> unit
  (** A node was just inserted (sorted) into the source list; extends
      or creates the segment its value belongs to. *)

  val note_source_remove : 'a t -> node:Arena_list.handle -> unit
  (** A node is about to be removed from the source list.  Must be
      called {e before} unlinking it.
      @raise Not_found if the node is not covered by the plan. *)

  val execute :
    'a t -> target:'a Arena_list.t -> source:'a Arena_list.t -> stats
  (** The merge phase (Algorithm 1): two chain writes per key, each
      anchored at the target node its key names in the target's order
      buffer, then one O(|A| + |B|) order-buffer commit
      ({!Arena_list.Unsafe.merge_commit}) — per merge, not per
      subscriber.  Consumes the source (left empty; its handles stay
      valid, re-owned by the target), grows the target and
      invalidates the plan.
      @raise Stale if the plan was already executed, or the target
      length or source length differs from what the plan was told
      (a missed update). *)

  val execute_parallel :
    domains:int ->
    'a t ->
    target:'a Arena_list.t ->
    source:'a Arena_list.t ->
    stats
  (** Same, splicing segments from up to [domains] parallel strands:
      one {!Horse_parallel.Team.run} round on the cached team of width
      [domains] ({!Horse_parallel.Team.shared}), strand [w] splicing
      segments [w], [w + domains], … (nothing when [w] is past the
      last segment) — the no-mutual-exclusion claim,
      executed for real on OCaml domains, without a spawn/join per
      merge.  [domains = 1] (or a single segment) splices inline, and
      so does a call from inside a round of the same team (the team's
      nesting rule).
      @raise Invalid_argument if [domains < 1]. *)

  val is_consistent :
    'a t -> target:'a Arena_list.t -> source:'a Arena_list.t -> bool
  (** True iff rebuilding from scratch yields this plan — the
      incremental-maintenance correctness oracle used by tests. *)
end
