(** P²SM — parallel precomputed sorted merge (paper §4.1).

    Merges a sorted list [A] (a paused sandbox's [merge_vcpus]) into a
    sorted list [B] (the [ull_runqueue]) without searching [B] at
    resume time, using:

    - the paper's [arrayB]: position [k] → [B]'s node at position
      [k], so splice points are addressable without walking.  This is
      [B]'s own order buffer, which is the list itself
      ({!Arena_list}) — one array per queue, shared by every attached
      plan, not a copy per paused sandbox;
    - {!Plan} — the paper's [posA]: a map from splice position in [B]
      to the contiguous sublist of [A] that belongs there.

    Both lists live in one {!Arena_list.arena}, so the merge is one
    pass of plain [int]-array stores over the two order buffers
    ({!Arena_list.Unsafe.merge_commit}), and a handle stays valid
    across it (the slot is re-owned by the target, not copied).

    The key of an element [a] of [A] is [#{b ∈ B : b ≤ a}]: the
    number of elements of [B] it must be placed after (equal elements
    of [B] keep priority, matching the stable FIFO order of a run
    queue).  Sublists with distinct keys land in disjoint parts of
    the merged order, which is Algorithm 1's argument that its merge
    threads need no mutual exclusion.  The host runs the merge as one
    sequential pass; the paper's merge threads are modelled in
    virtual time, from {!Plan.stats.threads}.

    While a sandbox stays paused its [posA] must follow the
    ull_runqueue (§4.1.3).  The upkeep is deferred: a plan is a cache
    of [posA] keyed by the target's {!Arena_list.version}, recomputed
    in place by the first read after the target changed — in practice
    once, at the merge.  A plan absorbs hundreds of queue mutations
    before it merges, against a recomputation that touches
    [|A| + |B|] elements at most, so keeping every plan fresh on every
    mutation would be mostly wasted.  The source needs no upkeep: a
    paused sandbox's vCPU set is fixed from its pause to its resume.
    Nor does [arrayB]. *)

exception Stale
(** Raised by a plan that was already executed, or whose source
    changed after {!Plan.build} (a bug in the caller's bookkeeping:
    a paused sandbox's vCPU set is fixed). *)

module Plan : sig
  type 'a t
  (** The [posA] of the paper, for one (source, target) pair.  Stored
      as flat parallel arrays (key and count per segment) with the
      target version they were computed at.  Every read
      ({!key_count}, {!keys}, {!execute}) first recomputes them in
      place if the target has changed since, so a read always sees the current
      target; each raises {!Stale} if the plan was executed or its
      source changed.  Functions that name the lists raise
      [Invalid_argument] if they are not the plan's. *)

  type stats = {
    threads : int;  (** segments spliced = merge threads used *)
    spliced : int;  (** elements transferred *)
    max_segment : int;  (** longest sublist (0 if empty source) *)
  }

  val build : source:'a Arena_list.t -> target:'a Arena_list.t -> 'a t
  (** A plan for merging [source] into [target], which must share an
      arena.  The precompute phase runs at the first read: each source
      element's key is found by binary search over the target's order
      buffer, starting from the previous element's key
      (O(|A| log |B|)), into the plan's own arrays. *)

  val key_count : 'a t -> int

  val keys : 'a t -> int list
  (** Sorted splice keys (for inspection and tests). *)

  val execute :
    'a t -> target:'a Arena_list.t -> source:'a Arena_list.t -> stats
  (** The merge phase (Algorithm 1): one order-buffer commit
      ({!Arena_list.Unsafe.merge_commit}), each segment entering
      before the target position its key names — O(|A| + |B|) at
      most, per merge, not per attached plan.  First refreshes the
      plan if its target changed.
      Consumes the source (left empty; its handles stay valid,
      re-owned by the target), grows the target and invalidates the
      plan.
      @raise Stale if the plan was already executed or its source
      changed after {!build}. *)
end
