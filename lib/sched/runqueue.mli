(** A per-CPU run queue: credit-sorted vCPUs + tracked load.

    This is the object both of the paper's hot operations act on:
    step ④ inserts vCPUs into its sorted list, step ⑤ updates its
    lock-protected load.  A run queue can be reserved as an
    [ull_runqueue] (§4.1.3): only uLL sandboxes land there, its
    timeslice is capped at 1 µs, and it counts the paused sandboxes
    {e attached} to it, whose P²SM plans target it.

    The queue is an {!Horse_psm.Arena_list}: removals are O(1), and
    every structural mutation still reports the nodes the boxed
    oracle would have walked (for cost accounting).  Each mutation
    also adds the attached count to the attachers' maintenance
    counter: the §4.1.3 posA updates the paper's scheme performs, one
    per attached plan.  The updates themselves are deferred: a plan
    recomputes its posA when it is read after the list's
    {!Horse_psm.Arena_list.version} moved, so the queue holds no
    plans and tells none of them anything.  The list's own order
    buffer is the paper's [arrayB] for every plan at once, so a plan
    keeps no copy of the queue.  Nothing is allocated per
    mutation. *)

type t

type kind =
  | Normal  (** general-purpose queue *)
  | Ull  (** reserved for uLL sandboxes, 1 µs timeslice *)

val create :
  ?arena:Vcpu.t Horse_psm.Arena_list.arena ->
  ?kind:kind ->
  cpu:Horse_cpu.Topology.cpu_id ->
  id:int ->
  unit ->
  t
(** [arena] shares slot storage between queues (the scheduler passes
    one arena for all its queues, which is what lets P²SM splice a
    paused sandbox's list into a queue); by default the queue gets a
    private arena. *)

val id : t -> int

val cpu : t -> Horse_cpu.Topology.cpu_id

val kind : t -> kind

val is_ull : t -> bool

val set_kind : t -> kind -> unit
(** Re-purpose the queue (reservation happens before any workload
    runs).  @raise Invalid_argument if the queue is not empty. *)

val timeslice : t -> Horse_sim.Time_ns.span
(** 1 µs for [Ull] queues (§4.1.3), 10 ms for [Normal] ones (a
    credit2-like default). *)

val length : t -> int

val queue : t -> Vcpu.t Horse_psm.Arena_list.t
(** The underlying sorted list (P²SM plans are built over it, and
    address its nodes through its order buffer). *)

val arena : t -> Vcpu.t Horse_psm.Arena_list.arena
(** The slot arena backing this queue (shared across a scheduler). *)

val load : t -> Load_tracking.t

val enqueue : t -> Vcpu.t -> Horse_psm.Arena_list.handle * int
(** Sorted insert (step ④ for one vCPU).  Returns the handle (the
    caller keeps it to dequeue later) and the nodes walked.  Marks
    the vCPU [Queued] and counts one update per attached plan.  Does
    {e not} touch the load — the resume path chooses vanilla or
    coalesced load updates separately. *)

val dequeue : t -> Horse_psm.Arena_list.handle -> int
(** Unlink a previously enqueued node; returns the nodes the oracle
    would have walked (= its position).  Marks the vCPU [Offline] and
    counts one update per attached plan.
    @raise Not_found if the node is not on this queue. *)

val pop_front : t -> Vcpu.t option
(** Scheduler pick: the least-credit vCPU, removed from the queue
    (counted like {!dequeue}). *)

val apply_merge :
  t ->
  plan:Vcpu.t Horse_psm.Psm.Plan.t ->
  source:Vcpu.t Horse_psm.Arena_list.t ->
  Horse_psm.Psm.Plan.stats * Horse_psm.Arena_list.handle array
(** The P²SM merge of a resuming sandbox's [merge_vcpus] into this
    queue ({!Horse_psm.Psm.Plan.execute}, which refreshes a plan the
    queue has outdated).  Then detaches the merging sandbox and counts
    one insert per spliced vCPU for every plan still attached.  All
    spliced vCPUs are marked [Queued].  Also returns the spliced
    handles (source order) so the resumer can record its
    placements.
    @raise Invalid_argument if [plan] was built over another queue or
    source.
    @raise Horse_psm.Psm.Stale as {!Horse_psm.Psm.Plan.execute}. *)

val attach : t -> events:int ref -> unit
(** A paused sandbox's plan now targets this queue: every later
    mutation adds one more to [events], until the matching
    {!detach}.
    @raise Invalid_argument if sandboxes attached with another
    [events] counter are still attached. *)

val detach : t -> unit
(** The inverse of one {!attach}; {!apply_merge} does it for the
    merging sandbox.  Each attach is detached exactly once (the VMM's
    merge and teardown both consume the paused state).
    @raise Invalid_argument if nothing is attached. *)

val attached : t -> int
(** Sandboxes attached now: the paused sandboxes assigned to this
    queue. *)
