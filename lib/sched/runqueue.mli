(** A per-CPU run queue: credit-sorted vCPUs + tracked load.

    This is the object both of the paper's hot operations act on:
    step ④ inserts vCPUs into its sorted list, step ⑤ updates its
    lock-protected load.  A run queue can be reserved as an
    [ull_runqueue] (§4.1.3): only uLL sandboxes land there, its
    timeslice is capped at 1 µs, and it holds the P²SM plans of the
    paused sandboxes {e attached} to it, keeping them fresh.

    The queue is an {!Horse_psm.Arena_list}: removals are O(1), and
    every structural mutation still reports the nodes the boxed
    oracle would have walked (for cost accounting).  Each mutation
    also updates every attached plan in place, in attach order, with
    {!Horse_psm.Psm.Plan.note_target_insert} or
    {!Horse_psm.Psm.Plan.note_target_remove}, and adds the number of
    plans it updated to the attachers' maintenance counter.  The
    list's own order buffer is the paper's [arrayB] for every plan at
    once, so a plan keeps no copy of the queue.  Nothing is allocated
    per mutation. *)

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
    the vCPU [Queued] and updates the attached plans.  Does {e not} touch
    the load — the resume path chooses vanilla or coalesced load
    updates separately. *)

val dequeue : t -> Horse_psm.Arena_list.handle -> int
(** Unlink a previously enqueued node; returns the nodes the oracle
    would have walked (= its position).  Marks the vCPU [Offline] and
    updates the attached plans.
    @raise Not_found if the node is not on this queue. *)

val pop_front : t -> Vcpu.t option
(** Scheduler pick: the least-credit vCPU, removed from the queue
    (the attached plans note a removal at position 0). *)

val apply_merge :
  t ->
  plan:Vcpu.t Horse_psm.Psm.Plan.t ->
  source:Vcpu.t Horse_psm.Arena_list.t ->
  Horse_psm.Psm.Plan.stats * Horse_psm.Arena_list.handle array
(** The P²SM merge of a resuming sandbox's [merge_vcpus] into this
    queue.  Detaches [plan] first, then tells every plan still
    attached of one insert per spliced vCPU.  All spliced vCPUs are
    marked [Queued].  Also returns the spliced handles (source order)
    so the resumer can record its placements.
    @raise Invalid_argument if [plan] was built over another queue or
    source.
    @raise Horse_psm.Psm.Stale as {!Horse_psm.Psm.Plan.execute}. *)

val attach : t -> events:int ref -> Vcpu.t Horse_psm.Psm.Plan.t -> unit
(** Keep a paused sandbox's plan (built over this queue) fresh until
    it is detached: every later mutation updates it, after the plans
    attached before it, and adds one to [events].
    @raise Invalid_argument if plans attached with another [events]
    counter are still attached. *)

val detach : t -> Vcpu.t Horse_psm.Psm.Plan.t -> unit
(** Stop updating the plan.  Idempotent. *)

val attached : t -> int
(** Plans attached now: the paused sandboxes assigned to this queue. *)
