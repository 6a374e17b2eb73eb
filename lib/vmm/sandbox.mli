(** Sandboxes: the (micro)VMs a FaaS platform runs functions in.

    A sandbox owns a fixed set of vCPUs and memory.  Its lifecycle is

    {v Created ──boot──▶ Running ◀──resume── Paused
                            └───────pause──────┘ v}

    plus [Stopped] (destroyed) and [Crashed] (killed by an injected
    fault; a crashed sandbox is never reused — the platform's
    fallback ladder starts a fresh one).  While [Paused] it carries
    the resume state its pause strategy precomputed, as one {!paused}
    value: nothing for [Vanilla] (the resume re-inserts {!vcpus} one
    by one), the §4.2.2 coalesced load-update constants for [Coal],
    the §4.1.3 P²SM state for [Ppsm] (the pre-sorted [merge_vcpus]
    list and the plan against its assigned ull_runqueue, whose own
    order buffer is the plan's [arrayB] and whose mutations the plan
    catches up with when read), and both for [Horse].  That state is
    created by {!Vmm.pause} and consumed by {!Vmm.resume}; this module
    only stores it.  While [Running] it records where its vCPUs sit,
    once: two arrays in placement order, {!nodes} (the run-queue
    handles) and {!queues}, which the VMM writes in place and the
    platform reads for the CPUs an invocation occupies. *)

type state = Created | Booting | Running | Paused | Stopped | Crashed

type strategy =
  | Vanilla  (** the unmodified resume path (§3.1) *)
  | Ppsm  (** P²SM merge, vanilla load updates (ablation) *)
  | Coal  (** vanilla merge, coalesced load update (ablation) *)
  | Horse  (** P²SM + coalescing (§4) *)

val strategy_name : strategy -> string

val strategy_code : strategy -> int
(** The strategy's index in {!strategies}: index per-strategy state
    (metric handles, tables) without hashing the name. *)

val strategies : strategy array
(** All strategies, indexed by {!strategy_code}.  Do not mutate. *)

type psm_state = {
  merge_vcpus : Horse_sched.Vcpu.t Horse_psm.Arena_list.t;
      (** the sandbox's vCPUs, pre-sorted by the scheduler's key, in
          the ull_runqueue's arena so the merge can splice them *)
  ull_queue : Horse_sched.Runqueue.t;
      (** assigned at pause time; its order buffer is [arrayB] *)
  plan : Horse_sched.Vcpu.t Horse_psm.Psm.Plan.t;
      (** posA, attached to [ull_queue]: every queue mutation while
          paused counts one refresh in the VMM's
          [psm.maintenance_events] (§5.2's overhead); the plan performs
          it when next read, at the latest at the merge *)
}
(** The P²SM half of a HORSE-family pause (§4.1.3). *)

(** What a pause precomputed for the resume, one constructor per
    {!strategy}. *)
type paused =
  | Paused_vanilla  (** nothing: the resume merges {!vcpus} in order *)
  | Paused_coal of Horse_coalesce.Coalesce.Precomputed.t
      (** the §4.2.2 constants for the global load update *)
  | Paused_ppsm of psm_state  (** P²SM merge, vanilla load updates *)
  | Paused_horse of psm_state * Horse_coalesce.Coalesce.Precomputed.t
      (** P²SM merge and the coalesced load-update constants *)

type t

val create :
  id:int -> vcpus:int -> memory_mb:int -> ?ull:bool -> unit -> t
(** A sandbox in [Created] state.  [ull] (default false) marks it as
    hosting a uLL workload, hence eligible for ull_runqueues.
    @raise Invalid_argument if [vcpus <= 0] or [memory_mb <= 0]. *)

val id : t -> int

val vcpus : t -> Horse_sched.Vcpu.t array

val vcpu_count : t -> int

val memory_mb : t -> int

val is_ull : t -> bool

val state : t -> state

val set_state : t -> state -> unit

val nodes : t -> Horse_psm.Arena_list.handle array
(** The vCPUs' run-queue handles, in placement order: the order the
    resume put them on their queues, which is the order a pause takes
    them off.  Valid only while [Running]; do not mutate. *)

val queues : t -> Horse_sched.Runqueue.t array
(** The run queue each of {!nodes} is live on, index for index.
    Valid only while [Running]; do not mutate. *)

val place :
  t -> int -> Horse_psm.Arena_list.handle -> Horse_sched.Runqueue.t -> unit
(** [place t i node queue] records the [i]-th placed vCPU, in place. *)

val place_all :
  t -> Horse_psm.Arena_list.handle array -> Horse_sched.Runqueue.t -> unit
(** Adopt [nodes] (one per vCPU, in placement order) as {!nodes}, all
    of them on [queue]: the placement of a P²SM splice. *)

val paused : t -> paused option
(** The state the last pause left for the resume; [Some _] exactly
    while the sandbox is [Paused]. *)

val set_paused : t -> paused option -> unit

val horse_memory_footprint_bytes : t -> int
(** Estimated bytes held by the P²SM structures while paused (0 when
    not paused under P²SM) — the §5.2 memory-overhead figure. *)

val pp : Format.formatter -> t -> unit
