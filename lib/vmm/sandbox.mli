(** Sandboxes: the (micro)VMs a FaaS platform runs functions in.

    A sandbox owns a fixed set of vCPUs and memory.  Its lifecycle is

    {v Created ──boot──▶ Running ◀──resume── Paused
                            └───────pause──────┘ v}

    plus [Stopped] (destroyed) and [Crashed] (killed by an injected
    fault; a crashed sandbox is never reused — the platform's
    fallback ladder starts a fresh one).  While [Paused] under a
    HORSE-family
    strategy it carries the precomputed fast-resume state of §4.1.3 /
    §4.2.2: the pre-sorted [merge_vcpus] list, the P²SM plan against
    its assigned ull_runqueue (whose own order buffer is the plan's
    [arrayB]), the run-queue subscription keeping the plan fresh, and
    the coalesced load-update constants.
    That state is created by {!Vmm.pause} and consumed by
    {!Vmm.resume}; this module only stores it. *)

type state = Created | Booting | Running | Paused | Stopped | Crashed

type strategy =
  | Vanilla  (** the unmodified resume path (§3.1) *)
  | Ppsm  (** P²SM merge, vanilla load updates (ablation) *)
  | Coal  (** vanilla merge, coalesced load update (ablation) *)
  | Horse  (** P²SM + coalescing (§4) *)

val strategy_name : strategy -> string

val strategy_count : int

val strategy_code : strategy -> int
(** Dense code in \[0, {!strategy_count}): index per-strategy state
    (metric handles, tables) without hashing the name. *)

val strategies : strategy array
(** All strategies, indexed by {!strategy_code}.  Do not mutate. *)

type placement = {
  vcpu : Horse_sched.Vcpu.t;
  node : Horse_psm.Arena_list.handle;
  queue : Horse_sched.Runqueue.t;
}
(** Where one vCPU currently sits (the handle is live on [queue]). *)

type horse_state = {
  merge_vcpus : Horse_sched.Vcpu.t Horse_psm.Arena_list.t;
      (** the sandbox's vCPUs, pre-sorted by the scheduler's key, in
          the ull_runqueue's arena so the merge can splice them *)
  ull_queue : Horse_sched.Runqueue.t;
      (** assigned at pause time; its order buffer is [arrayB] *)
  plan : Horse_sched.Vcpu.t Horse_psm.Psm.Plan.t;  (** posA *)
  subscription : Horse_sched.Runqueue.subscription;
      (** refreshes [plan] on every queue mutation while paused; each
          refresh counts in the VMM's [psm.maintenance_events] (§5.2's
          overhead) *)
  precomputed : Horse_coalesce.Coalesce.Precomputed.t option;
      (** the §4.2.2 constants; [None] for [Ppsm] (vanilla load path) *)
}

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

val placements : t -> placement list
(** Current vCPU placements ([] unless Running). *)

val set_placements : t -> placement list -> unit

val pause_strategy : t -> strategy option
(** The strategy recorded by the last pause, if paused. *)

val set_pause_strategy : t -> strategy option -> unit

val paused_values : t -> Horse_sched.Vcpu.t list
(** vCPU values stashed by a vanilla-family pause (resume re-inserts
    them one by one). *)

val set_paused_values : t -> Horse_sched.Vcpu.t list -> unit

val coal_precomputed : t -> Horse_coalesce.Coalesce.Precomputed.t option
(** The §4.2.2 constants for a [Coal]-strategy pause. *)

val set_coal_precomputed :
  t -> Horse_coalesce.Coalesce.Precomputed.t option -> unit

val horse_state : t -> horse_state option

val set_horse_state : t -> horse_state option -> unit

val horse_memory_footprint_bytes : t -> int
(** Estimated bytes held by the P²SM structures while paused (0 when
    not paused under P²SM) — the §5.2 memory-overhead figure. *)

val pp : Format.formatter -> t -> unit
