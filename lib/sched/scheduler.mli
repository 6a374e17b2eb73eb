(** The hypervisor scheduler: one run queue per logical CPU, with a
    reserved set of [ull_runqueue]s (paper §4.1.3).

    Placement policies:
    - normal vCPUs go to the least-loaded non-uLL queue (a simple
      load-balancing rule standing in for credit2's runqueue pick);
    - a pausing uLL sandbox is {e assigned} an ull_runqueue up front,
      chosen by the number of paused sandboxes already attached to
      each (the paper's load-balancing rule), so that its P²SM
      structures are maintained against the right queue. *)

type t

val create :
  ?ull_count:int -> topology:Horse_cpu.Topology.t -> unit -> t
(** One queue per logical CPU.  The last [ull_count] (default 1)
    CPUs' queues are reserved as ull_runqueues.
    @raise Invalid_argument if [ull_count < 0] or exceeds the CPU
    count. *)

val topology : t -> Horse_cpu.Topology.t

val arena : t -> Vcpu.t Horse_psm.Arena_list.arena
(** The slot arena shared by all of this scheduler's queues (paused
    sandboxes build their [merge_vcpus] in it so P²SM can splice). *)

val cpu_count : t -> int

val runqueue : t -> cpu:Horse_cpu.Topology.cpu_id -> Runqueue.t

val runqueues : t -> Runqueue.t array
(** All queues, indexed by CPU. *)

val ull_runqueues : t -> Runqueue.t list

val add_ull_runqueue : t -> Runqueue.t
(** Grow the reserved set by one (§4.1.3: "we can increase the number
    of ull_runqueue"), taking the highest-numbered normal queue.
    @raise Invalid_argument if no empty normal queue remains. *)

val select_normal : t -> Runqueue.t
(** Least-loaded (by tracked load, then occupancy) non-uLL queue —
    where a vanilla resume puts each vCPU. *)

val select_ull_for_pause : t -> Runqueue.t
(** The ull_runqueue with the fewest attached paused sandboxes
    ({!Runqueue.attached}), the first in {!ull_runqueues} on a tie.
    @raise Invalid_argument if no ull_runqueue is reserved. *)

val total_queued : t -> int
(** vCPUs sitting on all queues together. *)

val global_load : t -> Load_tracking.t
(** The single lock-protected load variable of the paper's step ⑤:
    "a lock-protected variable, which represents the vCPUs' load on
    each CPU", consumed by the DVFS governor.  Vanilla resume updates
    it once per vCPU; HORSE applies one coalesced update. *)
