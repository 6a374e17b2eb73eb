(** Frequency scaling (DVFS) driven by run-queue load.

    The point of the paper's step ⑤ is that the per-run-queue load
    variable feeds the frequency governor; this module is that
    consumer.  It models a per-CPU frequency ladder and the two
    governors the evaluation uses: [Performance] (§5.2 pins all cores
    to the top step) and a Linux-schedutil-style [Schedutil] that maps
    PELT utilisation to a ladder step with the kernel's
    [f = 1.25 · f_max · util / capacity] rule. *)

type governor =
  | Performance  (** always the highest frequency *)
  | Powersave  (** always the lowest frequency *)
  | Schedutil  (** frequency follows run-queue utilisation *)

type t
(** Per-CPU frequency state under a governor. *)

val create : ?governor:governor -> topology:Topology.t -> unit -> t
(** One frequency domain per logical CPU.  Default governor:
    [Performance], matching §5.2's experimental setup. *)

val governor : t -> governor

val frequency_mhz : t -> cpu:Topology.cpu_id -> int
(** The current frequency of [cpu]. *)

val note_utilisation : t -> cpu:Topology.cpu_id -> float -> unit
(** Feed the governor the CPU's current utilisation in [0, 1] (from
    the scheduler's load tracking).  Under [Schedutil] this may move
    the CPU to a different ladder step; the other governors ignore it.
    @raise Invalid_argument if the utilisation is outside [0, 1]. *)

val transitions : t -> int
(** Total number of frequency changes so far (a proxy for DVFS
    overhead). *)

val speed_factor : t -> cpu:Topology.cpu_id -> float
(** [frequency / nominal]: multiply work durations by its inverse to
    model slower execution at reduced frequency. *)
