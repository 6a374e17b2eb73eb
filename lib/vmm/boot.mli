(** The anatomy of a cold start.

    Table 1's 1.5 s cold start is not one opaque cost: a microVM cold
    start decomposes into phases, and the snapshot techniques of the
    related work (§6) are precisely about skipping suffixes of this
    pipeline — a FaaSnap-style restore resumes after [Runtime_init],
    AWS SnapStart after [Code_load].  This module prices the phases
    individually so start strategies can be compared at phase
    granularity; the full pipeline sums to the cold-boot anchor. *)

type phase =
  | Vmm_create  (** microVM + device setup (Firecracker API calls) *)
  | Kernel_boot  (** guest kernel up to PID 1 *)
  | Runtime_init  (** language runtime start (Node.JS in the paper) *)
  | Code_load  (** tenant code fetch + module load *)
  | Handler_warmup  (** first-invocation JIT/initialisation *)

val all_phases : phase list
(** Pipeline order. *)

val phase_name : phase -> string

type profile = {
  vmm_create_ms : float;
  kernel_boot_ms : float;
  runtime_init_ms : float;
  code_load_ms : float;
  handler_warmup_ms : float;
}

val firecracker_nodejs : profile
(** Calibrated so the full pipeline is the paper's ≈1.5 s cold start
    for a Node.JS function (125 ms VMM + 410 ms kernel + 640 ms
    runtime + 210 ms code + 115 ms warmup). *)

val total : profile -> Horse_sim.Time_ns.span
(** The cold-start anchor: sum of all phases. *)

type strategy =
  | Full_boot  (** run every phase (cold start) *)
  | Resume_after of phase
      (** restore a snapshot taken after the given phase and run only
          the later ones *)

val strategy_name : strategy -> string

val cost :
  ?snapshot_restore:Horse_sim.Time_ns.span ->
  profile ->
  strategy ->
  Horse_sim.Time_ns.span
(** Start latency under [strategy].  [Resume_after p] pays
    [snapshot_restore] (default: the 1.3 ms FaaSnap anchor) plus the
    phases strictly after [p]. *)

val skipped_phases : strategy -> phase list
(** Which phases a strategy avoids (empty for [Full_boot]). *)
