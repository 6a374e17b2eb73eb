(** The paper's evaluation, experiment by experiment.

    Each function regenerates one table or figure of the paper on the
    simulated testbed and returns typed rows; the bench harness
    formats them.  All experiments are deterministic per seed and run
    each measurement [repeats] times (default 10, the paper's
    count).

    The sweep-shaped experiments take [?jobs] (default 1): their
    independent tasks — table cells, sweep points, paired repeats —
    fan out with {!Horse_parallel.Team.map} over the cached
    process-wide team of that many strands
    ({!Horse_parallel.Team.shared}, so repeated experiments never pay
    domain spawns).  Results are {e bit-identical for every value of
    [jobs]}: tasks close over their seeds before the fan and results
    are collected in task order, so parallelism only changes
    wall-clock time, never a number. *)

type profile = Scenario.profile = Firecracker | Xen
(** See {!Scenario.cost_of_profile} and {!Scenario.profile_name}. *)

(** {1 Table 1 / Figure 1 — uLL workloads under cold/restore/warm} *)

type scenario = Cold | Restore | Warm | Horse_start

val scenario_name : scenario -> string

type table1_cell = {
  category : Horse_workload.Category.t;
  scenario : scenario;
  init_us : float;  (** mean sandbox-ready time, µs *)
  exec_us : float;  (** mean function execution time, µs *)
  init_pct : float;  (** init / (init + exec) · 100 *)
}

val table1 :
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?jobs:int ->
  unit -> table1_cell list
(** The paper's Table 1: categories × (cold, restore, warm).
    Figure 1 is the [init_pct] column of the same cells. *)

(** {1 Figure 2 — resume-path breakdown} *)

type fig2_row = {
  vcpus : int;
  parse_ns : float;
  lock_ns : float;
  sanity_ns : float;
  merge_ns : float;  (** step ④ *)
  load_ns : float;  (** step ⑤ *)
  finalize_ns : float;
  steps45_pct : float;  (** share of ④+⑤ in the total *)
}

val fig2 :
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?vcpus:int list ->
  ?jobs:int -> unit -> fig2_row list
(** Vanilla resume broken into §3.1's six steps while the vCPU count
    sweeps 1 → 36. *)

(** {1 Measurement methodology} *)

type measurement = {
  mean_ns : float;
  ci95_rel : float;  (** 95 % CI half-width relative to the mean *)
  runs : int;
}

val measure_resume :
  ?profile:profile ->
  ?seed:int ->
  ?ci_target:float ->
  ?max_runs:int ->
  strategy:Horse_vmm.Sandbox.strategy ->
  vcpus:int ->
  unit ->
  measurement
(** The paper's stopping rule: "we run each experiment 10×, which is
    enough for us to achieve 95 % confidence interval ≤ 3 %".  Repeat
    boot→pause→resume (fresh seeds) until the 95 % CI half-width is
    within [ci_target] (default 0.03) of the mean, at least 10 and at
    most [max_runs] (default 100) times. *)

(** {1 Figure 3 — resume time across strategies} *)

type fig3_row = {
  vcpus : int;
  vanil_ns : float;
  ppsm_ns : float;
  coal_ns : float;
  horse_ns : float;
}

val fig3 :
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?vcpus:int list ->
  ?jobs:int -> unit -> fig3_row list

type fig3_summary = {
  coal_improvement_max : float;  (** fraction of vanilla saved, peak *)
  ppsm_improvement_max : float;
  horse_improvement_max : float;
  horse_speedup_max : float;  (** vanil/horse peak — the 7.16× claim *)
  horse_constant_ns : float;  (** mean HORSE resume — the ≈150 ns claim *)
}

val fig3_summarise : fig3_row list -> fig3_summary

(** {1 Figure 4 — sandbox initialization share with HORSE} *)

type fig4_cell = {
  f4_category : Horse_workload.Category.t;
  f4_scenario : scenario;
  f4_init_pct : float;
}

val fig4 :
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?jobs:int ->
  unit -> fig4_cell list
(** Categories × (cold, restore, warm, HORSE). *)

(** {1 §5.2 — overhead of HORSE} *)

type overhead_row = {
  o_vcpus : int;
  memory_kb : float;  (** P²SM structures for 10 paused sandboxes *)
  memory_pct : float;  (** relative to the sandboxes' 5 GB *)
  pause_overhead_pct : float;  (** extra pause-path CPU vs vanilla *)
  resume_burst_cpu_pct : float;
      (** extra CPU during the resume burst (per-affected-core, over
          a 500 ms sampling window as in the paper) *)
  maintenance_events : int;
}

val overhead :
  ?profile:profile -> ?seed:int -> ?vcpus:int list -> ?jobs:int ->
  unit -> overhead_row list

(** {1 §5.4 — colocation with longer-running functions} *)

type colocation_row = {
  c_vcpus : int;  (** uLL sandbox size *)
  vanilla_mean_ms : float;
  vanilla_p95_ms : float;
  vanilla_p99_ms : float;
  horse_mean_ms : float;
  horse_p95_ms : float;
  horse_p99_ms : float;
  p99_delta_us : float;  (** horse p99 − vanilla p99, µs *)
  p99_delta_pct : float;  (** same, relative (the 0.00107 % claim) *)
  affected : int;
      (** thumbnail invocations actually hit by a merge thread *)
  max_delay_us : float;
      (** largest injected preemption delay (the paper's "≈30 µs
          extreme case" at 36 vCPUs) *)
}

val colocation :
  ?profile:profile -> ?seed:int -> ?duration_s:float -> ?repeats:int ->
  ?vcpus:int list -> ?jobs:int -> unit ->
  colocation_row list
(** Thumbnail invocations driven by an Azure-shaped 30 s arrival
    chunk, colocated with 10 uLL resumes per second, vanilla vs
    HORSE; paired runs, [repeats] (default 10) times per point, worst
    p99 delta reported (the paper's "up to"), each run on one
    platform. *)

(** {1 Ablations & extensions (beyond the paper's figures)} *)

type ull_queue_ablation_row = {
  u_queues : int;  (** reserved ull_runqueues *)
  u_resume_ns : float;  (** mean HORSE resume across the fleet *)
  u_maintenance_events : int;
      (** posA refreshes over the whole pause/resume churn *)
  u_max_queue_share : float;
      (** largest fraction of paused sandboxes attached to one queue
          (1.0 = no balancing, 1/k = perfect) *)
}

val ablation_ull_queues :
  ?profile:profile -> ?seed:int -> ?sandboxes:int -> ?cycles:int ->
  ?queue_counts:int list -> unit -> ull_queue_ablation_row list
(** §4.1.3's extension: grow the reserved queue set and watch the
    maintenance traffic drop while the O(1) resume is preserved.
    [sandboxes] uLL sandboxes (default 12, 8 vCPUs each) are paused
    and resumed [cycles] times (default 5) under each queue count. *)

type restore_ablation_row = {
  r_mode : string;
  r_restore_latency_us : float;
  r_first_invocation_penalty_us : float;
      (** demand-fault cost of touching the working set afterwards *)
  r_total_us : float;
}

val ablation_restore :
  ?working_set_pages:int -> ?memory_mb:int -> unit ->
  restore_ablation_row list
(** The design space behind Table 1's [restore] row: eager vs lazy vs
    FaaSnap-style working-set restore of a [memory_mb] snapshot whose
    guest touched [working_set_pages] pages (defaults 256 pages,
    512 MB — the paper's sandbox size). *)

type keepalive_row = {
  k_policy : string;
  k_warm_hit_rate : float;
  k_cold_starts : int;
  k_warm_pool_minutes : float;  (** idle sandbox-minutes paid *)
}

val keepalive_policies :
  ?seed:int -> ?functions:int -> unit -> keepalive_row list
(** Keep-alive policy study on a synthetic Azure-shaped day: fixed
    windows vs the histogram policy of Shahrad et al. (the paper's
    [71]), aggregated over [functions] generated functions. *)

type energy_row = {
  e_governor : string;
  e_strategy : string;
  e_joules : float;  (** energy of the window's executions *)
  e_mean_freq_mhz : float;  (** mean frequency the work ran at *)
}

val ablation_energy :
  ?seed:int -> ?duration_s:float -> unit -> energy_row list
(** The step-⑤ tie-in: the load variable exists to drive DVFS.  Run
    the same uLL workload under the Performance and Schedutil
    governors, with vanilla and HORSE resumes: Schedutil saves energy
    at low utilisation, and HORSE's coalesced load updates leave the
    governor signal — hence the energy — identical to vanilla's. *)

type timeslice_row = {
  t_queue : string;  (** "ull (1us slice)" or "normal (10ms slice)" *)
  t_ull_latency_us : float;
      (** completion latency of a 0.7 µs function arriving behind a
          long-running task on the same queue *)
  t_incumbent_penalty_us : float;
      (** extra completion time the incumbent pays from the sharing *)
}

val ablation_timeslice : ?seed:int -> unit -> timeslice_row list
(** §4.1.3's timeslice choice, executed on the CPU simulator: a
    Category-3 function (0.7 µs) lands on a queue already running a
    200 µs task.  On the 1 µs-slice ull_runqueue it completes within
    a few slices; on a normal 10 ms-slice queue it waits out the
    incumbent. *)

(** {1 Fault-rate sweep — robustness under injected chaos} *)

val faults :
  ?seed:int -> ?duration_s:float -> ?rates:float list -> unit ->
  Scenario.t list
(** Per-trigger fault [rates] (default 0 %, 0.1 %, 1 %, 10 %) × Vanilla
    vs HORSE warm pools: the same Azure-shaped uLL storm over
    [duration_s] (default 5 s) on a 4-server cluster with 16 warm
    sandboxes and {!Horse_faas.Platform.Recovery.default}.  Latency
    percentiles are honest: every failed rung, retry wait and slowdown
    is inside the records, and the 0 % rows are bit-identical to a run
    with no fault plan at all. *)

(** {1 Canonical cluster scenarios}

    Shared by the bench sections, the CLI and the gate tests. *)

val policy_storm :
  ?seed:int -> ?policy:Horse_faas.Cluster.Policy.t -> triggers:int ->
  rate:float -> unit -> Scenario.t
(** The policy shoot-out's storm: [triggers] bursty arrivals of one
    300 µs uLL function on {!Scenario.default}'s 4-server cluster,
    under [rate] whole-server blackouts per server-second (seed 42,
    warm-first push by default).  At rate 0 it is also the
    lock-step-vs-adaptive epoch storm. *)

val chain_scenario :
  ?seed:int -> strategy:Horse_vmm.Sandbox.strategy -> len:int ->
  fused:bool -> unit -> Scenario.t
(** 2000 uniform instances of a [len]-stage uLL chain over 0.25 s,
    [fused] or not, on {!Scenario.default}'s cluster (seed 42). *)

val router_storm :
  ?seed:int -> routers:int -> triggers:int -> unit -> Scenario.t
(** [triggers] bursty arrivals cycling the 32-function
    {!Scenario.Palette} over [routers] routers, 8 servers and 1024
    warm sandboxes (seed 42). *)

val run_scenarios :
  ?jobs:int -> Scenario.t list -> Scenario.row list
(** {!Scenario.run} over a list, fanned over [jobs] strands like every
    other sweep here: rows come back in list order, bit-identical for
    every [jobs].  A scenario with [shards > 1] runs its shard rounds
    on the cached team of that width; when that team is already in a
    round — it is the fan's own team, or another strand of the fan is
    using it — the scenario's rounds run inline on its strand
    ({!Horse_parallel.Team.run}'s nesting rule), with the same rows. *)

(** {1 Headline summary} *)

type summary = {
  resume_speedup : float;  (** paper: up to 7.16× *)
  horse_resume_ns : float;  (** paper: ≈150 ns *)
  init_overhead_vs_warm : float;  (** paper: up to 8.95× *)
  init_overhead_vs_restore : float;  (** paper: up to 142.7× *)
  init_overhead_vs_cold : float;  (** paper: up to 142.84× *)
  horse_init_pct_min : float;  (** paper: 0.77 % *)
  horse_init_pct_max : float;  (** paper: 17.64 % *)
}

val summary :
  ?profile:profile -> ?seed:int -> ?jobs:int -> unit -> summary
