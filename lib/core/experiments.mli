(** The paper's evaluation, experiment by experiment.

    Each function regenerates one table or figure of the paper on the
    simulated testbed and returns typed rows; the bench harness
    formats them.  All experiments are deterministic per seed and run
    each measurement [repeats] times (default 10, the paper's
    count).

    The sweep-shaped experiments take [?jobs] (default 1): their
    independent tasks — table cells, sweep points, paired repeats —
    fan out over the cached process-wide {!Horse_parallel.Pool} of
    that many strands ({!Horse_parallel.Pool.shared}, so repeated
    experiments never pay domain spawns).  [?chunk] (default 1)
    groups that many consecutive tasks per dispatch.  Results are {e
    bit-identical for every value of [jobs] and [chunk]}: tasks close
    over their seeds at submission and results are collected in task
    order, so parallelism only changes wall-clock time, never a
    number. *)

type profile = Firecracker | Xen

val cost_of_profile : profile -> Horse_cpu.Cost_model.t

val profile_name : profile -> string

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
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?jobs:int -> ?chunk:int ->
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
  ?jobs:int -> ?chunk:int -> unit -> fig2_row list
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
  ?jobs:int -> ?chunk:int -> unit -> fig3_row list

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
  ?profile:profile -> ?repeats:int -> ?seed:int -> ?jobs:int -> ?chunk:int ->
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
  ?chunk:int -> unit -> overhead_row list

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
  ?vcpus:int list -> ?jobs:int -> ?chunk:int -> ?shards:int -> unit ->
  colocation_row list
(** Thumbnail invocations driven by an Azure-shaped 30 s arrival
    chunk, colocated with 10 uLL resumes per second, vanilla vs
    HORSE; paired runs, [repeats] (default 10) times per point, worst
    p99 delta reported (the paper's "up to").  [shards] switches each
    run onto a 1-server sharded cluster ({!Horse_faas.Cluster.create_sharded})
    with that many execution tasks: rows then include the router's
    placement delay, and are bit-identical for every [shards] value. *)

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

type fault_row = {
  fr_rate_pct : float;  (** per-trigger fault probability, percent *)
  fr_strategy : string;  (** "vanil" or "horse" *)
  fr_p50_us : float;  (** end-to-end invocation latency percentiles *)
  fr_p99_us : float;
  fr_p999_us : float;
  fr_attempted : int;  (** arrivals fired at the cluster *)
  fr_completed : int;  (** invocations that produced a record *)
  fr_rejected : int;  (** typed router rejections *)
  fr_completion_pct : float;
  fr_faults : int;
      (** injected faults, all triggers + whole-server blackouts *)
  fr_fallbacks : int;  (** Warm→Restore→Cold ladder descents *)
  fr_retries : int;  (** post-crash backed-off retries *)
}

val faults :
  ?profile:profile -> ?seed:int -> ?duration_s:float -> ?rates:float list ->
  ?jobs:int -> ?chunk:int -> ?shards:int ->
  ?policy:Horse_faas.Cluster.Policy.t -> unit -> fault_row list
(** Sweep per-trigger fault rates (default 0 %, 0.1 %, 1 %, 10 %) over
    an Azure-shaped uLL storm on a 4-server cluster running
    {!Horse_faas.Platform.Recovery.default}, for Vanilla vs HORSE warm
    pools.  Latency percentiles are honest: every failed rung, retry
    wait and slowdown is inside the records.  The 0 % row is
    bit-identical to a run with no fault plan at all, and rows are
    bit-identical for every [jobs]/[chunk].  Every trigger crosses the
    cluster's placement delay both ways, and rows are bit-identical
    for every [shards] value (default 1). *)

(** {1 Scale — one big cluster run on the sharded engine} *)

type scale_row = {
  sc_servers : int;
  sc_sandboxes : int;  (** warm sandboxes parked fleet-wide *)
  sc_triggers : int;  (** arrivals fired at the router *)
  sc_shards : int;  (** execution tasks the run used *)
  sc_completed : int;
  sc_rejected : int;
  sc_p50_us : float;
  sc_p99_us : float;
  sc_epochs : int;  (** outer windows the shard engine executed *)
  sc_rounds : int;  (** synchronization rounds (barrier fan-outs) *)
  sc_fast_forwards : int;  (** windows that jumped idle virtual time *)
  sc_messages : int;  (** cross-shard messages delivered *)
}

val scale_run :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?ull_count:int ->
  ?policy:Horse_faas.Cluster.Policy.t ->
  ?scheduler:Horse_sim.Shard_engine.scheduler ->
  ?on_run:((unit -> unit) -> unit) ->
  servers:int -> sandboxes:int -> triggers:int -> unit -> scale_row
(** One sharded-cluster run: [sandboxes] HORSE sandboxes parked over
    [servers] servers, then [triggers] warm triggers at sorted uniform
    offsets within [duration_s].  The row is bit-identical for every
    [shards]; only the wall-clock changes — this single run is what
    the scale benchmark times.  [ull_count] (default: enough reserved
    ull queues to keep parked-per-queue near 256, capped at 32) bounds
    the per-trigger P²SM maintenance fan-out over parked sandboxes.
    [on_run] receives the closure that drives the simulation and must
    call it exactly once; the benchmark uses it to time the
    (parallelizable) run phase without the (sequential) provisioning
    phase. *)

val scale :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?points:(int * int * int) list ->
  ?policy:Horse_faas.Cluster.Policy.t -> unit -> scale_row list
(** {!scale_run} over a [(servers, sandboxes, triggers)] sweep
    (default up to 16 servers / 96k parked sandboxes / 16k triggers;
    the benchmark drives larger points).  Deliberately not fanned over
    a task pool: the parallelism under test is the sharded engine
    inside each run. *)

(** {1 Storm pipeline — the trigger-path measurement pair} *)

type storm_row = {
  st_triggers : int;
  st_completed : int;
  st_rejected : int;
  st_p50_us : float;
  st_p99_us : float;
  st_p999_us : float;
}

val storm_run_boxed :
  ?profile:profile -> ?seed:int -> ?duration_s:float -> ?sandboxes:int ->
  ?policy:Horse_faas.Cluster.Policy.t -> triggers:int -> unit -> storm_row
(** The whole trigger path — trace generation, ingestion, routing,
    resume, completion, aggregation — on one server with one hot
    function, implemented the pre-arena way: a closure per scheduled
    arrival, a boxed record (plus tuple and list cons) per completion,
    and exact {!Horse_sim.Stats.Sample} percentiles over the retained
    list.  The baseline half of the storm benchmark's ns/trigger and
    words/trigger pair. *)

val storm_run_flat :
  ?profile:profile -> ?seed:int -> ?duration_s:float -> ?sandboxes:int ->
  ?window:int -> ?policy:Horse_faas.Cluster.Policy.t -> triggers:int ->
  unit -> storm_row
(** The same pipeline on the zero-allocation path: flat batch
    ingestion through {!Horse_faas.Cluster.schedule_batch} (windowed
    cursor, [window] default 4096), struct-of-arrays record appends,
    and a streaming {!Horse_sim.Stats.Quantile} fed from the arena
    columns.  Simulates the {e same} run as {!storm_run_boxed} — same
    RNG draws, same arrival order — so [st_completed] matches exactly
    and percentiles agree up to the estimator tolerance. *)

(** {1 Policy shoot-out — push vs pull vs core-granular under blackouts} *)

type policy_row = {
  pl_policy : string;  (** {!Horse_faas.Cluster.policy_name} *)
  pl_triggers : int;
  pl_blackout_rate : float;  (** per-server-second blackout probability *)
  pl_shards : int;
  pl_attempted : int;
  pl_completed : int;
  pl_rejected : int;
  pl_pending : int;  (** triggers still queued when the run drained *)
  pl_p50_us : float;  (** router-observed end-to-end latency percentiles *)
  pl_p99_us : float;
  pl_p999_us : float;
  pl_blackouts : int;  (** outages the schedule actually fired *)
  pl_epochs : int;  (** outer windows the shard engine executed *)
  pl_rounds : int;  (** synchronization rounds (barrier fan-outs) *)
  pl_fast_forwards : int;  (** windows that jumped idle virtual time *)
  pl_messages : int;  (** cross-shard messages delivered *)
}

val policy_run :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?sandboxes:int -> ?ull_count:int ->
  ?scheduler:Horse_sim.Shard_engine.scheduler ->
  ?on_run:((unit -> unit) -> unit) ->
  triggers:int -> blackout_rate:float ->
  policy:Horse_faas.Cluster.Policy.t -> unit -> policy_row
(** One sharded-cluster run under [policy]: [sandboxes] HORSE
    sandboxes (default 64 — tight against the ~30 in flight at 100k
    triggers/s so warm capacity is a real constraint) over [servers]
    servers, [triggers] warm triggers in bursty clumps
    ({!Horse_trace.Batch.bursty}) within [duration_s], whole-server
    blackouts at [blackout_rate] per simulated second with correlated
    snapshot corruption at half that rate (self-healing recovery on —
    a restore on a healing server may fall through to a cold boot).
    Latencies are the router's end-to-end estimator — arrival to
    completion notification, queueing and placement delays included —
    which is the quantity the policies actually trade off.  The row is
    bit-identical for every [shards] value. *)

val policy_sweep :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?sandboxes:int -> ?triggers:int list ->
  ?rates:float list -> unit -> policy_row list
(** {!policy_run} over {!Horse_faas.Cluster.Policy.builtins} ×
    [triggers] (default 10k, 100k) × blackout [rates] (default 0,
    0.5, 0.9) — the shoot-out table behind [BENCH_policy.json]. *)

(** {1 Workflow chains — platform-side fusion vs per-node dispatch} *)

type chain_row = {
  ch_len : int;  (** nodes in the chain *)
  ch_fused : bool;
  ch_strategy : string;  (** warm strategy of every node (horse/vanil) *)
  ch_shards : int;
  ch_instances : int;
  ch_completed : int;
  ch_p50_us : float;  (** workflow end-to-end latency percentiles *)
  ch_p99_us : float;
  ch_p999_us : float;
}

val chain_run :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?per_unit:int -> ?instances:int ->
  len:int -> fused:bool -> strategy:Horse_vmm.Sandbox.strategy ->
  unit -> chain_row
(** One sharded-cluster run of a [len]-stage uLL chain workflow:
    [instances] workflow arrivals uniform over [duration_s], every
    stage warm under [strategy], [per_unit] sandboxes provisioned per
    schedulable unit.  With [fused] the planner collapses the whole
    chain into one invocation — one resume/pause and no per-hop
    placement round-trips, which is the latency the sweep isolates.
    Percentiles are the workflow manager's start-to-last-completion
    stream ({!Horse_faas.Workflow.e2e}).  The row is bit-identical for
    every [shards] value.
    @raise Invalid_argument if [len < 1]. *)

val chain_sweep :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?instances:int -> ?lens:int list -> unit ->
  chain_row list
(** {!chain_run} over HORSE/Vanilla × [lens] (default 1, 3, 6) ×
    fusion off/on — the table behind [BENCH_chain.json].  The
    [bench_check] gate requires fused p99 ≤ unfused p99 at every
    length ≥ 3. *)

(** {1 Router plane — function-affine control-plane partitioning} *)

type router_row = {
  rt_routers : int;  (** router shards in the control plane *)
  rt_servers : int;
  rt_functions : int;  (** registered functions (affinity spread) *)
  rt_triggers : int;
  rt_shards : int;
  rt_completed : int;
  rt_rejected : int;
  rt_spills : int;  (** triggers forwarded over the spill ring *)
  rt_p50_us : float;  (** end-to-end latency percentiles, µs *)
  rt_p99_us : float;
  rt_epochs : int;  (** outer windows the shard engine executed *)
  rt_rounds : int;  (** synchronization rounds (barrier fan-outs) *)
  rt_messages : int;  (** cross-shard messages delivered *)
}

val router_run :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?functions:int -> ?sandboxes:int ->
  ?policy:Horse_faas.Cluster.Policy.t ->
  ?scheduler:Horse_sim.Shard_engine.scheduler ->
  ?on_run:((unit -> unit) -> unit) ->
  routers:int -> triggers:int -> unit -> router_row
(** One partitioned-control-plane run: [routers] router shards over
    [servers] servers (disjoint groups, [routers <= servers]),
    [functions] registered uLL functions (default 32) splitting
    [sandboxes] HORSE sandboxes evenly, and [triggers] warm triggers
    in bursty clumps within [duration_s] whose fn-id column cycles the
    whole function palette — the affinity hash then spreads the
    trigger storm near-uniformly over every router, which is the
    serial bottleneck this sweep measures.  [on_run] receives the
    closure that drives the simulation and must call it exactly once;
    the benchmark uses it to time the (parallelizable) run phase.
    The row is bit-identical for every [shards] value and scheduler,
    and [routers = 1] reproduces the single-router plane exactly.
    @raise Invalid_argument if [functions < 1]. *)

val router_sweep :
  ?profile:profile -> ?seed:int -> ?shards:int -> ?duration_s:float ->
  ?servers:int -> ?functions:int -> ?sandboxes:int -> ?triggers:int ->
  ?points:int list -> ?policy:Horse_faas.Cluster.Policy.t -> unit ->
  router_row list
(** {!router_run} at each router count in [points] (default 1, 2, 4,
    8) with everything else held fixed — the table behind
    [BENCH_router.json].  The [bench_check] gate requires a run-phase
    speedup at [routers >= 4] when enough cores are present. *)

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
  ?profile:profile -> ?seed:int -> ?jobs:int -> ?chunk:int -> unit -> summary
