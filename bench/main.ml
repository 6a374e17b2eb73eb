(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation on the simulated testbed, and wall-clock
   micro-benchmarks (Bechamel) of the real algorithm implementations.

   Usage:  main.exe [table1|fig1|fig2|fig3|fig4|overhead|colocation|
                     summary|xen|faults|scale|shard|policy|chain|
                     router|sweeps|ablations|micro|csv|all]
                                 (default: all)
                    [--jobs N]   fan experiment tasks over N strands
                                 (default: recommended_domain_count - 1;
                                 results are bit-identical for any N)
                    [--chunk C]  group C consecutive tasks per dispatch
                                 (default: auto — thunk 0 is timed and
                                 the chunk targets ~50us per task;
                                 results are bit-identical for any C)
                    [--shards S] execution tasks for the sharded
                                 cluster runs of [scale], [shard],
                                 [policy], [chain] and [router] (default
                                 max(4, recommended_domain_count - 1);
                                 rows are bit-identical for any S)
                    [--routers R] router shards for the partitioned
                                 control-plane runs of [router]
                                 (default 4; the gated acceptance
                                 point of `make bench-router`)
                    [--json F]   record per-experiment wall-clock
                                 (sequential vs parallel) into F

   [sweeps] runs every timed experiment sweep back to back — the
   input `make bench-json` feeds to BENCH_summary.json.  [scale] is
   the sharded-engine benchmark `make bench-scale` feeds to
   BENCH_scale.json; [shard], [policy], [chain] and [router] feed
   BENCH_{shard,policy,chain,router}.json the same way.  Every
   cluster section is a list of {!Horse.Scenario.t} and gates its
   table on {!Horse.Scenario.identical} first.  [ablations] prints the
   design-space studies, [csv] writes results/*.csv for plotting. *)

module E = Horse.Experiments
module Scenario = Horse.Scenario
module Report = Horse.Report
module Category = Horse_workload.Category
module Json = Horse_vmm.Json
module Shard_engine = Horse_sim.Shard_engine

let section title =
  Printf.printf "\n==== %s ====\n\n%!" title

(* ------------------------------------------------------------------ *)
(* Wall-clock harness: --jobs / --json                                 *)
(* ------------------------------------------------------------------ *)

let jobs = ref (Horse_parallel.Pool.default_jobs ())

let chunk : int option ref = ref None

let shards = ref (max 4 (Horse_parallel.Pool.default_jobs ()))

let routers = ref 4

let json_path : string option ref = ref None

let timings : Report.timing list ref = ref []

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* min-of-N interleaved rounds when recording timings: alternating
   sequential and parallel runs exposes both sides to the same cache,
   GC and machine-noise conditions, and the minimum is the stable
   floor of each.  (The old shape — one parallel run first, one
   sequential run second — handed the sequential side a warmed-up
   process and charged the parallel side the pool spawn.) *)
let timing_rounds = 7

(* Time one experiment's computation (not its rendering) at the
   requested --jobs.  With --json and jobs > 1, the computation is
   also run at jobs = 1 to record the sequential reference wall-clock
   in the same process — determinism guarantees the reference
   computes the very same rows, so only the timing differs. *)
let timed name f =
  let time g =
    (* settle the major heap first, so one round's collection debt is
       not billed to whichever side happens to run next *)
    Gc.full_major ();
    let t0 = now_s () in
    let r = g () in
    (now_s () -. t0, r)
  in
  match !json_path with
  | Some _ when !jobs > 1 ->
    (* untimed warm-up pays one-time costs (shared-pool spawn, lazy
       initialisers) for both sides *)
    let result = f ~jobs:!jobs in
    (* calibrate an iteration count so every timed run lasts at least
       ~50ms: the shortest sweeps are ~0.5ms of wall, where a single
       scheduler hiccup reads as a 20% "regression" *)
    let approx, _ = time (fun () -> f ~jobs:1) in
    let iters = max 1 (int_of_float (ceil (0.05 /. Float.max 1e-6 approx))) in
    let run j () =
      for _ = 1 to iters do
        ignore (f ~jobs:j)
      done
    in
    let wall_seq = ref infinity and wall_par = ref infinity in
    for _ = 1 to timing_rounds do
      let s, () = time (run 1) in
      if s < !wall_seq then wall_seq := s;
      let p, () = time (run !jobs) in
      if p < !wall_par then wall_par := p
    done;
    let per_iter w = w /. float_of_int iters in
    timings :=
      {
        Report.t_name = name;
        t_jobs = !jobs;
        t_wall_seq_s = per_iter !wall_seq;
        t_wall_par_s = per_iter !wall_par;
        t_meta = [];
      }
      :: !timings;
    result
  | Some _ | None ->
    let wall, result = time (fun () -> f ~jobs:!jobs) in
    timings :=
      {
        Report.t_name = name;
        t_jobs = !jobs;
        t_wall_seq_s = wall;
        t_wall_par_s = wall;
        t_meta = [];
      }
      :: !timings;
    result

(* ------------------------------------------------------------------ *)
(* Table 1: initialization and execution times                         *)
(* ------------------------------------------------------------------ *)

let paper_table1 = function
  (* (scenario, category) -> (init_us, init_pct) from the paper *)
  | E.Cold, _ -> (1.5e6, 99.99)
  | E.Restore, Category.Cat1 -> (1300.0, 98.7)
  | E.Restore, Category.Cat2 -> (1300.0, 99.98)
  | E.Restore, Category.Cat3 -> (1300.0, 99.94)
  | E.Warm, Category.Cat1 -> (1.1, 6.07)
  | E.Warm, Category.Cat2 -> (1.1, 42.3)
  | E.Warm, Category.Cat3 -> (1.1, 61.1)
  | E.Horse_start, Category.Cat1 -> (0.147, 0.77)
  | E.Horse_start, Category.Cat2 -> (0.147, 9.0)
  | E.Horse_start, Category.Cat3 -> (0.147, 17.64)

let table1 () =
  section "Table 1 - uLL workloads: init + exec per start scenario";
  let cells = timed "table1" (fun ~jobs -> E.table1 ~jobs ?chunk:!chunk ()) in
  let rows =
    List.map
      (fun (c : E.table1_cell) ->
        let paper_init, paper_pct = paper_table1 (c.scenario, c.category) in
        [
          Category.name c.category;
          E.scenario_name c.scenario;
          Report.ns (c.init_us *. 1e3);
          Report.ns (c.exec_us *. 1e3);
          Report.pct c.init_pct;
          Report.ns (paper_init *. 1e3);
          Report.pct paper_pct;
        ])
      cells
  in
  Report.print
    ~caption:"Table 1 (paper p.3) - measured vs paper"
    ~header:
      [
        "category"; "scenario"; "init"; "exec"; "init%"; "paper init";
        "paper init%";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 1: initialization percentage (cold/restore/warm)             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section "Figure 1 - sandbox initialization share of the pipeline";
  let cells = timed "fig1" (fun ~jobs -> E.table1 ~jobs ?chunk:!chunk ()) in
  let scenarios = [ E.Cold; E.Restore; E.Warm ] in
  let rows =
    List.map
      (fun category ->
        Category.name category
        :: List.map
             (fun scenario ->
               let cell =
                 List.find
                   (fun (c : E.table1_cell) ->
                     c.category = category && c.scenario = scenario)
                   cells
               in
               Report.pct cell.init_pct)
             scenarios)
      Category.all
  in
  Report.print
    ~caption:
      "Figure 1 (paper p.3) - init%% per scenario; paper: cold ~99.99%, \
       restore 98.7-99.98%, warm 6.07/42.3/61.1%"
    ~header:[ "category"; "cold"; "restore"; "warm" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 2: resume breakdown                                          *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2 - vanilla resume breakdown vs vCPU count";
  let rows =
    List.map
      (fun (r : E.fig2_row) ->
        [
          string_of_int r.vcpus;
          Report.ns r.parse_ns;
          Report.ns r.lock_ns;
          Report.ns r.sanity_ns;
          Report.ns r.merge_ns;
          Report.ns r.load_ns;
          Report.ns r.finalize_ns;
          Report.pct r.steps45_pct;
        ])
      (timed "fig2" (fun ~jobs -> E.fig2 ~jobs ?chunk:!chunk ()))
  in
  Report.print
    ~caption:
      "Figure 2 (paper p.3) - steps 4 (merge) + 5 (load) should take \
       87.5%% -> 93.1%% as vCPUs go 1 -> 36"
    ~header:
      [ "vcpus"; "parse"; "lock"; "sanity"; "merge(4)"; "load(5)"; "final";
        "4+5 %" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3: resume time per strategy                                  *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  section "Figure 3 - resume time: vanil / ppsm / coal / horse";
  let rows3 = timed "fig3" (fun ~jobs -> E.fig3 ~jobs ?chunk:!chunk ()) in
  let rows =
    List.map
      (fun (r : E.fig3_row) ->
        [
          string_of_int r.vcpus;
          Report.ns r.vanil_ns;
          Report.ns r.coal_ns;
          Report.ns r.ppsm_ns;
          Report.ns r.horse_ns;
          Report.ratio (r.vanil_ns /. r.horse_ns);
        ])
      rows3
  in
  Report.print
    ~caption:
      "Figure 3 (paper p.5) - paper: coal saves 16-20%%, ppsm 55-69%%, \
       horse up to 85%% (7.16x), horse constant ~150ns"
    ~header:[ "vcpus"; "vanil"; "coal"; "ppsm"; "horse"; "speedup" ]
    rows;
  let s = E.fig3_summarise rows3 in
  Report.print ~caption:"Figure 3 summary (measured vs paper)"
    ~header:[ "metric"; "measured"; "paper" ]
    [
      [ "coal improvement (max)"; Report.pct (100.0 *. s.coal_improvement_max);
        "16-20%" ];
      [ "ppsm improvement (max)"; Report.pct (100.0 *. s.ppsm_improvement_max);
        "55-69%" ];
      [ "horse improvement (max)"; Report.pct (100.0 *. s.horse_improvement_max);
        "up to 85%" ];
      [ "horse speedup (max)"; Report.ratio s.horse_speedup_max; "7.16x" ];
      [ "horse resume time"; Report.ns s.horse_constant_ns; "~150ns" ];
    ]

(* ------------------------------------------------------------------ *)
(* Figure 4: init share including HORSE                                *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4 - init share: cold / restore / warm / HORSE";
  let cells = timed "fig4" (fun ~jobs -> E.fig4 ~jobs ?chunk:!chunk ()) in
  let scenarios = [ E.Cold; E.Restore; E.Warm; E.Horse_start ] in
  let rows =
    List.map
      (fun category ->
        Category.name category
        :: List.map
             (fun scenario ->
               let cell =
                 List.find
                   (fun (c : E.fig4_cell) ->
                     c.f4_category = category && c.f4_scenario = scenario)
                   cells
               in
               Report.pct cell.f4_init_pct)
             scenarios)
      Category.all
  in
  Report.print
    ~caption:
      "Figure 4 (paper p.6) - paper: HORSE init%% spans 0.77-17.64%%; \
       outclasses warm by up to 8.95x, restore 142.7x, cold 142.84x"
    ~header:[ "category"; "cold"; "restore"; "warm"; "horse" ]
    rows

(* ------------------------------------------------------------------ *)
(* §5.2 overhead                                                       *)
(* ------------------------------------------------------------------ *)

(* pause-side cost per strategy: what HORSE pays up front (Sec 5.2) *)
let pause_costs () =
  let module Scheduler = Horse_sched.Scheduler in
  let module Sandbox = Horse_vmm.Sandbox in
  let module Vmm = Horse_vmm.Vmm in
  let pause_ns strategy vcpus =
    let scheduler =
      Scheduler.create ~topology:Horse_cpu.Topology.r650 ()
    in
    let vmm =
      Vmm.create ~jitter:0.0 ~scheduler
        ~metrics:(Horse_sim.Metrics.create ()) ()
    in
    let sb = Sandbox.create ~id:0 ~vcpus ~memory_mb:512 ~ull:true () in
    ignore (Vmm.boot vmm sb);
    Horse_sim.Time_ns.span_to_ns (Vmm.pause vmm ~strategy sb)
  in
  Report.print
    ~caption:
      "What the fast resume costs at pause time: merge_vcpus sorting + \
       posA/arrayB setup + coalescing constants (all off the critical \
       path - the sandbox is going idle anyway)"
    ~header:[ "vcpus"; "pause vanil"; "pause coal"; "pause horse" ]
    (List.map
       (fun vcpus ->
         [
           string_of_int vcpus;
           Report.ns (float_of_int (pause_ns Sandbox.Vanilla vcpus));
           Report.ns (float_of_int (pause_ns Sandbox.Coal vcpus));
           Report.ns (float_of_int (pause_ns Sandbox.Horse vcpus));
         ])
       [ 1; 8; 36 ])


let overhead () =
  section "Sec 5.2 - CPU & memory overhead of HORSE";
  let rows =
    List.map
      (fun (r : E.overhead_row) ->
        [
          string_of_int r.o_vcpus;
          Printf.sprintf "%.1fKB" r.memory_kb;
          Report.pct r.memory_pct;
          Printf.sprintf "%.4f%%" r.pause_overhead_pct;
          Printf.sprintf "%.4f%%" r.resume_burst_cpu_pct;
          string_of_int r.maintenance_events;
        ])
      (timed "overhead" (fun ~jobs -> E.overhead ~jobs ?chunk:!chunk ()))
  in
  Report.print
    ~caption:
      "Sec 5.2 (paper p.5) - paper: memory up to 528KB (~0.11%% of 5GB), \
       pause CPU +0.3%%, resume burst +2.7%%; all overheads <1%% of steady \
       CPU"
    ~header:
      [ "ull vcpus"; "psm memory"; "mem %"; "pause cpu+"; "resume burst+";
        "posA updates" ]
    rows;
  pause_costs ()

(* ------------------------------------------------------------------ *)
(* §5.4 colocation                                                     *)
(* ------------------------------------------------------------------ *)

let colocation () =
  section "Sec 5.4 - colocation with longer-running functions";
  let rows =
    List.map
      (fun (r : E.colocation_row) ->
        [
          string_of_int r.c_vcpus;
          Printf.sprintf "%.1fms" r.vanilla_mean_ms;
          Printf.sprintf "%.1fms" r.vanilla_p95_ms;
          Printf.sprintf "%.1fms" r.vanilla_p99_ms;
          Printf.sprintf "%.1fms" r.horse_mean_ms;
          Printf.sprintf "%.1fms" r.horse_p95_ms;
          Printf.sprintf "%.1fms" r.horse_p99_ms;
          Printf.sprintf "%+.1fus" r.p99_delta_us;
          Printf.sprintf "%+.5f%%" r.p99_delta_pct;
          string_of_int r.affected;
          Printf.sprintf "%.1fus" r.max_delay_us;
        ])
      (timed "colocation" (fun ~jobs -> E.colocation ~jobs ?chunk:!chunk ()))
  in
  Report.print
    ~caption:
      "Sec 5.4 (paper p.6) - paper: no mean/p95 difference; p99 penalty up \
       to ~30us (0.00107%%) at 36 vCPUs"
    ~header:
      [ "ull vcpus"; "van mean"; "van p95"; "van p99"; "horse mean";
        "horse p95"; "horse p99"; "p99 delta"; "p99 delta %"; "hit";
        "max delay" ]
    rows

(* ------------------------------------------------------------------ *)
(* Ablations (beyond the paper's figures)                              *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablation A - number of ull_runqueues (paper Sec 4.1.3 extension)";
  Report.print
    ~caption:
      "More reserved queues spread the paused sandboxes, cutting posA maintenance traffic, while the O(1) resume is untouched"
    ~header:
      [ "ull queues"; "mean resume"; "posA updates"; "max queue share" ]
    (List.map
       (fun (r : E.ull_queue_ablation_row) ->
         [
           string_of_int r.E.u_queues;
           Report.ns r.E.u_resume_ns;
           string_of_int r.E.u_maintenance_events;
           Report.pct (100.0 *. r.E.u_max_queue_share);
         ])
       (E.ablation_ull_queues ()));
  section "Ablation B - snapshot restore modes (the Table-1 restore row)";
  Report.print
    ~caption:
      "Eager loads every page; lazy faults on demand; working-set prefetch (FaaSnap-style) is the ~1.3ms point the paper measures"
    ~header:[ "mode"; "restore"; "1st-invocation faults"; "total" ]
    (List.map
       (fun (r : E.restore_ablation_row) ->
         [
           r.E.r_mode;
           Report.ns (r.E.r_restore_latency_us *. 1e3);
           Report.ns (r.E.r_first_invocation_penalty_us *. 1e3);
           Report.ns (r.E.r_total_us *. 1e3);
         ])
       (E.ablation_restore ()));
  section "Ablation F - cold-start anatomy and snapshot points";
  let profile = Horse_vmm.Boot.firecracker_nodejs in
  Report.print
    ~caption:
      "Table 1's 1.5s cold start decomposed; each snapshot point skips \
       a prefix (FaaSnap ~ resume-after-runtime-init, SnapStart ~ \
       resume-after-code-load)"
    ~header:[ "start strategy"; "latency"; "phases skipped" ]
    (List.map
       (fun strategy ->
         [
           Horse_vmm.Boot.strategy_name strategy;
           Report.span (Horse_vmm.Boot.cost profile strategy);
           string_of_int
             (List.length (Horse_vmm.Boot.skipped_phases strategy));
         ])
       (Horse_vmm.Boot.Full_boot
       :: List.map
            (fun p -> Horse_vmm.Boot.Resume_after p)
            Horse_vmm.Boot.all_phases));
  section "Ablation E - ull_runqueue timeslice (paper Sec 4.1.3)";
  Report.print
    ~caption:
      "A 0.7us function arriving behind a 200us incumbent on the same \
       queue: the 1us ull slice lets it through immediately, a normal \
       slice makes it wait out the incumbent"
    ~header:[ "queue"; "uLL latency"; "incumbent penalty" ]
    (List.map
       (fun (r : E.timeslice_row) ->
         [
           r.E.t_queue;
           Report.ns (r.E.t_ull_latency_us *. 1e3);
           Report.ns (r.E.t_incumbent_penalty_us *. 1e3);
         ])
       (E.ablation_timeslice ()));
  section "Ablation D - DVFS governors x resume strategies (energy)";
  Report.print
    ~caption:
      "The step-5 load variable exists to drive frequency scaling: \
       schedutil saves energy at low utilisation, and HORSE's coalesced \
       update leaves the governor signal (and energy) identical to \
       vanilla's"
    ~header:[ "governor"; "strategy"; "energy"; "mean freq" ]
    (List.map
       (fun (r : E.energy_row) ->
         [
           r.E.e_governor;
           r.E.e_strategy;
           Printf.sprintf "%.2fJ" r.E.e_joules;
           Printf.sprintf "%.0fMHz" r.E.e_mean_freq_mhz;
         ])
       (E.ablation_energy ()));
  section "Ablation C - keep-alive policies on an Azure-shaped day";
  Report.print
    ~caption:
      "Warm-hit rate vs the warm-pool time the provider pays; the histogram policy (Shahrad et al.) adapts per function"
    ~header:[ "policy"; "warm-hit rate"; "cold starts"; "idle sandbox-min" ]
    (List.map
       (fun (r : E.keepalive_row) ->
         [
           r.E.k_policy;
           Report.pct (100.0 *. r.E.k_warm_hit_rate);
           string_of_int r.E.k_cold_starts;
           Printf.sprintf "%.0f" r.E.k_warm_pool_minutes;
         ])
       (E.keepalive_policies ()))

(* ------------------------------------------------------------------ *)
(* Cluster scenarios: the identity gate and the families               *)
(* ------------------------------------------------------------------ *)

(* Every cluster section gates its table on this first: rows that
   differ across shard counts, schedulers or seeds would mean the
   table compares different work. *)
let identical ?run section variants =
  match Scenario.identical ?run variants with
  | Ok rows -> rows
  | Error msg ->
    Printf.eprintf "%s: %s\n" section msg;
    exit 1

let at_shards s counts =
  List.map (fun shards -> { s with Scenario.shards }) counts

(* Push vs pull vs core-granular: a ~300us service time makes warm
   capacity an actual constraint at 100k triggers/s (~30 in flight),
   and clumped arrivals wider than the believed-free pool inside one
   placement round-trip are exactly where the policies diverge. *)
let policy_storm ?(seed = 42) ?(policy = Scenario.default.policy) ~triggers
    ~rate () =
  {
    Scenario.default with
    seed;
    policy;
    workload =
      Scenario.One_function
        (Horse_faas.Function_def.Fixed (Horse_sim.Time_ns.span_us 300.0));
    arrivals = Scenario.Bursty triggers;
    faults = Some (Scenario.Blackouts rate);
  }

(* ------------------------------------------------------------------ *)
(* Fault-rate sweep                                                    *)
(* ------------------------------------------------------------------ *)

let faults () =
  section "Fault sweep - latency and completion under injected chaos";
  let scenarios = E.faults () in
  let rows =
    List.map2
      (fun (s : Scenario.t) (r : Scenario.row) ->
        let rate =
          match s.faults with
          | Some (Scenario.Per_trigger rate) -> rate
          | Some (Scenario.Blackouts _) | None -> 0.0
        in
        [
          Printf.sprintf "%.2f%%" (rate *. 100.0);
          Horse_vmm.Sandbox.strategy_name s.strategy;
          Report.ns (r.service.p50_us *. 1e3);
          Report.ns (r.service.p99_us *. 1e3);
          Report.ns (r.service.p999_us *. 1e3);
          string_of_int r.attempted;
          string_of_int r.completed;
          string_of_int r.rejected;
          Report.pct
            (if r.attempted = 0 then 100.0
             else
               100.0 *. float_of_int r.completed /. float_of_int r.attempted);
          string_of_int r.injected;
          string_of_int r.fallbacks;
          string_of_int r.retries;
        ])
      scenarios
      (timed "faults" (fun ~jobs ->
           E.run_scenarios ~jobs ?chunk:!chunk scenarios))
  in
  Report.print
    ~caption:
      "Azure-shaped uLL storm on a 4-server cluster with \
       Recovery.default: the tail pays for every fallback rung and \
       retry honestly; the 0%% row is bit-identical to a fault-free run"
    ~header:
      [ "rate"; "strategy"; "p50"; "p99"; "p999"; "attempted"; "completed";
        "rejected"; "done %"; "faults"; "fallbacks"; "retries" ]
    rows

(* ------------------------------------------------------------------ *)
(* Scale: one sharded cluster run across domains                       *)
(* ------------------------------------------------------------------ *)

(* (servers, parked sandboxes, triggers): the big points are the ones
   the sharded engine exists for — up to ~1M parked sandboxes and
   100k triggers in a single simulated second *)
let scale_points = [ (16, 64_000, 8_000); (32, 256_000, 32_000) ]

(* The adaptive-lookahead gate: the same bursty policy storm under the
   lock-step oracle and the adaptive scheduler.  Rows must agree on
   everything but the synchronization counters, and the adaptive side
   must cut outer windows >= 5x — that is the whole point of
   per-channel clocks + idle fast-forward on clumped arrivals.
   Recorded as [shard:epochs:storm<N>k]; bench_check gates the epoch
   ratio, which is core-count independent. *)
let epoch_storm ~shards:nshards ~triggers =
  let team = Horse_parallel.Team.shared ~width:nshards in
  let measured = ref [] in
  let run s =
    let wait0 = Horse_parallel.Team.barrier_wait_ns team in
    let row, wall = Scenario.run_timed s in
    measured :=
      (wall, Horse_parallel.Team.barrier_wait_ns team - wait0) :: !measured;
    row
  in
  let storm =
    {
      (policy_storm ~triggers ~rate:0.0 ()) with
      shards = nshards;
    }
  in
  let lockstep, adaptive =
    match
      identical ~run "shard: adaptive vs lock-step"
        [ { storm with scheduler = Shard_engine.Lockstep }; storm ]
    with
    | [ l; a ] -> (l.Scenario.sync, a.Scenario.sync)
    | _ -> assert false
  in
  let (wall_adapt, barrier_wait_ns), (wall_lock, _) =
    match !measured with [ a; l ] -> (a, l) | _ -> assert false
  in
  let ratio =
    float_of_int lockstep.epochs /. float_of_int (max 1 adaptive.epochs)
  in
  Printf.printf
    "epoch storm %dk: lock-step %d epochs -> adaptive %d epochs (%s, \
     %d rounds, %d fast-forwards), traces identical\n%!"
    (triggers / 1000) lockstep.epochs adaptive.epochs (Report.ratio ratio)
    adaptive.rounds adaptive.fast_forwards;
  timings :=
    {
      Report.t_name = Printf.sprintf "shard:epochs:storm%dk" (triggers / 1000);
      t_jobs = nshards;
      (* wall clocks carry the honest lock-step-vs-adaptive cost; the
         gated quantity is the epoch ratio in the metadata *)
      t_wall_seq_s = wall_lock;
      t_wall_par_s = wall_adapt;
      t_meta =
        [
          ("epochs_lockstep", Json.Int lockstep.epochs);
          ("epochs_adaptive", Json.Int adaptive.epochs);
          ("rounds_lockstep", Json.Int lockstep.rounds);
          ("rounds_adaptive", Json.Int adaptive.rounds);
          ("fast_forwards", Json.Int adaptive.fast_forwards);
          ("barrier_wait_ns", Json.Int barrier_wait_ns);
        ];
    }
    :: !timings

let scale () =
  section
    (Printf.sprintf "Scale - sharded cluster runs (--shards %d)" !shards);
  let rounds = 3 in
  let rows =
    List.map
      (fun (servers, sandboxes, triggers) ->
        let point =
          {
            Scenario.default with
            servers;
            sandboxes;
            arrivals = Scenario.Uniform triggers;
          }
        in
        (* warm-up + the bit-identity gate: the sharded row must equal
           the sequential row, or the timing compares different work *)
        let reference =
          List.hd (identical "scale" (at_shards point [ 1; !shards ]))
        in
        let wall s = snd (Scenario.run_timed s) in
        let wall_seq = ref infinity and wall_par = ref infinity in
        for _ = 1 to rounds do
          wall_seq := Float.min !wall_seq (wall point);
          wall_par := Float.min !wall_par (wall { point with shards = !shards })
        done;
        timings :=
          {
            Report.t_name =
              Printf.sprintf "scale:%dsrv/%dk-sb/%dk-trig" servers
                (sandboxes / 1000) (triggers / 1000);
            t_jobs = !shards;
            t_wall_seq_s = !wall_seq;
            t_wall_par_s = !wall_par;
            (* synchronization structure of the run — identical on the
               sequential and sharded sides (the identity gate above
               compares these fields too) *)
            t_meta =
              [
                ("epochs", Json.Int reference.sync.epochs);
                ("rounds", Json.Int reference.sync.rounds);
                ("fast_forwards", Json.Int reference.sync.fast_forwards);
              ];
          }
          :: !timings;
        [
          string_of_int servers;
          string_of_int sandboxes;
          string_of_int triggers;
          string_of_int reference.completed;
          string_of_int reference.rejected;
          Report.ns (reference.service.p99_us *. 1e3);
          string_of_int reference.sync.epochs;
          string_of_int reference.messages;
          Printf.sprintf "%.3fs" !wall_seq;
          Printf.sprintf "%.3fs" !wall_par;
          Report.ratio (!wall_seq /. !wall_par);
        ])
      scale_points
  in
  Report.print
    ~caption:
      (Printf.sprintf
         "One cluster run over %d domains, bit-identical to sequential \
          (checked every point); wall is the run phase, min of %d rounds"
         !shards rounds)
    ~header:
      [ "servers"; "sandboxes"; "triggers"; "completed"; "rejected"; "p99";
        "epochs"; "messages"; "seq wall"; "par wall"; "speedup" ]
    rows;
  (* the acceptance point: 100k bursty triggers, lock-step vs adaptive *)
  epoch_storm ~shards:!shards ~triggers:100_000

(* ------------------------------------------------------------------ *)
(* Shard: quick adaptive-scheduler gate (make bench-shard)             *)
(* ------------------------------------------------------------------ *)

let shard () =
  section "Shard - adaptive-lookahead scheduler quick gate";
  (* bit-identity across shard counts under the adaptive scheduler:
     every scheduling quantity (channel clocks, window starts,
     fast-forward targets) is computed from global workload state, so
     any shard count must reproduce the shards=1 rows exactly *)
  let triggers = 20_000 in
  List.iter
    (fun seed ->
      ignore
        (identical "shard"
           (at_shards (policy_storm ~seed ~triggers ~rate:0.9 ()) [ 1; 2; 4 ])))
    [ 1; 42; 1337 ];
  Printf.printf
    "identity: adaptive scheduler bit-identical for seeds {1,42,1337} x \
     shards {1,2,4} at %dk triggers\n%!"
    (triggers / 1000);
  (* the quick epoch gate: same shape as the scale section's 100k
     acceptance point, at a point small enough for make verify *)
  epoch_storm ~shards:!shards ~triggers

(* ------------------------------------------------------------------ *)
(* Policy shoot-out: push vs pull vs core-granular under blackouts     *)
(* ------------------------------------------------------------------ *)

let policy_triggers = [ 10_000; 100_000 ]

let policy_rates = [ 0.0; 0.5; 0.9 ]

(* Record a virtual-time tail ratio into a timing entry: seq = the
   baseline tail, par = the contender's, so "speedup" = baseline tail
   / contender tail and the bench_check >= 1.0 gate reads "the
   contender wins". *)
let record_ratio name seq_us par_us =
  timings :=
    {
      Report.t_name = name;
      t_jobs = !shards;
      t_wall_seq_s = seq_us /. 1e6;
      t_wall_par_s = par_us /. 1e6;
      t_meta = [];
    }
    :: !timings

let policy () =
  let module Cluster = Horse_faas.Cluster in
  section
    (Printf.sprintf "Policy shoot-out - scheduling policies under blackouts \
                     (--shards %d)"
       !shards);
  let builtins = Cluster.Policy.builtins () in
  let highest_rate = List.fold_left Float.max 0.0 policy_rates in
  let identity_triggers = 100_000 in
  (* the bit-identity gate: every policy must produce the same row at
     any shard count, for several seeds, at 100k-trigger scale — or
     the shoot-out below compares different work *)
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          ignore
            (identical "policy"
               (at_shards
                  (policy_storm ~seed ~policy ~triggers:identity_triggers
                     ~rate:highest_rate ())
                  [ 1; 2; 4 ])))
        [ 1; 42; 1337 ])
    builtins;
  Printf.printf
    "identity: %d policies x seeds {1,42,1337} x shards {1,2,4} \
     bit-identical at %dk triggers\n%!"
    (List.length builtins) (identity_triggers / 1000);
  let rows =
    List.concat_map
      (fun policy ->
        List.concat_map
          (fun n ->
            List.map
              (fun rate ->
                ( Cluster.Policy.name policy,
                  n,
                  rate,
                  Scenario.run
                    {
                      (policy_storm ~policy ~triggers:n ~rate ()) with
                      shards = !shards;
                    } ))
              policy_rates)
          policy_triggers)
      builtins
  in
  Report.print
    ~caption:
      "uLL storm on a 4-server sharded cluster with self-healing \
       recovery: push pays the recovery ladder when it routes onto a \
       freshly wiped server, pull re-earns trust one completion at a \
       time, core binds to free vCPUs"
    ~header:
      [ "policy"; "blackout/s"; "triggers"; "completed"; "rejected";
        "pending"; "p50"; "p99"; "p999"; "outages"; "messages" ]
    (List.map
       (fun (name, n, rate, (r : Scenario.row)) ->
         [
           name;
           Printf.sprintf "%.2f" rate;
           string_of_int n;
           string_of_int r.completed;
           string_of_int r.rejected;
           string_of_int r.pending;
           Report.ns (r.e2e.p50_us *. 1e3);
           Report.ns (r.e2e.p99_us *. 1e3);
           Report.ns (r.e2e.p999_us *. 1e3);
           string_of_int r.blackouts;
           string_of_int r.messages;
         ])
       rows);
  (* gated entries: at the highest blackout rate, pull's tail must not
     be worse than push's *)
  let find label n =
    let _, _, _, (r : Scenario.row) =
      List.find
        (fun (name, m, rate, _) -> name = label && m = n && rate = highest_rate)
        rows
    in
    r.e2e
  in
  List.iter
    (fun n ->
      let push = find "push-warm-first" n in
      let pull = find "pull" n in
      let core = find "core" n in
      record_ratio
        (Printf.sprintf "policy:pull-vs-push:p99:%dk" (n / 1000))
        push.p99_us pull.p99_us;
      record_ratio
        (Printf.sprintf "policy:pull-vs-push:p999:%dk" (n / 1000))
        push.p999_us pull.p999_us;
      (* informational, ungated: core-granular vs push on the same axis *)
      record_ratio
        (Printf.sprintf "micro:policy:core-vs-push:p99:%dk" (n / 1000))
        push.p99_us core.p99_us)
    policy_triggers

(* ------------------------------------------------------------------ *)
(* Workflow chains: platform-side fusion                               *)
(* ------------------------------------------------------------------ *)

let chain_lens = [ 1; 3; 6 ]

let chain_scenario ?(seed = 42) ~strategy ~len ~fused () =
  {
    Scenario.default with
    seed;
    strategy;
    workload = Scenario.Chain { len; fused };
    arrivals = Scenario.Uniform 2_000;
    duration_s = 0.25;
  }

let chain () =
  let module Sandbox = Horse_vmm.Sandbox in
  section
    (Printf.sprintf
       "Chain - workflow DAGs, platform-side fusion on/off (--shards %d)"
       !shards);
  (* the bit-identity gate first: the deepest chain, fused and unfused,
     must produce the same row at any shard count for several seeds —
     or the sweep below compares different work *)
  List.iter
    (fun fused ->
      List.iter
        (fun seed ->
          ignore
            (identical "chain"
               (at_shards
                  (chain_scenario ~seed ~strategy:Sandbox.Horse ~len:6 ~fused
                     ())
                  [ 1; 2; 4 ])))
        [ 1; 42; 1337 ])
    [ false; true ];
  Printf.printf
    "identity: len-6 chain, fused x unfused, seeds {1,42,1337} x shards \
     {1,2,4} bit-identical\n%!";
  let rows =
    List.concat_map
      (fun strategy ->
        List.concat_map
          (fun len ->
            List.map
              (fun fused ->
                ( Sandbox.strategy_name strategy,
                  len,
                  fused,
                  Scenario.run
                    {
                      (chain_scenario ~strategy ~len ~fused ()) with
                      shards = !shards;
                    } ))
              [ false; true ])
          chain_lens)
      [ Sandbox.Horse; Sandbox.Vanilla ]
  in
  Report.print
    ~caption:
      "uLL chain workflows on a 4-server sharded cluster: unfused pays a \
       completion notification plus a placement round-trip per hop, fused \
       collapses the chain into one resume/pause"
    ~header:
      [ "strategy"; "len"; "fused"; "instances"; "completed"; "p50"; "p99";
        "p999" ]
    (List.map
       (fun (strategy, len, fused, (r : Scenario.row)) ->
         [
           strategy;
           string_of_int len;
           (if fused then "yes" else "no");
           string_of_int r.attempted;
           string_of_int r.completed;
           Report.ns (r.e2e.p50_us *. 1e3);
           Report.ns (r.e2e.p99_us *. 1e3);
           Report.ns (r.e2e.p999_us *. 1e3);
         ])
       rows);
  let find strategy len fused =
    let _, _, _, (r : Scenario.row) =
      List.find
        (fun (s, l, f, _) -> s = strategy && l = len && f = fused)
        rows
    in
    r.e2e
  in
  (* gated entries: fusion must win the tail at every length >= 3
     (unfused is the baseline, fused the contender) *)
  List.iter
    (fun len ->
      if len >= 3 then begin
        let unfused = find "horse" len false in
        let fused = find "horse" len true in
        record_ratio
          (Printf.sprintf "chain:fused-vs-unfused:p99:len%d" len)
          unfused.p99_us fused.p99_us;
        record_ratio
          (Printf.sprintf "chain:fused-vs-unfused:p999:len%d" len)
          unfused.p999_us fused.p999_us
      end)
    chain_lens;
  (* informational, ungated: fusion is a no-op at length 1, and the
     vanilla-strategy tail shows the win is not HORSE-specific *)
  record_ratio "micro:chain:len1-fusion-noop:p99"
    (find "horse" 1 false).p99_us (find "horse" 1 true).p99_us;
  record_ratio "micro:chain:vanil-fused-vs-unfused:p99:len6"
    (find "vanil" 6 false).p99_us (find "vanil" 6 true).p99_us

(* ------------------------------------------------------------------ *)
(* Router: partitioned control plane (make bench-router)               *)
(* ------------------------------------------------------------------ *)

(* The router sweep's points: 1 is the serial reference, the gated
   acceptance point is whatever --routers asks for (default 4, the
   bench_check floor kicks in at >= 4). *)
let router_points () =
  List.sort_uniq compare (List.filter (fun r -> r <= 8) [ 1; 2; 4; 8; !routers ])

(* The bursty storm whose fn-id column cycles a 32-function palette:
   the affinity hash spreads it near-uniformly over every router, the
   serial bottleneck this sweep measures. *)
let router_storm ?(seed = 42) ~routers ~triggers () =
  {
    Scenario.default with
    seed;
    routers;
    servers = 8;
    sandboxes = 1_024;
    workload = Scenario.Palette;
    arrivals = Scenario.Bursty triggers;
  }

let router () =
  section
    (Printf.sprintf
       "Router - partitioned control plane (--routers %d, --shards %d)"
       !routers !shards);
  (* the bit-identity gates first: at each router count the row must be
     byte-identical for any shard count and under both schedulers, for
     several seeds — or the sweep below compares different work *)
  let identity_triggers = 20_000 in
  List.iter
    (fun routers ->
      List.iter
        (fun seed ->
          let storm =
            router_storm ~seed ~routers ~triggers:identity_triggers ()
          in
          let lockstep =
            { storm with shards = 4; scheduler = Shard_engine.Lockstep }
          in
          ignore
            (identical "router" (at_shards storm [ 1; 2; 4 ] @ [ lockstep ])))
        [ 1; 42 ])
    (List.filter (fun r -> r <= 4) (router_points ()));
  Printf.printf
    "identity: routers {1,2,4} x seeds {1,42} x shards {1,2,4} x \
     schedulers bit-identical at %dk triggers\n%!"
    (identity_triggers / 1000);
  (* the acceptance sweep: the 100k bursty storm, run-phase wall clock
     at each router count against the single-router plane *)
  let triggers = 100_000 in
  let rounds = 3 in
  let measure routers =
    let storm =
      { (router_storm ~routers ~triggers ()) with shards = !shards }
    in
    let row = Scenario.run storm (* warm-up *) in
    let best = ref infinity in
    for _ = 1 to rounds do
      best := Float.min !best (snd (Scenario.run_timed storm))
    done;
    (row, !best)
  in
  let measured = List.map (fun r -> (r, measure r)) (router_points ()) in
  let _, (_, base_wall) = List.hd measured in
  List.iter
    (fun (r, ((row : Scenario.row), w)) ->
      if r >= 2 then
        timings :=
          {
            Report.t_name =
              Printf.sprintf "router:plane:r%d:%dk-trig" r (triggers / 1000);
            (* the "jobs" of a router entry records the router count *)
            t_jobs = r;
            t_wall_seq_s = base_wall;
            t_wall_par_s = w;
            t_meta =
              [
                ("routers", Json.Int r);
                ("spills", Json.Int row.spills);
                ("epochs", Json.Int row.sync.epochs);
                ("messages", Json.Int row.messages);
              ];
          }
          :: !timings)
    measured;
  Report.print
    ~caption:
      (Printf.sprintf
         "100k bursty triggers over 32 functions on 8 servers: the \
          function-affinity hash spreads the storm over R router strands; \
          wall is the run phase, min of %d rounds, speedup vs routers=1"
         rounds)
    ~header:
      [ "routers"; "completed"; "rejected"; "spills"; "p50"; "p99";
        "epochs"; "messages"; "wall"; "speedup" ]
    (List.map
       (fun (r, ((row : Scenario.row), w)) ->
         [
           string_of_int r;
           string_of_int row.completed;
           string_of_int row.rejected;
           string_of_int row.spills;
           Report.ns (row.service.p50_us *. 1e3);
           Report.ns (row.service.p99_us *. 1e3);
           string_of_int row.sync.epochs;
           string_of_int row.messages;
           Printf.sprintf "%.3fs" w;
           Report.ratio (base_wall /. w);
         ])
       measured)

(* ------------------------------------------------------------------ *)
(* Headline summary                                                    *)
(* ------------------------------------------------------------------ *)

let summary () =
  section "Headline claims";
  let s = timed "summary" (fun ~jobs -> E.summary ~jobs ?chunk:!chunk ()) in
  Report.print ~caption:"Measured vs paper"
    ~header:[ "claim"; "measured"; "paper" ]
    [
      [ "warm resume speedup"; Report.ratio s.resume_speedup; "up to 7.16x" ];
      [ "HORSE resume time"; Report.ns s.horse_resume_ns; "~150ns constant" ];
      [ "init overhead vs warm"; Report.ratio s.init_overhead_vs_warm;
        "up to 8.95x" ];
      [ "init overhead vs restore"; Report.ratio s.init_overhead_vs_restore;
        "up to 142.7x" ];
      [ "init overhead vs cold"; Report.ratio s.init_overhead_vs_cold;
        "up to 142.84x" ];
      [ "HORSE init%% range";
        Printf.sprintf "%.2f%% - %.2f%%" s.horse_init_pct_min
          s.horse_init_pct_max;
        "0.77% - 17.64%" ];
    ]

(* ------------------------------------------------------------------ *)
(* Xen profile spot-check                                              *)
(* ------------------------------------------------------------------ *)

let xen () =
  section "Xen profile - same shape on the second virtualization system";
  let s =
    E.fig3_summarise (timed "fig3:xen" (fun ~jobs -> E.fig3 ~profile:E.Xen ~jobs ?chunk:!chunk ()))
  in
  Report.print
    ~caption:
      "Paper reports 'similar observations' on Xen; the improvements must \
       hold on the heavier profile too"
    ~header:[ "metric"; "xen measured" ]
    [
      [ "horse speedup (max)"; Report.ratio s.horse_speedup_max ];
      [ "horse resume time"; Report.ns s.horse_constant_ns ];
      [ "ppsm improvement (max)"; Report.pct (100.0 *. s.ppsm_improvement_max) ];
      [ "coal improvement (max)"; Report.pct (100.0 *. s.coal_improvement_max) ];
    ];
  (* the platform-level view (Figure 4 style) on Xen *)
  let cells =
    timed "fig4:xen" (fun ~jobs -> E.fig4 ~profile:E.Xen ~repeats:5 ~jobs ?chunk:!chunk ())
  in
  let scenarios = [ E.Cold; E.Restore; E.Warm; E.Horse_start ] in
  Report.print
    ~caption:"Init share per scenario on the Xen profile"
    ~header:[ "category"; "cold"; "restore"; "warm"; "horse" ]
    (List.map
       (fun category ->
         Category.name category
         :: List.map
              (fun scenario ->
                let cell =
                  List.find
                    (fun (c : E.fig4_cell) ->
                      c.E.f4_category = category && c.E.f4_scenario = scenario)
                    cells
                in
                Report.pct cell.E.f4_init_pct)
              scenarios)
       Category.all)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the real implementations               *)
(* ------------------------------------------------------------------ *)

module Ll = Horse_psm.Linked_list
module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Reference = Horse_psm.Reference
module Coalesce = Horse_coalesce.Coalesce

let merge_setup ~source_len ~target_len =
  let rng = Horse_sim.Rng.create ~seed:17 in
  let sorted n =
    List.sort Int.compare
      (List.init n (fun _ -> Horse_sim.Rng.int rng 1_000_000))
  in
  let source = Ll.of_sorted_list ~compare:Int.compare (sorted source_len) in
  let target = Ll.of_sorted_list ~compare:Int.compare (sorted target_len) in
  (source, target)

(* Same content, but as arena lists sharing one arena — what the real
   run-queue substrate uses and what P²SM now operates on. *)
let merge_setup_arena ~source_len ~target_len =
  let rng = Horse_sim.Rng.create ~seed:17 in
  let sorted n =
    List.sort Int.compare
      (List.init n (fun _ -> Horse_sim.Rng.int rng 1_000_000))
  in
  let arena =
    Al.create_arena ~capacity:(source_len + target_len) ~compare:Int.compare ()
  in
  let source = Al.of_sorted_list arena (sorted source_len) in
  let target = Al.of_sorted_list arena (sorted target_len) in
  (source, target)

(* The two merge operations consume their inputs, so they cannot run
   under Bechamel's resource runner (bechamel 0.5 re-applies the
   function to one resource).  Time them manually instead: pre-build a
   batch of instances, time each execution, report the median. *)
let time_consuming ~name ~batch ~allocate ~run =
  let instances = Array.init batch (fun _ -> allocate ()) in
  let samples =
    Array.map
      (fun instance ->
        let t0 = Monotonic_clock.now () in
        run instance;
        let t1 = Monotonic_clock.now () in
        Int64.to_float (Int64.sub t1 t0))
      instances
  in
  Array.sort Float.compare samples;
  (name, samples.(batch / 2))

let manual_merge_benches () =
  List.concat_map
    (fun target_len ->
      [
        time_consuming
          ~name:(Printf.sprintf "merge/sequential 36 into %d" target_len)
          ~batch:1001
          ~allocate:(fun () -> merge_setup ~source_len:36 ~target_len)
          ~run:(fun (source, target) ->
            ignore (Reference.insert_each ~source ~target));
        time_consuming
          ~name:(Printf.sprintf "merge/psm-splice 36 into %d" target_len)
          ~batch:1001
          ~allocate:(fun () ->
            let source, target = merge_setup_arena ~source_len:36 ~target_len in
            let index = Psm.Index.build target in
            let plan = Psm.Plan.build ~source ~index in
            (source, index, plan))
          ~run:(fun (source, index, plan) ->
            ignore (Psm.Plan.execute plan ~index ~source));
      ])
    [ 128; 1024; 4096 ]

let bench_psm_precompute ~source_len ~target_len =
  let source, target = merge_setup_arena ~source_len ~target_len in
  let index = Psm.Index.build target in
  Bechamel.Test.make
    ~name:
      (Printf.sprintf "psm/precompute %d vs %d" source_len target_len)
    (Bechamel.Staged.stage (fun () ->
         ignore (Psm.Plan.build ~source ~index)))

(* the O(|A|·log|B|) variant of the paper's O(n) position scan *)
let bench_psm_precompute_binary ~source_len ~target_len =
  let source, target = merge_setup_arena ~source_len ~target_len in
  let index = Psm.Index.build target in
  Bechamel.Test.make
    ~name:
      (Printf.sprintf "psm/precompute-binary %d vs %d" source_len target_len)
    (Bechamel.Staged.stage (fun () ->
         ignore (Psm.Plan.build_binary ~source ~index)))

(* the simulator's pending-event set: schedule+drain of a burst
   spread over 50ms, so most events take the 4-ary heap path *)
let bench_event_queue n =
  let rng = Horse_sim.Rng.create ~seed:23 in
  let ats =
    Array.init n (fun _ ->
        Horse_sim.Time_ns.of_ns (Horse_sim.Rng.int rng 50_000_000))
  in
  Bechamel.Test.make
    ~name:(Printf.sprintf "events/heap-queue %d" n)
    (Bechamel.Staged.stage (fun () ->
         let q = Horse_sim.Event_queue.create () in
         Array.iter (fun at -> ignore (Horse_sim.Event_queue.schedule q ~at ())) ats;
         let rec drain () =
           match Horse_sim.Event_queue.pop q with
           | Some _ -> drain ()
           | None -> ()
         in
         drain ()))

let bench_load_iterated n =
  Bechamel.Test.make
    ~name:(Printf.sprintf "load/iterated n=%d" n)
    (Bechamel.Staged.stage (fun () ->
         ignore (Coalesce.Affine.iterate Coalesce.Affine.pelt n 512.0)))

let bench_load_coalesced n =
  let pelt = Coalesce.Affine.pelt in
  let pre =
    Coalesce.Precomputed.make ~alpha:pelt.Coalesce.Affine.alpha
      ~beta:pelt.Coalesce.Affine.beta ~n
  in
  Bechamel.Test.make
    ~name:(Printf.sprintf "load/coalesced n=%d" n)
    (Bechamel.Staged.stage (fun () -> ignore (Coalesce.Precomputed.apply pre 512.0)))

let bench_workload category =
  Bechamel.Test.make
    ~name:("workload/" ^ Category.name category)
    (Bechamel.Staged.stage (fun () -> ignore (Category.run_real category)))

let micro () =
  section "Micro-benchmarks (real wall-clock, Bechamel)";
  let tests =
    Bechamel.Test.make_grouped ~name:"horse"
      [
        bench_psm_precompute ~source_len:36 ~target_len:128;
        bench_psm_precompute ~source_len:36 ~target_len:4096;
        bench_psm_precompute_binary ~source_len:36 ~target_len:128;
        bench_psm_precompute_binary ~source_len:36 ~target_len:4096;
        bench_event_queue 1024;
        bench_load_iterated 36;
        bench_load_coalesced 36;
        bench_workload Category.Cat1;
        bench_workload Category.Cat2;
        bench_workload Category.Cat3;
      ]
  in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:300
      ~quota:(Bechamel.Time.second 0.25)
      ~kde:None ()
  in
  let instance = Bechamel.Toolkit.Instance.monotonic_clock in
  let raw = Bechamel.Benchmark.all cfg [ instance ] tests in
  let ols =
    Bechamel.Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results = Bechamel.Analyze.all ols instance raw in
  let rows =
    List.map (fun (name, ns) -> [ name; Report.ns ns ]) (manual_merge_benches ())
    @ (Hashtbl.fold
         (fun name result acc ->
           let estimate =
             match Bechamel.Analyze.OLS.estimates result with
             | Some [ e ] -> Report.ns e
             | Some _ | None -> "n/a"
           in
           [ name; estimate ] :: acc)
         results []
      |> List.sort compare)
  in
  Report.print
    ~caption:
      "P2SM's splice must be (near-)constant while the sequential merge \
       grows with the target size; one coalesced update must beat 36 \
       iterated ones"
    ~header:[ "benchmark"; "ns/run" ]
    rows

(* ------------------------------------------------------------------ *)
(* csv: machine-readable dumps for plotting                            *)
(* ------------------------------------------------------------------ *)

let write_csv path header rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (String.concat "," header);
      output_char oc '\n';
      List.iter
        (fun row ->
          output_string oc (String.concat "," row);
          output_char oc '\n')
        rows);
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

let csv () =
  let dir = "results" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let f = Printf.sprintf "%.6f" in
  write_csv (Filename.concat dir "fig2_breakdown.csv")
    [ "vcpus"; "parse_ns"; "lock_ns"; "sanity_ns"; "merge_ns"; "load_ns";
      "finalize_ns"; "steps45_pct" ]
    (List.map
       (fun (r : E.fig2_row) ->
         [
           string_of_int r.E.vcpus; f r.E.parse_ns; f r.E.lock_ns;
           f r.E.sanity_ns; f r.E.merge_ns; f r.E.load_ns; f r.E.finalize_ns;
           f r.E.steps45_pct;
         ])
       (E.fig2 ~jobs:!jobs ?chunk:!chunk ()));
  write_csv (Filename.concat dir "fig3_strategies.csv")
    [ "vcpus"; "vanil_ns"; "coal_ns"; "ppsm_ns"; "horse_ns" ]
    (List.map
       (fun (r : E.fig3_row) ->
         [
           string_of_int r.E.vcpus; f r.E.vanil_ns; f r.E.coal_ns;
           f r.E.ppsm_ns; f r.E.horse_ns;
         ])
       (E.fig3 ~jobs:!jobs ?chunk:!chunk ()));
  write_csv (Filename.concat dir "fig4_init_share.csv")
    [ "category"; "scenario"; "init_pct" ]
    (List.map
       (fun (c : E.fig4_cell) ->
         [
           Category.name c.E.f4_category; E.scenario_name c.E.f4_scenario;
           f c.E.f4_init_pct;
         ])
       (E.fig4 ~jobs:!jobs ?chunk:!chunk ()));
  write_csv (Filename.concat dir "colocation.csv")
    [ "ull_vcpus"; "vanilla_mean_ms"; "vanilla_p95_ms"; "vanilla_p99_ms";
      "horse_mean_ms"; "horse_p95_ms"; "horse_p99_ms"; "p99_delta_us";
      "affected"; "max_delay_us" ]
    (List.map
       (fun (r : E.colocation_row) ->
         [
           string_of_int r.E.c_vcpus; f r.E.vanilla_mean_ms;
           f r.E.vanilla_p95_ms; f r.E.vanilla_p99_ms; f r.E.horse_mean_ms;
           f r.E.horse_p95_ms; f r.E.horse_p99_ms; f r.E.p99_delta_us;
           string_of_int r.E.affected; f r.E.max_delay_us;
         ])
       (E.colocation ~jobs:!jobs ?chunk:!chunk ()))

(* ------------------------------------------------------------------ *)

(* Every timed experiment sweep, back to back — what `make bench-json`
   runs so BENCH_summary.json covers the full evaluation, not one
   figure.  (fig1 re-times table1's computation, so it is skipped.) *)
let sweeps () =
  table1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  overhead ();
  colocation ();
  summary ();
  xen ();
  faults ()

let all () =
  table1 ();
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ();
  overhead ();
  colocation ();
  summary ();
  xen ();
  faults ();
  scale ();
  policy ();
  chain ();
  router ();
  ablations ();
  micro ()

let () =
  let experiments =
    [
      ("table1", table1); ("fig1", fig1); ("fig2", fig2); ("fig3", fig3);
      ("fig4", fig4); ("overhead", overhead); ("colocation", colocation);
      ("summary", summary); ("xen", xen); ("faults", faults);
      ("scale", scale); ("shard", shard); ("policy", policy);
      ("chain", chain); ("router", router); ("sweeps", sweeps);
      ("ablations", ablations);
      ("micro", micro); ("csv", csv); ("all", all);
    ]
  in
  let usage () =
    Printf.eprintf
      "usage: %s [experiment] [--jobs N] [--chunk C] [--shards S] \
       [--routers R] [--json FILE]\n"
      Sys.argv.(0);
    Printf.eprintf "experiments: %s\n" (String.concat ", " (List.map fst experiments));
    exit 1
  in
  let rec parse positional = function
    | [] -> List.rev positional
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse positional rest
      | Some _ | None ->
        Printf.eprintf "--jobs: expected a positive integer, got %S\n" n;
        exit 1)
    | "--chunk" :: c :: rest -> (
      match int_of_string_opt c with
      | Some c when c >= 1 ->
        chunk := Some c;
        parse positional rest
      | Some _ | None ->
        Printf.eprintf "--chunk: expected a positive integer, got %S\n" c;
        exit 1)
    | "--shards" :: s :: rest -> (
      match int_of_string_opt s with
      | Some s when s >= 1 ->
        shards := s;
        parse positional rest
      | Some _ | None ->
        Printf.eprintf "--shards: expected a positive integer, got %S\n" s;
        exit 1)
    | "--routers" :: r :: rest -> (
      match int_of_string_opt r with
      | Some r when r >= 1 && r <= 8 ->
        routers := r;
        parse positional rest
      | Some _ | None ->
        Printf.eprintf "--routers: expected an integer in 1..8, got %S\n" r;
        exit 1)
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse positional rest
    | [ (("--jobs" | "--chunk" | "--shards" | "--routers" | "--json") as flag) ] ->
      Printf.eprintf "missing value after %s\n" flag;
      usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      Printf.eprintf "unknown option %S\n" arg;
      usage ()
    | name :: rest -> parse (name :: positional) rest
  in
  let run name =
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown experiment %S; available: %s\n" name
        (String.concat ", " (List.map fst experiments));
      exit 1
  in
  (match parse [] (List.tl (Array.to_list Sys.argv)) with
  | [] -> all ()
  | [ name ] -> run name
  | _ -> usage ());
  match !json_path with
  | None -> ()
  | Some path -> Report.write_json ~path ~jobs:!jobs (List.rev !timings)
