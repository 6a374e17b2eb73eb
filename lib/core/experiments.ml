module Time = Horse_sim.Time_ns
module Engine = Horse_sim.Engine
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Category = Horse_workload.Category
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Function_def = Horse_faas.Function_def
module Trigger_records = Horse_faas.Trigger_records

module Team = Horse_parallel.Team

type profile = Scenario.profile = Firecracker | Xen

type scenario = Cold | Restore | Warm | Horse_start

let scenario_name = function
  | Cold -> "cold"
  | Restore -> "restore"
  | Warm -> "warm"
  | Horse_start -> "horse"

let default_sweep = [ 1; 2; 4; 8; 12; 16; 20; 24; 28; 32; 36 ]

let mean values = Stats.mean_of values

(* Fan independent experiment tasks over the cached process-wide team
   of [jobs] strands.  Every task closes over its complete input —
   profile, seed arithmetic, sweep point — before the round, and
   results come back in list order, so the output is bit-identical to
   [List.map] for any [jobs] (the determinism tests and the
   paper-tables golden at --jobs 4 pin it).  [jobs = 1] *is*
   [List.map]: no team, no domains.  Reusing [Team.shared] means a
   sweep never pays domain spawns, and a sharded scenario inside a
   task that meets a team already in a round runs its strands inline
   ({!Team.run}'s nesting rule). *)
let fan ~jobs f items =
  if jobs <= 1 then List.map f items
  else Team.map (Team.shared ~width:jobs) f items

let ns_of span = float_of_int (Time.span_to_ns span)

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* A fresh single-server hypervisor for direct Vmm experiments.  The
   paper's Section 5 testbed runs with hyperthreading enabled (144
   logical CPUs); Section 2's uses SMT off. *)
let fresh_vmm ~profile ~seed =
  let scheduler =
    Scheduler.create ~ull_count:1 ~topology:Topology.r650_smt ()
  in
  let metrics = Metrics.create () in
  let vmm =
    Vmm.create ~cost:(Scenario.cost_of_profile profile) ~seed ~scheduler
      ~metrics ()
  in
  (vmm, scheduler, metrics)

(* One boot → pause → resume round-trip; returns the resume result. *)
let resume_once ~profile ~seed ~strategy ~vcpus =
  let vmm, _, _ = fresh_vmm ~profile ~seed in
  let sb = Sandbox.create ~id:0 ~vcpus ~memory_mb:512 ~ull:true () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy sb);
  Vmm.resume vmm sb

type measurement = { mean_ns : float; ci95_rel : float; runs : int }

let measure_resume ?(profile = Firecracker) ?(seed = 42) ?(ci_target = 0.03)
    ?(max_runs = 100) ~strategy ~vcpus () =
  if ci_target <= 0.0 then invalid_arg "Experiments.measure_resume: ci_target";
  let acc = Stats.Online.create () in
  let rec go run =
    Stats.Online.add acc
      (ns_of (resume_once ~profile ~seed:(seed + run) ~strategy ~vcpus).Vmm.total);
    let n = Stats.Online.count acc in
    let rel =
      if Stats.Online.mean acc = 0.0 then 0.0
      else Stats.Online.ci95_half_width acc /. Stats.Online.mean acc
    in
    if n >= max_runs || (n >= 10 && rel <= ci_target) then
      { mean_ns = Stats.Online.mean acc; ci95_rel = rel; runs = n }
    else go (run + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Table 1 / Figure 1                                                  *)
(* ------------------------------------------------------------------ *)

type table1_cell = {
  category : Category.t;
  scenario : scenario;
  init_us : float;
  exec_us : float;
  init_pct : float;
}

let scenario_mode = function
  | Cold -> Platform.Cold
  | Restore -> Platform.Restore
  | Warm -> Platform.Warm Sandbox.Vanilla
  | Horse_start -> Platform.Warm Sandbox.Horse

let run_start_scenarios ~profile ~repeats ~seed ~scenarios ~jobs () =
  (* one task per (category, scenario) cell: each owns a private
     engine + platform, so cells parallelise without sharing state *)
  let cells =
    List.concat_map
      (fun category -> List.map (fun scenario -> (category, scenario)) scenarios)
      Category.all
  in
  fan ~jobs
    (fun (category, scenario) ->
      let engine = Engine.create ~seed () in
          let platform =
            Platform.create ~cost:(Scenario.cost_of_profile profile) ~seed
              ~engine ()
          in
          let name = Category.name category in
          Platform.register platform
            (Function_def.create ~name ~vcpus:1 ~memory_mb:512
               ~exec:(Function_def.Ull category) ());
          (match scenario with
          | Warm ->
            Platform.provision platform ~name ~count:1
              ~strategy:Sandbox.Vanilla
          | Horse_start ->
            Platform.provision platform ~name ~count:1 ~strategy:Sandbox.Horse
          | Cold | Restore -> ());
          let fn_id = Platform.fn_id platform ~name in
          let arena = Platform.trigger_records platform in
          let inits = ref [] and execs = ref [] in
          for _ = 1 to repeats do
            Platform.trigger platform ~fn_id ~mode:(scenario_mode scenario)
              ~on_complete:(fun slot ->
                inits := ns_of (Trigger_records.init arena slot) :: !inits;
                execs := ns_of (Trigger_records.exec arena slot) :: !execs)
              ();
            Engine.run engine
          done;
          let init_ns = mean !inits and exec_ns = mean !execs in
          {
            category;
            scenario;
            init_us = init_ns /. 1e3;
            exec_us = exec_ns /. 1e3;
            init_pct = 100.0 *. init_ns /. (init_ns +. exec_ns);
          })
    cells

let table1 ?(profile = Firecracker) ?(repeats = 10) ?(seed = 42) ?(jobs = 1)
    () =
  run_start_scenarios ~profile ~repeats ~seed ~jobs
    ~scenarios:[ Cold; Restore; Warm ] ()

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

type fig2_row = {
  vcpus : int;
  parse_ns : float;
  lock_ns : float;
  sanity_ns : float;
  merge_ns : float;
  load_ns : float;
  finalize_ns : float;
  steps45_pct : float;
}

let fig2 ?(profile = Firecracker) ?(repeats = 10) ?(seed = 42)
    ?(vcpus = default_sweep) ?(jobs = 1) () =
  fan ~jobs
    (fun n ->
      let breakdowns =
        List.init repeats (fun r ->
            (resume_once ~profile ~seed:(seed + r) ~strategy:Sandbox.Vanilla
               ~vcpus:n)
              .Vmm.breakdown)
      in
      let avg f = mean (List.map f breakdowns) in
      let parse_ns = avg (fun b -> b.Vmm.parse_ns) in
      let lock_ns = avg (fun b -> b.Vmm.lock_ns) in
      let sanity_ns = avg (fun b -> b.Vmm.sanity_ns) in
      let merge_ns = avg (fun b -> b.Vmm.merge_ns) in
      let load_ns = avg (fun b -> b.Vmm.load_ns) in
      let finalize_ns = avg (fun b -> b.Vmm.finalize_ns) in
      let total =
        parse_ns +. lock_ns +. sanity_ns +. merge_ns +. load_ns +. finalize_ns
      in
      {
        vcpus = n;
        parse_ns;
        lock_ns;
        sanity_ns;
        merge_ns;
        load_ns;
        finalize_ns;
        steps45_pct = 100.0 *. (merge_ns +. load_ns) /. total;
      })
    vcpus

(* ------------------------------------------------------------------ *)
(* Figure 3                                                            *)
(* ------------------------------------------------------------------ *)

type fig3_row = {
  vcpus : int;
  vanil_ns : float;
  ppsm_ns : float;
  coal_ns : float;
  horse_ns : float;
}

let fig3 ?(profile = Firecracker) ?(repeats = 10) ?(seed = 42)
    ?(vcpus = default_sweep) ?(jobs = 1) () =
  let measure (n, strategy) =
    mean
      (List.init repeats (fun r ->
           ns_of
             (resume_once ~profile ~seed:(seed + r) ~strategy ~vcpus:n)
               .Vmm.total))
  in
  (* finer grain than one-task-per-sweep-point: a 36-vCPU vanilla
     resume costs ~36x a 1-vCPU one, so (point, strategy) tasks let
     work stealing balance the sweep *)
  let strategies = [ Sandbox.Vanilla; Sandbox.Ppsm; Sandbox.Coal; Sandbox.Horse ] in
  let tasks =
    List.concat_map (fun n -> List.map (fun s -> (n, s)) strategies) vcpus
  in
  let measured = fan ~jobs measure tasks in
  let rec rows vcpus measured =
    match (vcpus, measured) with
    | [], [] -> []
    | n :: ns, vanil_ns :: ppsm_ns :: coal_ns :: horse_ns :: rest ->
      { vcpus = n; vanil_ns; ppsm_ns; coal_ns; horse_ns } :: rows ns rest
    | _ -> assert false
  in
  rows vcpus measured

type fig3_summary = {
  coal_improvement_max : float;
  ppsm_improvement_max : float;
  horse_improvement_max : float;
  horse_speedup_max : float;
  horse_constant_ns : float;
}

let fig3_summarise rows =
  if rows = [] then invalid_arg "Experiments.fig3_summarise: no rows";
  let improvement part row = 1.0 -. (part row /. row.vanil_ns) in
  let max_over f = List.fold_left (fun acc row -> Float.max acc (f row)) 0.0 rows in
  {
    coal_improvement_max = max_over (improvement (fun r -> r.coal_ns));
    ppsm_improvement_max = max_over (improvement (fun r -> r.ppsm_ns));
    horse_improvement_max = max_over (improvement (fun r -> r.horse_ns));
    horse_speedup_max = max_over (fun r -> r.vanil_ns /. r.horse_ns);
    horse_constant_ns = mean (List.map (fun r -> r.horse_ns) rows);
  }

(* ------------------------------------------------------------------ *)
(* Figure 4                                                            *)
(* ------------------------------------------------------------------ *)

type fig4_cell = {
  f4_category : Category.t;
  f4_scenario : scenario;
  f4_init_pct : float;
}

let fig4 ?(profile = Firecracker) ?(repeats = 10) ?(seed = 42) ?(jobs = 1)
    () =
  run_start_scenarios ~profile ~repeats ~seed ~jobs
    ~scenarios:[ Cold; Restore; Warm; Horse_start ] ()
  |> List.map (fun cell ->
         {
           f4_category = cell.category;
           f4_scenario = cell.scenario;
           f4_init_pct = cell.init_pct;
         })

(* ------------------------------------------------------------------ *)
(* §5.2 overhead                                                       *)
(* ------------------------------------------------------------------ *)

type overhead_row = {
  o_vcpus : int;
  memory_kb : float;
  memory_pct : float;
  pause_overhead_pct : float;
  resume_burst_cpu_pct : float;
  maintenance_events : int;
}

let overhead ?(profile = Firecracker) ?(seed = 42) ?(vcpus = default_sweep)
    ?(jobs = 1) () =
  let sampling_window_ns = 500e6 (* the paper records usage every 500 ms *) in
  let run_pauses ~strategy n =
    (* 10 background 1-vCPU sandboxes + 10 uLL sandboxes of size n,
       paused then resumed, as §5.2 describes. *)
    let vmm, _, metrics = fresh_vmm ~profile ~seed in
    let background =
      List.init 10 (fun i ->
          Sandbox.create ~id:(100 + i) ~vcpus:1 ~memory_mb:512 ())
    in
    List.iter (fun sb -> ignore (Vmm.boot vmm sb)) background;
    let ull_sandboxes =
      List.init 10 (fun i ->
          Sandbox.create ~id:i ~vcpus:n ~memory_mb:512 ~ull:true ())
    in
    List.iter (fun sb -> ignore (Vmm.boot vmm sb)) ull_sandboxes;
    let pause_ns =
      List.fold_left
        (fun acc sb -> acc +. ns_of (Vmm.pause vmm ~strategy sb))
        0.0 ull_sandboxes
    in
    let memory_bytes =
      List.fold_left
        (fun acc sb -> acc + Sandbox.horse_memory_footprint_bytes sb)
        0 ull_sandboxes
    in
    let resume_results = List.map (Vmm.resume vmm) ull_sandboxes in
    let events = Metrics.counter metrics "psm.maintenance_events" in
    (pause_ns, memory_bytes, resume_results, events)
  in
  fan ~jobs
    (fun n ->
      let vanilla_pause_ns, _, _, _ = run_pauses ~strategy:Sandbox.Vanilla n in
      let horse_pause_ns, memory_bytes, resume_results, events =
        run_pauses ~strategy:Sandbox.Horse n
      in
      let c = Scenario.cost_of_profile profile in
      (* Extra CPU during the resume burst: the merge threads' work
         plus the context switches they force, plus keeping the posA
         structures fresh; normalised to the sampling window. *)
      let burst_ns =
        List.fold_left
          (fun acc r ->
            let threads = float_of_int r.Vmm.merge_threads in
            acc
            +. (threads
               *. (c.Cost_model.psm_thread_wake_ns +. c.Cost_model.psm_splice_ns
                  +. (2.0 *. c.Cost_model.context_switch_ns))))
          0.0 resume_results
        +. (float_of_int events *. c.Cost_model.posa_update_ns)
      in
      let total_sandbox_memory_bytes = 10 * 512 * 1024 * 1024 in
      {
        o_vcpus = n;
        memory_kb = float_of_int memory_bytes /. 1024.0;
        memory_pct =
          100.0 *. float_of_int memory_bytes
          /. float_of_int total_sandbox_memory_bytes;
        pause_overhead_pct =
          100.0 *. (horse_pause_ns -. vanilla_pause_ns) /. sampling_window_ns;
        resume_burst_cpu_pct = 100.0 *. burst_ns /. sampling_window_ns;
        maintenance_events = events;
      })
    vcpus

(* ------------------------------------------------------------------ *)
(* §5.4 colocation                                                     *)
(* ------------------------------------------------------------------ *)

type colocation_row = {
  c_vcpus : int;
  vanilla_mean_ms : float;
  vanilla_p95_ms : float;
  vanilla_p99_ms : float;
  horse_mean_ms : float;
  horse_p95_ms : float;
  horse_p99_ms : float;
  p99_delta_us : float;
  p99_delta_pct : float;
  affected : int;  (** thumbnail invocations hit by a merge thread *)
  max_delay_us : float;  (** largest injected preemption delay *)
}

let thumbnail_arrivals ~seed ~duration =
  (* A hot Azure-shaped function row; §5.4 replays a 30 s chunk.  The
     arrival stream must be independent of the platform's own RNG
     (which shares the experiment seed), so offset it. *)
  let rng = Rng.create ~seed:(seed + 514229) in
  let row =
    Horse_trace.Synthetic.generate_row ~rng ~id:0 ~mean_rate_per_min:1200.0
  in
  Horse_trace.Arrivals.chunk ~rng row ~start_minute:720 ~duration

let thumbnail_def =
  Function_def.create ~name:"thumbnail" ~vcpus:2 ~memory_mb:1024
    ~exec:
      (Function_def.Sampled
         (fun rng ->
           (* §5.4 thumbnails the same S3 image on every trigger:
              a tight service-time distribution *)
           Horse_workload.Thumbnail.latency_model ~variability:0.01 rng
             ~image_bytes:Horse_workload.Thumbnail.default_image_bytes))

(* Per-thumbnail latency (init + exec + preemption, ms), read off the
   platform's trigger-record arena in completion order, plus how many
   thumbnails a merge thread hit and the largest such delay. *)
let colocation_summarise platform =
  (* paper-figure experiment: the exact [Sample] aggregator, read at
     any percentile *)
  let latencies = Stats.Sample.create () in
  let affected = ref 0 and max_delay_ns = ref 0.0 in
  let thumbnail_id = Platform.fn_id platform ~name:"thumbnail" in
  let a = Platform.trigger_records platform in
  Platform.iter_records platform (fun slot ->
      if Trigger_records.fn_id a slot = thumbnail_id then begin
        Stats.Sample.add latencies
          (float_of_int (Trigger_records.total_ns a slot) /. 1e6);
        let d = ns_of (Trigger_records.preemption a slot) in
        if d > 0.0 then begin
          incr affected;
          if d > !max_delay_ns then max_delay_ns := d
        end
      end);
  (latencies, !affected, !max_delay_ns)

let colocation_run ~profile ~seed ~duration ~ull_vcpus ~strategy ~arrivals =
  let ull_def =
    Function_def.create ~name:"ull" ~vcpus:ull_vcpus ~memory_mb:512
      ~exec:(Function_def.Ull Category.Cat2) ()
  in
  let ull_arrivals =
    (* 10 uLL triggers per second for the whole window *)
    Horse_trace.Arrivals.periodic ~every:(Time.span_ms 100.0) ~duration
  in
  let engine = Engine.create ~seed () in
  let platform =
    Platform.create ~topology:Topology.r650_smt
      ~cost:(Scenario.cost_of_profile profile) ~seed ~engine ()
  in
  Platform.register platform (thumbnail_def ());
  Platform.register platform ull_def;
  Platform.provision platform ~name:"thumbnail" ~count:64
    ~strategy:Sandbox.Vanilla;
  Platform.provision platform ~name:"ull" ~count:2 ~strategy;
  let thumbnail = Platform.fn_id platform ~name:"thumbnail"
  and ull = Platform.fn_id platform ~name:"ull" in
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             Platform.trigger platform ~fn_id:thumbnail
               ~mode:(Platform.Warm Sandbox.Vanilla) ())))
    arrivals;
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             match
               Platform.trigger platform ~fn_id:ull
                 ~mode:(Platform.Warm strategy) ()
             with
             | () -> ()
             | exception Platform.No_warm_sandbox _ -> ())))
    ull_arrivals;
  Engine.run engine;
  colocation_summarise platform

let colocation ?(profile = Firecracker) ?(seed = 42) ?(duration_s = 30.0)
    ?(repeats = 10) ?(vcpus = [ 1; 8; 16; 24; 36 ]) ?(jobs = 1) () =
  let duration = Time.span_s duration_s in
  (* The paper reports the worst penalty over its 10 runs ("up to");
     we do the same: per repeat, a paired vanilla/HORSE run on
     identical arrivals and service times.  Each (sweep point,
     repeat) pair is an independent task. *)
  let one_repeat (n, r) =
    let seed = seed + (1000 * r) in
    let arrivals = thumbnail_arrivals ~seed ~duration in
    let vanilla, _, _ =
      colocation_run ~profile ~seed ~duration ~ull_vcpus:n
        ~strategy:Sandbox.Vanilla ~arrivals
    in
    let horse, affected, max_delay_ns =
      colocation_run ~profile ~seed ~duration ~ull_vcpus:n
        ~strategy:Sandbox.Horse ~arrivals
    in
    (vanilla, horse, affected, max_delay_ns)
  in
  let tasks =
    List.concat_map (fun n -> List.init repeats (fun r -> (n, r))) vcpus
  in
  let all_runs = fan ~jobs one_repeat tasks in
  let rec chunk k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> invalid_arg "Experiments.colocation: missing repeat"
      | x :: rest ->
        let taken, left = chunk (k - 1) rest in
        (x :: taken, left)
  in
  let runs_left = ref all_runs in
  List.map
    (fun n ->
      let runs, left = chunk repeats !runs_left in
      runs_left := left;
      let p sample q = Stats.Sample.percentile sample q in
      let deltas =
        List.map
          (fun (vanilla, horse, _, _) -> p horse 99.0 -. p vanilla 99.0)
          runs
      in
      let worst_delta_ms = List.fold_left Float.max neg_infinity deltas in
      let vanilla, horse, _, _ = List.hd runs in
      let affected =
        List.fold_left (fun acc (_, _, a, _) -> acc + a) 0 runs
      in
      let max_delay_ns =
        List.fold_left (fun acc (_, _, _, d) -> Float.max acc d) 0.0 runs
      in
      let vanilla_p99 = p vanilla 99.0 in
      {
        c_vcpus = n;
        vanilla_mean_ms = Stats.Sample.mean vanilla;
        vanilla_p95_ms = p vanilla 95.0;
        vanilla_p99_ms = vanilla_p99;
        horse_mean_ms = Stats.Sample.mean horse;
        horse_p95_ms = p horse 95.0;
        horse_p99_ms = p horse 99.0;
        p99_delta_us = worst_delta_ms *. 1e3;
        p99_delta_pct = 100.0 *. worst_delta_ms /. vanilla_p99;
        affected;
        max_delay_us = max_delay_ns /. 1e3;
      })
    vcpus

(* ------------------------------------------------------------------ *)
(* Ablations & extensions                                               *)
(* ------------------------------------------------------------------ *)

type ull_queue_ablation_row = {
  u_queues : int;
  u_resume_ns : float;
  u_maintenance_events : int;
  u_max_queue_share : float;
}

let ablation_ull_queues ?(profile = Firecracker) ?(seed = 42) ?(sandboxes = 12)
    ?(cycles = 5) ?(queue_counts = [ 1; 2; 4; 8 ]) () =
  List.map
    (fun queues ->
      let scheduler =
        Scheduler.create ~ull_count:queues ~topology:Topology.r650 ()
      in
      let metrics = Metrics.create () in
      let vmm =
        Vmm.create ~cost:(Scenario.cost_of_profile profile) ~jitter:0.0 ~seed ~scheduler
          ~metrics ()
      in
      let fleet =
        List.init sandboxes (fun id ->
            Sandbox.create ~id ~vcpus:8 ~memory_mb:512 ~ull:true ())
      in
      List.iter (fun sb -> ignore (Vmm.boot vmm sb)) fleet;
      (* measure the balancing at the moment the whole fleet is paused *)
      List.iter (fun sb -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb)) fleet;
      let attached =
        List.map Runqueue.attached (Scheduler.ull_runqueues scheduler)
      in
      let max_share =
        float_of_int (List.fold_left max 0 attached) /. float_of_int sandboxes
      in
      let resume_ns = Stats.Online.create () in
      List.iter
        (fun sb -> Stats.Online.add resume_ns (ns_of (Vmm.resume vmm sb).Vmm.total))
        fleet;
      for _ = 2 to cycles do
        List.iter
          (fun sb -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
          fleet;
        List.iter
          (fun sb ->
            Stats.Online.add resume_ns (ns_of (Vmm.resume vmm sb).Vmm.total))
          fleet
      done;
      {
        u_queues = queues;
        u_resume_ns = Stats.Online.mean resume_ns;
        u_maintenance_events = Metrics.counter metrics "psm.maintenance_events";
        u_max_queue_share = max_share;
      })
    queue_counts

type restore_ablation_row = {
  r_mode : string;
  r_restore_latency_us : float;
  r_first_invocation_penalty_us : float;
  r_total_us : float;
}

let ablation_restore ?(working_set_pages = 256) ?(memory_mb = 512) () =
  let module Snapshot = Horse_vmm.Snapshot in
  let memory = Snapshot.Memory.create ~size_mb:memory_mb in
  for page = 0 to working_set_pages - 1 do
    Snapshot.Memory.write memory ~page ~value:(page * 7)
  done;
  let snap = Snapshot.capture memory in
  List.map
    (fun mode ->
      let report = Snapshot.restore snap ~mode in
      let restore_us = ns_of report.Snapshot.restore_latency /. 1e3 in
      (* the first invocation touches the whole working set again *)
      let penalty_us =
        ns_of (Snapshot.fault_cost report ~first_touches:working_set_pages)
        /. 1e3
      in
      {
        r_mode = Snapshot.mode_name mode;
        r_restore_latency_us = restore_us;
        r_first_invocation_penalty_us = penalty_us;
        r_total_us = restore_us +. penalty_us;
      })
    [ Snapshot.Eager; Snapshot.Lazy; Snapshot.Working_set ]

type keepalive_row = {
  k_policy : string;
  k_warm_hit_rate : float;
  k_cold_starts : int;
  k_warm_pool_minutes : float;
}

let keepalive_policies ?(seed = 42) ?(functions = 40) () =
  let module Keepalive = Horse_faas.Keepalive in
  let rows = Horse_trace.Synthetic.generate_rows ~seed ~functions in
  let arrival_rng = Rng.create ~seed:(seed + 514229) in
  let arrival_lists =
    List.map (fun row -> Horse_trace.Arrivals.of_row ~rng:arrival_rng row) rows
  in
  let policies =
    [
      Keepalive.Fixed (Time.span_s 60.0);
      Keepalive.Fixed (Time.span_s 600.0);
      Keepalive.Fixed (Time.span_s 3600.0);
      Keepalive.Histogram { percentile = 99.0; cap = Time.span_s 3600.0 };
    ]
  in
  List.map
    (fun policy ->
      let totals =
        List.fold_left
          (fun (hits, total, colds, pool_ns) arrivals ->
            if arrivals = [] then (hits, total, colds, pool_ns)
            else begin
              let e = Keepalive.evaluate policy ~arrivals in
              ( hits + e.Keepalive.warm_hits,
                total + e.Keepalive.invocations,
                colds + e.Keepalive.cold_starts,
                pool_ns + Time.span_to_ns e.Keepalive.warm_pool_span )
            end)
          (0, 0, 0, 0) arrival_lists
      in
      let hits, total, colds, pool_ns = totals in
      {
        k_policy = Keepalive.policy_name policy;
        k_warm_hit_rate =
          (if total = 0 then 0.0 else float_of_int hits /. float_of_int total);
        k_cold_starts = colds;
        k_warm_pool_minutes = float_of_int pool_ns /. 60e9;
      })
    policies

type energy_row = {
  e_governor : string;
  e_strategy : string;
  e_joules : float;
  e_mean_freq_mhz : float;
}

let ablation_energy ?(seed = 42) ?(duration_s = 10.0) () =
  let governor_name = function
    | Horse_cpu.Dvfs.Performance -> "performance"
    | Horse_cpu.Dvfs.Powersave -> "powersave"
    | Horse_cpu.Dvfs.Schedutil -> "schedutil"
  in
  let run governor strategy =
    let engine = Engine.create ~seed () in
    let platform = Platform.create ~seed ~governor ~engine () in
    Platform.register platform
      (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
         ~exec:(Function_def.Ull Category.Cat1) ());
    Platform.provision platform ~name:"ull" ~count:2 ~strategy;
    let fn_id = Platform.fn_id platform ~name:"ull" in
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               match
                 Platform.trigger platform ~fn_id
                   ~mode:(Platform.Warm strategy) ()
               with
               | () -> ()
               | exception Platform.No_warm_sandbox _ -> ())))
      (Horse_trace.Arrivals.periodic ~every:(Time.span_ms 10.0)
         ~duration:(Time.span_s duration_s));
    Engine.run engine;
    let joules = Horse_cpu.Energy.total_joules (Platform.energy platform) in
    (* mean frequency weighted by accounted work: recover from power *)
    let dvfs = Platform.dvfs platform in
    let freq_sum = ref 0 and freq_n = ref 0 in
    for cpu = 0 to Topology.cpu_count Topology.r650 - 1 do
      if Horse_cpu.Energy.energy_joules (Platform.energy platform) ~cpu > 0.0
      then begin
        freq_sum := !freq_sum + Horse_cpu.Dvfs.frequency_mhz dvfs ~cpu;
        incr freq_n
      end
    done;
    {
      e_governor = governor_name governor;
      e_strategy = Sandbox.strategy_name strategy;
      e_joules = joules;
      e_mean_freq_mhz =
        (if !freq_n = 0 then 0.0
         else float_of_int !freq_sum /. float_of_int !freq_n);
    }
  in
  [
    run Horse_cpu.Dvfs.Performance Sandbox.Vanilla;
    run Horse_cpu.Dvfs.Performance Sandbox.Horse;
    run Horse_cpu.Dvfs.Schedutil Sandbox.Vanilla;
    run Horse_cpu.Dvfs.Schedutil Sandbox.Horse;
  ]

type timeslice_row = {
  t_queue : string;
  t_ull_latency_us : float;
  t_incumbent_penalty_us : float;
}

let ablation_timeslice ?(seed = 42) () =
  let module Executor = Horse_sched.Cpu_executor in
  let module Vcpu = Horse_sched.Vcpu in
  let incumbent_work_us = 200.0 in
  let run kind =
    let engine = Engine.create ~seed () in
    let scheduler = Scheduler.create ~ull_count:1 ~topology:Topology.r650 () in
    let executor =
      Executor.create_with_context_switch ~engine ~scheduler
        ~context_switch:(Time.span_ns 100) ()
    in
    let cpu =
      match kind with
      | Runqueue.Ull -> Topology.cpu_count Topology.r650 - 1
      | Runqueue.Normal -> 0
    in
    let queue = Scheduler.runqueue scheduler ~cpu in
    let incumbent_done = ref 0.0 and ull_done = ref 0.0 in
    Executor.submit executor ~queue
      ~vcpu:(Vcpu.create ~sandbox:1 ~index:0 ())
      ~work:(Time.span_us incumbent_work_us)
      ~on_done:(fun at -> incumbent_done := float_of_int (Time.to_ns at));
    let arrival_us = 2.0 in
    ignore
      (Engine.schedule engine ~after:(Time.span_us arrival_us) (fun _ ->
           Executor.submit executor ~queue
             ~vcpu:(Vcpu.create ~sandbox:2 ~index:0 ~credit:1 ())
             ~work:(Time.span_ns 700)
             ~on_done:(fun at -> ull_done := float_of_int (Time.to_ns at))));
    Engine.run engine;
    let name =
      match kind with
      | Runqueue.Ull -> "ull (1us slice)"
      | Runqueue.Normal -> "normal (10ms slice)"
    in
    {
      t_queue = name;
      t_ull_latency_us = (!ull_done /. 1e3) -. arrival_us;
      t_incumbent_penalty_us = (!incumbent_done /. 1e3) -. incumbent_work_us;
    }
  in
  [ run Horse_sched.Runqueue.Ull; run Horse_sched.Runqueue.Normal ]

(* ------------------------------------------------------------------ *)
(* Fault-rate sweep: tail latency and completion under injected chaos  *)
(* ------------------------------------------------------------------ *)

let faults ?(seed = 42) ?(duration_s = 5.0) ?(rates = [ 0.0; 0.001; 0.01; 0.1 ])
    () =
  (* the same Azure-shaped stream for every (rate, strategy) cell —
     only the injected faults differ between cells *)
  List.concat_map
    (fun rate ->
      List.map
        (fun strategy ->
          {
            Scenario.default with
            seed;
            strategy;
            sandboxes = 16;
            arrivals = Scenario.Azure;
            duration_s;
            faults = Some (Scenario.Per_trigger rate);
          })
        [ Sandbox.Vanilla; Sandbox.Horse ])
    rates

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
    workload = Scenario.One_function (Function_def.Fixed (Time.span_us 300.0));
    arrivals = Scenario.Bursty triggers;
    faults = Some (Scenario.Blackouts rate);
  }

let chain_scenario ?(seed = 42) ~strategy ~len ~fused () =
  {
    Scenario.default with
    seed;
    strategy;
    workload = Scenario.Chain { len; fused };
    arrivals = Scenario.Uniform 2_000;
    duration_s = 0.25;
  }

(* The bursty storm whose fn-id column cycles a 32-function palette:
   the affinity hash spreads it near-uniformly over every router. *)
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

let run_scenarios ?(jobs = 1) scenarios =
  fan ~jobs Scenario.run scenarios

(* ------------------------------------------------------------------ *)
(* Headline summary                                                    *)
(* ------------------------------------------------------------------ *)

type summary = {
  resume_speedup : float;
  horse_resume_ns : float;
  init_overhead_vs_warm : float;
  init_overhead_vs_restore : float;
  init_overhead_vs_cold : float;
  horse_init_pct_min : float;
  horse_init_pct_max : float;
}

let summary ?(profile = Firecracker) ?(seed = 42) ?(jobs = 1) () =
  let f3 = fig3_summarise (fig3 ~profile ~seed ~jobs ()) in
  let f4 = fig4 ~profile ~seed ~jobs () in
  let pct_of scenario category =
    let cell =
      List.find
        (fun c -> c.f4_scenario = scenario && c.f4_category = category)
        f4
    in
    cell.f4_init_pct
  in
  let ratio_max scenario =
    List.fold_left
      (fun acc category ->
        Float.max acc (pct_of scenario category /. pct_of Horse_start category))
      0.0 Category.all
  in
  let horse_pcts = List.map (pct_of Horse_start) Category.all in
  {
    resume_speedup = f3.horse_speedup_max;
    horse_resume_ns = f3.horse_constant_ns;
    init_overhead_vs_warm = ratio_max Warm;
    init_overhead_vs_restore = ratio_max Restore;
    init_overhead_vs_cold = ratio_max Cold;
    horse_init_pct_min = List.fold_left Float.min infinity horse_pcts;
    horse_init_pct_max = List.fold_left Float.max 0.0 horse_pcts;
  }
