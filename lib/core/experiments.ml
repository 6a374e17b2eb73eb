module Time = Horse_sim.Time_ns
module Engine = Horse_sim.Engine
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Category = Horse_workload.Category
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Function_def = Horse_faas.Function_def
module Trigger_records = Horse_faas.Trigger_records
module Workflow = Horse_faas.Workflow
module Batch = Horse_trace.Batch
module Fault = Horse_fault.Fault

module Pool = Horse_parallel.Pool

type profile = Firecracker | Xen

let cost_of_profile = function
  | Firecracker -> Cost_model.firecracker
  | Xen -> Cost_model.xen

let profile_name = function Firecracker -> "firecracker" | Xen -> "xen"

type scenario = Cold | Restore | Warm | Horse_start

let scenario_name = function
  | Cold -> "cold"
  | Restore -> "restore"
  | Warm -> "warm"
  | Horse_start -> "horse"

let default_sweep = [ 1; 2; 4; 8; 12; 16; 20; 24; 28; 32; 36 ]

let mean values = Stats.mean_of values

(* Fan independent experiment tasks over the cached process-wide pool
   of [jobs] strands.  Every task closes over its complete input —
   profile, seed arithmetic, sweep point — at submission, and results
   come back in list order, so the output is bit-identical to
   [List.map] for any [jobs] and any [chunk] (the determinism tests
   pin both).  [jobs = 1] *is* [List.map]: no pool, no domains.
   Reusing [Pool.shared] means a sweep never pays domain spawns —
   with per-call pools the spawn/join cost alone outweighed the
   tasks. *)
let fan ?chunk ~jobs f items =
  if jobs <= 1 then List.map f items
  else Pool.map ?chunk (Pool.shared ~jobs ()) ~f:(fun _ x -> f x) items

let ns_of span = float_of_int (Time.span_to_ns span)

(* ------------------------------------------------------------------ *)
(* Shared latency collection                                           *)
(* ------------------------------------------------------------------ *)

(* Every trace-driven experiment (colocation, faults, scale, storm)
   aggregates the same per-completion quantity — end-to-end latency,
   init + exec + preemption — out of a completion source; the
   collection loop used to be copy-pasted per experiment over boxed
   record lists.  This is the one shared pass, and it walks the
   trigger-record arenas directly: no record materialization, no list,
   O(1) memory beyond the aggregator. *)

type completions = Of_platform of Platform.t | Of_cluster of Cluster.t

let iter_completions source f =
  match source with
  | Of_platform p -> Platform.iter_records p (fun slot -> f p slot)
  | Of_cluster c ->
    Cluster.iter_records c (fun server slot -> f (Cluster.server c server) slot)

(* Feed each completion's total latency, in ns scaled down by
   [unit_ns], into [add] (a [Stats.Sample.add] or [Stats.Quantile.add]
   partial application).  [fn_id] filters to one function; [on_slot]
   lets a caller read extra columns of the rows that passed. *)
let collect_latencies ?fn_id ?on_slot ~unit_ns ~add source =
  iter_completions source (fun platform slot ->
      let a = Platform.trigger_records platform in
      let keep =
        match fn_id with None -> true | Some id -> Trigger_records.fn_id a slot = id
      in
      if keep then begin
        add (float_of_int (Trigger_records.total_ns a slot) /. unit_ns);
        match on_slot with None -> () | Some f -> f a slot
      end)

(* A fresh single-server hypervisor for direct Vmm experiments.  The
   paper's Section 5 testbed runs with hyperthreading enabled (144
   logical CPUs); Section 2's uses SMT off. *)
let fresh_vmm ~profile ~seed =
  let scheduler =
    Scheduler.create ~ull_count:1 ~topology:Topology.r650_smt ()
  in
  let metrics = Metrics.create () in
  let vmm =
    Vmm.create ~cost:(cost_of_profile profile) ~seed ~scheduler ~metrics ()
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

let run_start_scenarios ?chunk ~profile ~repeats ~seed ~scenarios ~jobs () =
  (* one task per (category, scenario) cell: each owns a private
     engine + platform, so cells parallelise without sharing state *)
  let cells =
    List.concat_map
      (fun category -> List.map (fun scenario -> (category, scenario)) scenarios)
      Category.all
  in
  fan ?chunk ~jobs
    (fun (category, scenario) ->
      let engine = Engine.create ~seed () in
          let platform =
            Platform.create ~cost:(cost_of_profile profile) ~seed ~engine ()
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
          let inits = ref [] and execs = ref [] in
          for _ = 1 to repeats do
            Platform.trigger platform ~name ~mode:(scenario_mode scenario)
              ~on_complete:(fun record ->
                inits := ns_of record.Platform.init :: !inits;
                execs := ns_of record.Platform.exec :: !execs)
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
    ?chunk () =
  run_start_scenarios ?chunk ~profile ~repeats ~seed ~jobs
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
    ?(vcpus = default_sweep) ?(jobs = 1) ?chunk () =
  fan ?chunk ~jobs
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
    ?(vcpus = default_sweep) ?(jobs = 1) ?chunk () =
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
  let measured = fan ?chunk ~jobs measure tasks in
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
    ?chunk () =
  run_start_scenarios ?chunk ~profile ~repeats ~seed ~jobs
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
    ?(jobs = 1) ?chunk () =
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
  fan ?chunk ~jobs
    (fun n ->
      let vanilla_pause_ns, _, _, _ = run_pauses ~strategy:Sandbox.Vanilla n in
      let horse_pause_ns, memory_bytes, resume_results, events =
        run_pauses ~strategy:Sandbox.Horse n
      in
      let c = cost_of_profile profile in
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

let colocation_summarise source =
  (* paper-figure experiment: keep the exact [Sample] aggregator (the
     streaming [Quantile] is for unbounded sweeps — see EXPERIMENTS.md
     on the policy) *)
  let latencies = Stats.Sample.create () in
  let affected = ref 0 and max_delay_ns = ref 0.0 in
  let thumbnail_id =
    match source with
    | Of_platform p -> Platform.fn_id p ~name:"thumbnail"
    | Of_cluster c -> Cluster.fn_id c ~name:"thumbnail"
  in
  collect_latencies ~fn_id:thumbnail_id ~unit_ns:1e6 (* ms *)
    ~add:(Stats.Sample.add latencies)
    ~on_slot:(fun a slot ->
      let d = ns_of (Trigger_records.preemption a slot) in
      if d > 0.0 then begin
        incr affected;
        if d > !max_delay_ns then max_delay_ns := d
      end)
    source;
  (latencies, !affected, !max_delay_ns)

let colocation_run ?shards ~profile ~seed ~duration ~ull_vcpus ~strategy
    ~arrivals () =
  let ull_def =
    Function_def.create ~name:"ull" ~vcpus:ull_vcpus ~memory_mb:512
      ~exec:(Function_def.Ull Category.Cat2) ()
  in
  let ull_arrivals =
    (* 10 uLL triggers per second for the whole window *)
    Horse_trace.Arrivals.periodic ~every:(Time.span_ms 100.0) ~duration
  in
  match shards with
  | Some shards ->
    (* the sharded variant: the same colocated workload on a 1-server
       sharded cluster — every trigger crosses the router's placement
       delay, so rows differ from the direct variant but are
       bit-identical for every shard count *)
    let cluster =
      Cluster.create_sharded ~servers:1 ~topology:Topology.r650_smt
        ~cost:(cost_of_profile profile) ~seed ~shards ()
    in
    let engine = Cluster.engine cluster in
    Cluster.register cluster (thumbnail_def ());
    Cluster.register cluster ull_def;
    Cluster.provision cluster ~name:"thumbnail" ~total:64
      ~strategy:Sandbox.Vanilla;
    Cluster.provision cluster ~name:"ull" ~total:2 ~strategy;
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               ignore
                 (Cluster.trigger cluster ~name:"thumbnail"
                    ~mode:(Platform.Warm Sandbox.Vanilla) ()))))
      arrivals;
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               ignore
                 (Cluster.trigger cluster ~name:"ull"
                    ~mode:(Platform.Warm strategy) ()))))
      ull_arrivals;
    Cluster.run cluster;
    colocation_summarise (Of_cluster cluster)
  | None ->
    let engine = Engine.create ~seed () in
    let platform =
      Platform.create ~topology:Topology.r650_smt
        ~cost:(cost_of_profile profile) ~seed ~engine ()
    in
    Platform.register platform (thumbnail_def ());
    Platform.register platform ull_def;
    Platform.provision platform ~name:"thumbnail" ~count:64
      ~strategy:Sandbox.Vanilla;
    Platform.provision platform ~name:"ull" ~count:2 ~strategy;
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               Platform.trigger platform ~name:"thumbnail"
                 ~mode:(Platform.Warm Sandbox.Vanilla) ())))
      arrivals;
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               match
                 Platform.trigger platform ~name:"ull"
                   ~mode:(Platform.Warm strategy) ()
               with
               | () -> ()
               | exception Platform.No_warm_sandbox _ -> ())))
      ull_arrivals;
    Engine.run engine;
    colocation_summarise (Of_platform platform)

let colocation ?(profile = Firecracker) ?(seed = 42) ?(duration_s = 30.0)
    ?(repeats = 10) ?(vcpus = [ 1; 8; 16; 24; 36 ]) ?(jobs = 1) ?chunk ?shards
    () =
  let duration = Time.span_s duration_s in
  (* The paper reports the worst penalty over its 10 runs ("up to");
     we do the same: per repeat, a paired vanilla/HORSE run on
     identical arrivals and service times.  Each (sweep point,
     repeat) pair is an independent task. *)
  let one_repeat (n, r) =
    let seed = seed + (1000 * r) in
    let arrivals = thumbnail_arrivals ~seed ~duration in
    let vanilla, _, _ =
      colocation_run ?shards ~profile ~seed ~duration ~ull_vcpus:n
        ~strategy:Sandbox.Vanilla ~arrivals ()
    in
    let horse, affected, max_delay_ns =
      colocation_run ?shards ~profile ~seed ~duration ~ull_vcpus:n
        ~strategy:Sandbox.Horse ~arrivals ()
    in
    (vanilla, horse, affected, max_delay_ns)
  in
  let tasks =
    List.concat_map (fun n -> List.init repeats (fun r -> (n, r))) vcpus
  in
  let all_runs = fan ?chunk ~jobs one_repeat tasks in
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
        Vmm.create ~cost:(cost_of_profile profile) ~jitter:0.0 ~seed ~scheduler
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
        List.map
          (fun q -> Scheduler.attached_paused scheduler q)
          (Scheduler.ull_runqueues scheduler)
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
    List.iter
      (fun offset ->
        ignore
          (Engine.schedule engine ~after:offset (fun _ ->
               match
                 Platform.trigger platform ~name:"ull"
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
  let module Runqueue = Horse_sched.Runqueue in
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

type fault_row = {
  fr_rate_pct : float;
  fr_strategy : string;
  fr_p50_us : float;
  fr_p99_us : float;
  fr_p999_us : float;
  fr_attempted : int;
  fr_completed : int;
  fr_rejected : int;
  fr_completion_pct : float;
  fr_faults : int;
  fr_fallbacks : int;
  fr_retries : int;
}

(* Sum every counter under [prefix] in a registry. *)
let sum_counters metrics ~prefix =
  List.fold_left
    (fun acc (name, value) ->
      if String.starts_with ~prefix name then acc + value else acc)
    0
    (Metrics.counters metrics)

let fault_run ?shards ?policy ~profile ~seed ~duration ~rate ~strategy () =
  let faults =
    (* the plan seed is offset from the platform seeds so fault streams
       never correlate with jitter or service-time draws *)
    Fault.Plan.uniform ~seed:(seed + 31337) ~rate ()
  in
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ~faults ?policy
      ~recovery:Platform.Recovery.default ?shards ()
  in
  let engine = Cluster.engine cluster in
  Cluster.register cluster
    (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  Cluster.provision cluster ~name:"ull" ~total:16 ~strategy;
  let arrivals =
    (* the same Azure-shaped stream for every (rate, strategy) cell —
       only the injected faults differ between cells *)
    let rng = Rng.create ~seed:(seed + 514229) in
    let row =
      Horse_trace.Synthetic.generate_row ~rng ~id:0 ~mean_rate_per_min:6000.0
    in
    Horse_trace.Arrivals.chunk ~rng row ~start_minute:720 ~duration
  in
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             ignore
               (Cluster.trigger cluster ~name:"ull" ~mode:(Platform.Warm strategy)
                  ()))))
    arrivals;
  ignore (Cluster.schedule_faults cluster ~horizon:duration);
  Cluster.run cluster;
  (* unbounded fault sweep: stream through the fixed-memory estimator
     rather than retaining every latency *)
  let latencies =
    Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ()
  in
  collect_latencies ~unit_ns:1e3 ~add:(Stats.Quantile.add latencies)
    (Of_cluster cluster);
  let sum_servers ~prefix =
    let acc = ref 0 in
    for i = 0 to Cluster.server_count cluster - 1 do
      acc :=
        !acc
        + sum_counters (Platform.metrics (Cluster.server cluster i)) ~prefix
    done;
    !acc
  in
  let attempted = List.length arrivals in
  let completed = Cluster.record_count cluster in
  let p q = Stats.Quantile.percentile latencies q in
  {
    fr_rate_pct = rate *. 100.0;
    fr_strategy = Sandbox.strategy_name strategy;
    fr_p50_us = p 50.0;
    fr_p99_us = p 99.0;
    fr_p999_us = p 99.9;
    fr_attempted = attempted;
    fr_completed = completed;
    fr_rejected = List.length (Cluster.rejections cluster);
    fr_completion_pct =
      (if attempted = 0 then 100.0
       else 100.0 *. float_of_int completed /. float_of_int attempted);
    fr_faults =
      sum_servers ~prefix:"fault.injected."
      + Metrics.counter (Cluster.metrics cluster) "cluster.blackouts";
    fr_fallbacks = sum_servers ~prefix:"platform.fallbacks.";
    fr_retries = sum_servers ~prefix:"platform.retries";
  }

let faults ?(profile = Firecracker) ?(seed = 42) ?(duration_s = 5.0)
    ?(rates = [ 0.0; 0.001; 0.01; 0.1 ]) ?(jobs = 1) ?chunk ?shards ?policy ()
    =
  let duration = Time.span_s duration_s in
  let tasks =
    List.concat_map
      (fun rate ->
        [ (rate, Sandbox.Vanilla); (rate, Sandbox.Horse) ])
      rates
  in
  fan ?chunk ~jobs
    (fun (rate, strategy) ->
      fault_run ?shards ?policy ~profile ~seed ~duration ~rate ~strategy ())
    tasks

(* ------------------------------------------------------------------ *)
(* Scale sweep: one big cluster run on the sharded engine              *)
(* ------------------------------------------------------------------ *)

type scale_row = {
  sc_servers : int;
  sc_sandboxes : int;
  sc_triggers : int;
  sc_shards : int;
  sc_completed : int;
  sc_rejected : int;
  sc_p50_us : float;
  sc_p99_us : float;
  sc_epochs : int;
  sc_rounds : int;
  sc_fast_forwards : int;
  sc_messages : int;
}

let scale_run ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?ull_count ?policy ?scheduler
    ?(on_run = fun run -> run ()) ~servers ~sandboxes ~triggers () =
  let duration = Time.span_s duration_s in
  let ull_count =
    (* a paused sandbox's P²SM maintenance fires on every mutation of
       the ull queue it is attached to, so per-trigger cost scales
       with parked-per-queue: reserve enough ull queues to keep that
       ratio near 256, within the r650_smt's 144 logical CPUs *)
    match ull_count with
    | Some n -> n
    | None -> max 1 (min 32 (sandboxes / servers / 256))
  in
  let cluster =
    Cluster.create_sharded ~servers ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ~ull_count ?policy ?scheduler
      ~shards ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  Cluster.provision cluster ~name:"ull" ~total:sandboxes
    ~strategy:Sandbox.Horse;
  (* [triggers] arrivals at sorted uniform offsets in [0, duration) —
     independent of the cluster's RNGs, same offset rule as the other
     trace-driven experiments — handed to the router as one flat
     batch: the event queue holds one ingestion window at a time, so
     trigger-path memory stays bounded however long the trace is *)
  let rng = Rng.create ~seed:(seed + 514229) in
  let batch =
    Batch.uniform ~rng ~n:triggers ~duration
      ~fn_id:(Cluster.fn_id cluster ~name:"ull")
      ~payload:(Platform.mode_code (Platform.Warm Sandbox.Horse))
      ()
  in
  Cluster.schedule_batch cluster batch;
  on_run (fun () -> Cluster.run cluster);
  (* streaming aggregation: this sweep is the one that grows to 100M
     triggers, so percentile memory must not scale with the run *)
  let latencies =
    Stats.Quantile.create ~quantiles:[| 0.5; 0.99 |] ()
  in
  collect_latencies ~unit_ns:1e3 ~add:(Stats.Quantile.add latencies)
    (Of_cluster cluster);
  let p q = Stats.Quantile.percentile latencies q in
  let se = Option.get (Cluster.shard_engine cluster) in
  {
    sc_servers = servers;
    sc_sandboxes = sandboxes;
    sc_triggers = triggers;
    sc_shards = shards;
    sc_completed = Cluster.record_count cluster;
    sc_rejected = List.length (Cluster.rejections cluster);
    sc_p50_us = p 50.0;
    sc_p99_us = p 99.0;
    sc_epochs = Horse_sim.Shard_engine.epochs se;
    sc_rounds = Horse_sim.Shard_engine.rounds se;
    sc_fast_forwards = Horse_sim.Shard_engine.fast_forwards se;
    sc_messages = Horse_sim.Shard_engine.messages_delivered se;
  }

let default_scale_points =
  [ (4, 8_000, 2_000); (8, 32_000, 8_000); (16, 96_000, 16_000) ]

let scale ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?(points = default_scale_points) ?policy () =
  (* no [fan] here on purpose: within one run the parallelism comes
     from the sharded engine itself — that is the thing under test *)
  List.map
    (fun (servers, sandboxes, triggers) ->
      scale_run ~profile ~seed ~shards ~duration_s ?policy ~servers ~sandboxes
        ~triggers ())
    points

(* ------------------------------------------------------------------ *)
(* Storm pipeline: the trigger-path measurement pair                   *)
(* ------------------------------------------------------------------ *)

type storm_row = {
  st_triggers : int;
  st_completed : int;
  st_rejected : int;
  st_p50_us : float;
  st_p99_us : float;
  st_p999_us : float;
}

(* One server, one hot function, a storm of warm triggers: the whole
   trigger path end to end (trace generation -> ingestion -> routing
   -> resume -> completion -> aggregation) with nothing else in the
   frame.  Two implementations of the same pipeline make the storm
   bench's measurement pair:

   - [storm_run_boxed] carries per-trigger boxed state the way the
     pre-arena code did: a closure per scheduled arrival, a
     materialized record plus [(server, record)] tuple per completion,
     a list cons per record, and exact [Sample] aggregation over the
     retained list;
   - [storm_run_flat] is the zero-allocation path: flat batch
     ingestion through the windowed cursor, arena append per
     completion, and a streaming [Quantile] fed straight from the
     arena columns.

   Both drive bit-identical simulations — same RNG draws, same arrival
   order, same completions — so completed counts must match exactly
   and percentiles agree up to the estimator's tolerance. *)

let storm_cluster ?policy ~profile ~seed ~sandboxes () =
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ?policy
      ~ull_count:(max 1 (min 32 (sandboxes / 16)))
      ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  Cluster.provision cluster ~name:"ull" ~total:sandboxes
    ~strategy:Sandbox.Horse;
  cluster

let storm_batch ~seed ~triggers ~duration cluster =
  let rng = Rng.create ~seed:(seed + 514229) in
  Batch.uniform ~rng ~n:triggers ~duration
    ~fn_id:(Cluster.fn_id cluster ~name:"ull")
    ~payload:(Platform.mode_code (Platform.Warm Sandbox.Horse))
    ()

let storm_row ~triggers ~completed ~rejected ~p =
  {
    st_triggers = triggers;
    st_completed = completed;
    st_rejected = rejected;
    st_p50_us = p 50.0;
    st_p99_us = p 99.0;
    st_p999_us = p 99.9;
  }

let storm_run_boxed ?(profile = Firecracker) ?(seed = 42) ?(duration_s = 1.0)
    ?(sandboxes = 512) ?policy ~triggers () =
  let duration = Time.span_s duration_s in
  let cluster = storm_cluster ?policy ~profile ~seed ~sandboxes () in
  let batch = storm_batch ~seed ~triggers ~duration cluster in
  let engine = Cluster.engine cluster in
  let acc = ref [] and count = ref 0 in
  for k = 0 to Batch.length batch - 1 do
    ignore
      (Engine.schedule engine ~after:(Batch.time batch k) (fun _ ->
           ignore
             (Cluster.trigger cluster ~name:"ull"
                ~mode:(Platform.Warm Sandbox.Horse)
                ~on_complete:(fun (_, r) ->
                  incr count;
                  acc := r :: !acc)
                ())))
  done;
  Cluster.run cluster;
  let latencies = Stats.Sample.create () in
  List.iter
    (fun r ->
      Stats.Sample.add latencies (ns_of (Platform.record_total r) /. 1e3))
    (List.rev !acc);
  let p q =
    if Stats.Sample.count latencies = 0 then 0.0
    else Stats.Sample.percentile latencies q
  in
  storm_row ~triggers ~completed:!count
    ~rejected:(List.length (Cluster.rejections cluster))
    ~p

let storm_run_flat ?(profile = Firecracker) ?(seed = 42) ?(duration_s = 1.0)
    ?(sandboxes = 512) ?window ?policy ~triggers () =
  let duration = Time.span_s duration_s in
  let cluster = storm_cluster ?policy ~profile ~seed ~sandboxes () in
  let batch = storm_batch ~seed ~triggers ~duration cluster in
  Cluster.schedule_batch ?window cluster batch;
  Cluster.run cluster;
  let latencies =
    Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ()
  in
  collect_latencies ~unit_ns:1e3 ~add:(Stats.Quantile.add latencies)
    (Of_cluster cluster);
  let p q =
    if Stats.Quantile.count latencies = 0 then 0.0
    else Stats.Quantile.percentile latencies q
  in
  storm_row ~triggers ~completed:(Cluster.record_count cluster)
    ~rejected:(List.length (Cluster.rejections cluster))
    ~p

(* ------------------------------------------------------------------ *)
(* Policy shoot-out: push vs pull vs core-granular under blackouts     *)
(* ------------------------------------------------------------------ *)

type policy_row = {
  pl_policy : string;
  pl_triggers : int;
  pl_blackout_rate : float;
  pl_shards : int;
  pl_attempted : int;
  pl_completed : int;
  pl_rejected : int;
  pl_pending : int;
  pl_p50_us : float;
  pl_p99_us : float;
  pl_p999_us : float;
  pl_blackouts : int;
  pl_epochs : int;
  pl_rounds : int;
  pl_fast_forwards : int;
  pl_messages : int;
}

let policy_run ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?(servers = 4) ?(sandboxes = 64) ?ull_count ?scheduler
    ?(on_run = fun run -> run ()) ~triggers ~blackout_rate ~policy () =
  let duration = Time.span_s duration_s in
  let faults =
    (* whole-server outages plus correlated snapshot corruption: a
       blacked-out server loses its local snapshot cache too, so a
       fraction of the restores attempted while the fleet heals fall
       through to a full cold boot.  That is the regime the policies
       trade off: blind re-placement onto believed-free servers pays
       the bottom of the recovery ladder, late binding waits for
       proven capacity instead *)
    if blackout_rate <= 0.0 then Fault.Plan.none
    else
      Fault.Plan.create ~seed:(seed + 8191)
        ~rates:
          [
            (Fault.Server_blackout, blackout_rate);
            (Fault.Restore_corruption, 0.5 *. blackout_rate);
          ]
        ()
  in
  let cluster =
    Cluster.create_sharded ~servers ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ~faults ~policy ~e2e:true
      ~recovery:Platform.Recovery.default ?ull_count ?scheduler ~shards ()
  in
  Cluster.register cluster
    (* a ~300us service time makes warm capacity an actual constraint
       at 100k triggers/s (~30 in flight): the axis that separates the
       policies is what happens when optimistic mirrors meet a fleet
       whose real free capacity matters *)
    (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Fixed (Time.span_us 300.0)) ~ull:true ());
  Cluster.provision cluster ~name:"ull" ~total:sandboxes
    ~strategy:Sandbox.Horse;
  let rng = Rng.create ~seed:(seed + 514229) in
  let batch =
    (* clumped arrivals, not uniform: a burst wider than the
       believed-free pool inside one placement round-trip is exactly
       the moment the policies diverge — push guesses, pull queues *)
    Batch.bursty ~rng ~n:triggers ~duration ~burst:48
      ~fn_id:(Cluster.fn_id cluster ~name:"ull")
      ~payload:(Platform.mode_code (Platform.Warm Sandbox.Horse))
      ()
  in
  Cluster.schedule_batch cluster batch;
  ignore (Cluster.schedule_faults cluster ~horizon:duration);
  on_run (fun () -> Cluster.run cluster);
  (* the router-side end-to-end estimator, not per-record service
     time: queueing delay (pull) and placement hops are part of what
     the policies trade off, so they must be inside the percentile *)
  let latencies = Option.get (Cluster.e2e_latencies cluster) in
  let p q =
    if Stats.Quantile.count latencies = 0 then 0.0
    else Stats.Quantile.percentile latencies q
  in
  let se = Option.get (Cluster.shard_engine cluster) in
  {
    pl_policy = Cluster.policy_name cluster;
    pl_triggers = triggers;
    pl_blackout_rate = blackout_rate;
    pl_shards = shards;
    pl_attempted = triggers;
    pl_completed = Cluster.record_count cluster;
    pl_rejected = List.length (Cluster.rejections cluster);
    pl_pending = Cluster.pending_count cluster;
    pl_p50_us = p 50.0;
    pl_p99_us = p 99.0;
    pl_p999_us = p 99.9;
    pl_blackouts = Metrics.counter (Cluster.metrics cluster) "cluster.blackouts";
    pl_epochs = Horse_sim.Shard_engine.epochs se;
    pl_rounds = Horse_sim.Shard_engine.rounds se;
    pl_fast_forwards = Horse_sim.Shard_engine.fast_forwards se;
    pl_messages = Horse_sim.Shard_engine.messages_delivered se;
  }

let default_policy_rates = [ 0.0; 0.5; 0.9 ]

let policy_sweep ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?(servers = 4) ?(sandboxes = 64)
    ?(triggers = [ 10_000; 100_000 ]) ?(rates = default_policy_rates) () =
  (* not fanned over a task pool: like the scale sweep, each run's
     parallelism is the sharded engine itself *)
  List.concat_map
    (fun policy ->
      List.concat_map
        (fun n ->
          List.map
            (fun rate ->
              policy_run ~profile ~seed ~shards ~duration_s ~servers
                ~sandboxes ~triggers:n ~blackout_rate:rate ~policy ())
            rates)
        triggers)
    (Cluster.Policy.builtins ())

(* ------------------------------------------------------------------ *)
(* Workflow chains: platform-side fusion vs per-node dispatch          *)
(* ------------------------------------------------------------------ *)

type chain_row = {
  ch_len : int;
  ch_fused : bool;
  ch_strategy : string;
  ch_shards : int;
  ch_instances : int;
  ch_completed : int;
  ch_p50_us : float;
  ch_p99_us : float;
  ch_p999_us : float;
}

let chain_run ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 0.25) ?(servers = 4) ?(per_unit = 64)
    ?(instances = 2_000) ~len ~fused ~strategy () =
  if len < 1 then invalid_arg "Experiments.chain_run: len < 1";
  let duration = Time.span_s duration_s in
  let cluster =
    Cluster.create_sharded ~servers ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ~shards ()
  in
  (* [len] uLL stages, category 2 (§4's mid-weight class): long enough
     that per-hop placement round-trips are a visible fraction of the
     end-to-end latency, which is exactly what fusion removes *)
  for i = 0 to len - 1 do
    Cluster.register cluster
      (Function_def.create
         ~name:(Printf.sprintf "c%d" i)
         ~vcpus:1 ~memory_mb:128
         ~exec:(Function_def.Ull Category.Cat2) ())
  done;
  let wf = Workflow.create ~fuse:fused ~cluster () in
  let graph =
    Workflow.chain
      (List.init len (fun i ->
           (Printf.sprintf "c%d" i, Platform.Warm strategy)))
  in
  let id = Workflow.register wf ~name:"chain" graph in
  Workflow.provision wf ~wf_id:id ~per_unit;
  let rng = Rng.create ~seed:(seed + 514229) in
  (* the fn-id column carries the *workflow* id for DAG-aware
     ingestion; payload 0 keeps the per-instance default seeds *)
  let batch = Batch.uniform ~rng ~n:instances ~duration ~fn_id:id () in
  Workflow.schedule_batch wf batch;
  Workflow.run wf;
  let q = Workflow.e2e wf in
  let p x =
    if Stats.Quantile.count q = 0 then 0.0 else Stats.Quantile.percentile q x
  in
  {
    ch_len = len;
    ch_fused = fused;
    ch_strategy = Sandbox.strategy_name strategy;
    ch_shards = shards;
    ch_instances = instances;
    ch_completed = Workflow.instances_completed wf;
    ch_p50_us = p 50.0;
    ch_p99_us = p 99.0;
    ch_p999_us = p 99.9;
  }

let default_chain_lens = [ 1; 3; 6 ]

let chain_sweep ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 0.25) ?(servers = 4) ?(instances = 2_000)
    ?(lens = default_chain_lens) () =
  List.concat_map
    (fun strategy ->
      List.concat_map
        (fun len ->
          List.map
            (fun fused ->
              chain_run ~profile ~seed ~shards ~duration_s ~servers
                ~instances ~len ~fused ~strategy ())
            [ false; true ])
        lens)
    [ Sandbox.Horse; Sandbox.Vanilla ]

(* ------------------------------------------------------------------ *)
(* Router plane: function-affine control-plane partitioning            *)
(* ------------------------------------------------------------------ *)

type router_row = {
  rt_routers : int;
  rt_servers : int;
  rt_functions : int;
  rt_triggers : int;
  rt_shards : int;
  rt_completed : int;
  rt_rejected : int;
  rt_spills : int;
  rt_p50_us : float;
  rt_p99_us : float;
  rt_epochs : int;
  rt_rounds : int;
  rt_messages : int;
}

let router_run ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?(servers = 8) ?(functions = 32)
    ?(sandboxes = 1_024) ?policy ?scheduler ?(on_run = fun run -> run ())
    ~routers ~triggers () =
  if functions < 1 then invalid_arg "Experiments.router_run: functions < 1";
  let duration = Time.span_s duration_s in
  let cluster =
    Cluster.create_sharded ~servers ~topology:Topology.r650_smt
      ~cost:(cost_of_profile profile) ~seed ~routers ?policy ?scheduler
      ~shards ()
  in
  (* many registered functions, not one: triggers reach routers by the
     function-affinity hash, so a single hot function would land every
     trigger on one router and measure nothing.  32 functions spread
     near-uniformly over any router count in the sweep *)
  let fn_ids =
    Array.init functions (fun i ->
        let name = Printf.sprintf "fn%02d" i in
        Cluster.register cluster
          (Function_def.create ~name ~vcpus:2 ~memory_mb:512
             ~exec:(Function_def.Ull Category.Cat2) ());
        name)
  in
  let per_fn = max 1 (sandboxes / functions) in
  Array.iter
    (fun name ->
      Cluster.provision cluster ~name ~total:per_fn ~strategy:Sandbox.Horse)
    fn_ids;
  let fn_ids =
    Array.map (fun name -> Cluster.fn_id cluster ~name) fn_ids
  in
  let rng = Rng.create ~seed:(seed + 514229) in
  (* bursty clumps (the storm regime), restamped round-robin over the
     function set: [Batch.bursty] emits one fn id for the whole trace,
     so the arrival times are rewritten row by row into a fresh batch
     whose fn-id column cycles the palette.  Bursty output is already
     time-sorted, so insertion order keeps the copy sorted too *)
  let warm = Platform.mode_code (Platform.Warm Sandbox.Horse) in
  let times = Batch.bursty ~rng ~n:triggers ~duration ~burst:48 () in
  let batch = Batch.create ~capacity:(max 1 triggers) () in
  for k = 0 to triggers - 1 do
    Batch.add batch ~at:(Batch.time times k)
      ~fn_id:fn_ids.(k mod functions)
      ~payload:warm
  done;
  Cluster.schedule_batch cluster batch;
  on_run (fun () -> Cluster.run cluster);
  let latencies = Stats.Quantile.create ~quantiles:[| 0.5; 0.99 |] () in
  collect_latencies ~unit_ns:1e3 ~add:(Stats.Quantile.add latencies)
    (Of_cluster cluster);
  let p q =
    if Stats.Quantile.count latencies = 0 then 0.0
    else Stats.Quantile.percentile latencies q
  in
  let se = Option.get (Cluster.shard_engine cluster) in
  {
    rt_routers = routers;
    rt_servers = servers;
    rt_functions = functions;
    rt_triggers = triggers;
    rt_shards = shards;
    rt_completed = Cluster.record_count cluster;
    rt_rejected = List.length (Cluster.rejections cluster);
    rt_spills = Metrics.counter (Cluster.metrics cluster) "cluster.spills";
    rt_p50_us = p 50.0;
    rt_p99_us = p 99.0;
    rt_epochs = Horse_sim.Shard_engine.epochs se;
    rt_rounds = Horse_sim.Shard_engine.rounds se;
    rt_messages = Horse_sim.Shard_engine.messages_delivered se;
  }

let default_router_points = [ 1; 2; 4; 8 ]

let router_sweep ?(profile = Firecracker) ?(seed = 42) ?(shards = 1)
    ?(duration_s = 1.0) ?(servers = 8) ?(functions = 32)
    ?(sandboxes = 1_024) ?(triggers = 100_000)
    ?(points = default_router_points) ?policy () =
  (* like the scale sweep: no [fan] — within one run the parallelism
     is the sharded engine running R router strands side by side *)
  List.map
    (fun routers ->
      router_run ~profile ~seed ~shards ~duration_s ~servers ~functions
        ~sandboxes ?policy ~routers ~triggers ())
    points

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

let summary ?(profile = Firecracker) ?(seed = 42) ?(jobs = 1) ?chunk () =
  let f3 = fig3_summarise (fig3 ~profile ~seed ~jobs ?chunk ()) in
  let f4 = fig4 ~profile ~seed ~jobs ?chunk () in
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
