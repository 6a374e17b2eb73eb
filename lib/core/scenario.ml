module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Stats = Horse_sim.Stats
module Shard_engine = Horse_sim.Shard_engine
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Function_def = Horse_faas.Function_def
module Trigger_records = Horse_faas.Trigger_records
module Workflow = Horse_faas.Workflow
module Batch = Horse_trace.Batch
module Fault = Horse_fault.Fault

type profile = Firecracker | Xen

let cost_of_profile = function
  | Firecracker -> Cost_model.firecracker
  | Xen -> Cost_model.xen

let profile_name = function Firecracker -> "firecracker" | Xen -> "xen"

type workload =
  | One_function of Function_def.exec_model
  | Palette
  | Chain of { len : int; fused : bool }

type arrivals = Uniform of int | Bursty of int | Azure

type fault_model = Per_trigger of float | Blackouts of float

type t = {
  profile : profile;
  seed : int;
  shards : int;
  scheduler : Shard_engine.scheduler;
  routers : int;
  servers : int;
  policy : Cluster.Policy.t;
  strategy : Sandbox.strategy;
  sandboxes : int;
  workload : workload;
  arrivals : arrivals;
  duration_s : float;
  faults : fault_model option;
}

let default =
  {
    profile = Firecracker;
    seed = 42;
    shards = 1;
    scheduler = Shard_engine.Adaptive;
    routers = 1;
    servers = 4;
    policy = Cluster.Policy.push ();
    strategy = Sandbox.Horse;
    sandboxes = 64;
    workload = One_function (Function_def.Ull Category.Cat2);
    arrivals = Uniform 10_000;
    duration_s = 1.0;
    faults = None;
  }

let to_string s =
  let workload =
    match s.workload with
    | One_function (Function_def.Ull c) -> "one-function " ^ Category.name c
    | One_function (Function_def.Fixed span) ->
      Printf.sprintf "one-function fixed-%dns" (Time.span_to_ns span)
    | One_function (Function_def.Sampled _) -> "one-function sampled"
    | Palette -> "palette"
    | Chain { len; fused } ->
      Printf.sprintf "chain len=%d %s" len
        (if fused then "fused" else "unfused")
  in
  let arrivals =
    match s.arrivals with
    | Uniform n -> Printf.sprintf "uniform %d" n
    | Bursty n -> Printf.sprintf "bursty %d" n
    | Azure -> "azure"
  in
  let faults =
    match s.faults with
    | None -> "no faults"
    | Some (Per_trigger r) -> Printf.sprintf "per-trigger faults %g" r
    | Some (Blackouts r) -> Printf.sprintf "blackouts %g/s" r
  in
  Printf.sprintf
    "%s seed=%d shards=%d %s routers=%d servers=%d policy=%s %s \
     sandboxes=%d %s, %s over %gs, %s"
    (profile_name s.profile) s.seed s.shards
    (match s.scheduler with
    | Shard_engine.Adaptive -> "adaptive"
    | Shard_engine.Lockstep -> "lock-step")
    s.routers s.servers
    (Cluster.Policy.name s.policy)
    (Sandbox.strategy_name s.strategy)
    s.sandboxes workload arrivals s.duration_s faults

type tail = { p50_us : float; p99_us : float; p999_us : float }

type sync = { epochs : int; rounds : int; fast_forwards : int }

type row = {
  attempted : int;
  completed : int;
  rejected : int;
  pending : int;
  lost : int;
  spills : int;
  blackouts : int;
  injected : int;
  fallbacks : int;
  retries : int;
  service : tail;
  e2e : tail;
  messages : int;
  sync : sync;
}

let tail_of q =
  let p x =
    if Stats.Quantile.count q = 0 then 0.0 else Stats.Quantile.percentile q x
  in
  { p50_us = p 50.0; p99_us = p 99.0; p999_us = p 99.9 }

(* The cluster a scenario describes, its workload registered and
   provisioned.  Returns the arrival stamping — the fn-id of arrival
   [k] and the batch payload — and the workflow manager for a chain. *)
let build s =
  let cluster =
    Cluster.create_sharded ~servers:s.servers ~routers:s.routers
      ~topology:Topology.r650_smt ~cost:(cost_of_profile s.profile)
      ~seed:s.seed ~policy:s.policy ~scheduler:s.scheduler ~shards:s.shards
      (* a chain's e2e tail is the workflow's instance stream, so the
         per-trigger router stream would be written and never read *)
      ~e2e:
        (match s.workload with
        | Chain _ -> false
        | One_function _ | Palette -> true)
      (* a paused sandbox's P²SM maintenance fires on every mutation of
         the ull queue it is attached to, so per-trigger cost scales
         with parked-per-queue: reserve enough ull queues to keep that
         ratio near 256, within the r650_smt's 144 logical CPUs *)
      ~ull_count:(max 1 (min 32 (s.sandboxes / s.servers / 256)))
      ?faults:
        (match s.faults with
        | None -> None
        | Some (Per_trigger rate) ->
          (* offset from the platform seeds so fault streams never
             correlate with jitter or service-time draws *)
          Some (Fault.Plan.uniform ~seed:(s.seed + 31337) ~rate ())
        | Some (Blackouts rate) when rate <= 0.0 -> Some Fault.Plan.none
        | Some (Blackouts rate) ->
          (* a blacked-out server loses its snapshot cache too, so some
             restores attempted while the fleet heals fall through to a
             cold boot — the regime push and pull trade off *)
          Some
            (Fault.Plan.create ~seed:(s.seed + 8191)
               ~rates:
                 [
                   (Fault.Server_blackout, rate);
                   (Fault.Restore_corruption, 0.5 *. rate);
                 ]
               ()))
      ?recovery:(Option.map (fun _ -> Platform.Recovery.default) s.faults)
      ()
  in
  let warm = Platform.mode_code (Platform.Warm s.strategy) in
  match s.workload with
  | One_function exec ->
    Cluster.register cluster
      (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512 ~exec ~ull:true
         ());
    Cluster.provision cluster ~name:"ull" ~total:s.sandboxes
      ~strategy:s.strategy;
    let id = Cluster.fn_id cluster ~name:"ull" in
    (cluster, (fun _ -> id), warm, None)
  | Palette ->
    (* many functions, not one: triggers reach routers by the
       function-affinity hash, so a single hot function would land
       every trigger on one router *)
    let functions = 32 in
    let ids =
      Array.init functions (fun i ->
          let name = Printf.sprintf "fn%02d" i in
          Cluster.register cluster
            (Function_def.create ~name ~vcpus:2 ~memory_mb:512
               ~exec:(Function_def.Ull Category.Cat2) ());
          name)
    in
    Array.iter
      (fun name ->
        Cluster.provision cluster ~name
          ~total:(max 1 (s.sandboxes / functions))
          ~strategy:s.strategy)
      ids;
    let ids = Array.map (fun name -> Cluster.fn_id cluster ~name) ids in
    (cluster, (fun k -> ids.(k mod functions)), warm, None)
  | Chain { len; fused } ->
    if len < 1 then invalid_arg "Scenario.run: chain len < 1";
    (* category-2 stages: long enough that per-hop placement
       round-trips are a visible share of the end-to-end latency,
       which is exactly what fusion removes *)
    for i = 0 to len - 1 do
      Cluster.register cluster
        (Function_def.create
           ~name:(Printf.sprintf "c%d" i)
           ~vcpus:1 ~memory_mb:128
           ~exec:(Function_def.Ull Category.Cat2) ())
    done;
    let wf = Workflow.create ~fuse:fused ~cluster () in
    let id =
      Workflow.register wf ~name:"chain"
        (Workflow.chain
           (List.init len (fun i ->
                (Printf.sprintf "c%d" i, Platform.Warm s.strategy))))
    in
    Workflow.provision wf ~wf_id:id ~per_unit:s.sandboxes;
    (* the fn-id column carries the workflow id for DAG-aware
       ingestion; payload 0 keeps the per-instance default seeds *)
    (cluster, (fun _ -> id), 0, Some wf)

let arrival_batch s ~fn_id ~payload =
  let rng = Rng.create ~seed:(s.seed + 514229) in
  let duration = Time.span_s s.duration_s in
  let times =
    match s.arrivals with
    | Uniform n -> Batch.uniform ~rng ~n ~duration ()
    | Bursty n -> Batch.bursty ~rng ~n ~duration ()
    | Azure ->
      let row =
        Horse_trace.Synthetic.generate_row ~rng ~id:0 ~mean_rate_per_min:6000.0
      in
      Batch.of_spans ~fn_id:0
        (Horse_trace.Arrivals.chunk ~rng row ~start_minute:720 ~duration)
  in
  let n = Batch.length times in
  let batch = Batch.create ~capacity:(max 1 n) () in
  for k = 0 to n - 1 do
    Batch.add batch ~at:(Batch.time times k) ~fn_id:(fn_id k) ~payload
  done;
  batch

let sum_counters metrics ~prefix =
  List.fold_left
    (fun acc (name, value) ->
      if String.starts_with ~prefix name then acc + value else acc)
    0
    (Metrics.counters metrics)

let execute ~on_run s =
  let cluster, fn_id, payload, workflow = build s in
  let batch = arrival_batch s ~fn_id ~payload in
  (match workflow with
  | Some wf -> Workflow.schedule_batch wf batch
  | None -> Cluster.schedule_batch cluster batch);
  if Option.is_some s.faults then
    ignore
      (Cluster.schedule_faults cluster ~horizon:(Time.span_s s.duration_s));
  on_run (fun () -> Cluster.run cluster);
  let service = Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] () in
  Cluster.iter_records cluster (fun server slot ->
      Stats.Quantile.add service
        (float_of_int
           (Trigger_records.total_ns
              (Platform.trigger_records (Cluster.server cluster server))
              slot)
        /. 1e3));
  let per_server ~prefix =
    let acc = ref 0 in
    for i = 0 to Cluster.server_count cluster - 1 do
      acc :=
        !acc + sum_counters (Platform.metrics (Cluster.server cluster i)) ~prefix
    done;
    !acc
  in
  let fleet = Cluster.metrics cluster in
  let blackouts = Metrics.counter fleet "cluster.blackouts" in
  let se = Option.get (Cluster.shard_engine cluster) in
  let row =
    {
      attempted = Batch.length batch;
      completed =
        (match workflow with
        | Some wf -> Workflow.instances_completed wf
        | None -> Cluster.record_count cluster);
      rejected = List.length (Cluster.rejections cluster);
      pending = Cluster.pending_count cluster;
      lost =
        per_server ~prefix:"platform.aborts"
        + per_server ~prefix:"platform.blackout_invocation_losses";
      spills = Metrics.counter fleet "cluster.spills";
      blackouts;
      injected = per_server ~prefix:"fault.injected." + blackouts;
      fallbacks = per_server ~prefix:"platform.fallbacks.";
      retries = per_server ~prefix:"platform.retries";
      service = tail_of service;
      e2e =
        tail_of
          (match workflow with
          | Some wf -> Workflow.e2e wf
          | None -> Option.get (Cluster.e2e_latencies cluster));
      messages = Shard_engine.messages_delivered se;
      sync =
        {
          epochs = Shard_engine.epochs se;
          rounds = Shard_engine.rounds se;
          fast_forwards = Shard_engine.fast_forwards se;
        };
    }
  in
  let settled = row.completed + row.rejected + row.pending + row.lost in
  if Option.is_none workflow && settled <> row.attempted then
    failwith
      (Printf.sprintf
         "Scenario.run: trigger conservation violated: attempted %d <> \
          completed %d + rejected %d + pending %d + lost %d\n  scenario: %s"
         row.attempted row.completed row.rejected row.pending row.lost
         (to_string s));
  row

let run s = execute ~on_run:(fun go -> go ()) s

let run_timed s =
  let wall = ref 0.0 in
  let row =
    execute s ~on_run:(fun go ->
        Gc.full_major ();
        let t0 = Monotonic_clock.now () in
        go ();
        wall := Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)
  in
  (row, !wall)

(* Every row field as (name, exact printed value), in declaration
   order: what names the first divergence. *)
let fields r =
  let i = string_of_int and f = Printf.sprintf "%.17g" in
  let tail name t =
    [
      (name ^ ".p50_us", f t.p50_us);
      (name ^ ".p99_us", f t.p99_us);
      (name ^ ".p999_us", f t.p999_us);
    ]
  in
  [
    ("attempted", i r.attempted);
    ("completed", i r.completed);
    ("rejected", i r.rejected);
    ("pending", i r.pending);
    ("lost", i r.lost);
    ("spills", i r.spills);
    ("blackouts", i r.blackouts);
    ("injected", i r.injected);
    ("fallbacks", i r.fallbacks);
    ("retries", i r.retries);
  ]
  @ tail "service" r.service @ tail "e2e" r.e2e
  @ [
      ("messages", i r.messages);
      ("sync.epochs", i r.sync.epochs);
      ("sync.rounds", i r.sync.rounds);
      ("sync.fast_forwards", i r.sync.fast_forwards);
    ]

let identical ?(run = run) scenarios =
  let rows = List.map run scenarios in
  match (scenarios, rows) with
  | s0 :: others, r0 :: rest ->
    let divergence s r =
      let r =
        if s.scheduler <> s0.scheduler then { r with sync = r0.sync } else r
      in
      List.find_map
        (fun ((name, a), (_, b)) ->
          if String.equal a b then None
          else
            Some
              (Printf.sprintf
                 "row field %s diverged: %s vs %s\n\
                 \  reference: %s\n\
                 \  diverged:  %s"
                 name a b (to_string s0) (to_string s)))
        (List.combine (fields r0) (fields r))
    in
    (match List.find_map Fun.id (List.map2 divergence others rest) with
    | Some msg -> Error msg
    | None -> Ok rows)
  | _ -> Ok rows
