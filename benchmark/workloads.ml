(* The four canonical workloads.

   Each workload builds its scenario from the seed through the
   simulator's public functions only, drives it once, and reports one
   rep: named measurements, an output digest, and every invariant it
   found broken.  Arrivals are generated up front as open-loop
   schedules in virtual time, so the generator can never run late.

   A rep is untraced (what the end-to-end metrics time) or traced (the
   router policy is wrapped in {!Probe.traced_policy}, or every VMM call
   is timed, and spans are logged).  Both must produce the same digest:
   the probes observe, they never steer. *)

module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Shard_engine = Horse_sim.Shard_engine
module Stats = Horse_sim.Stats
module Team = Horse_parallel.Team
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Batch = Horse_trace.Batch
module Cluster = Horse_faas.Cluster
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Trigger_records = Horse_faas.Trigger_records
module Workflow = Horse_faas.Workflow

type rep = {
  digest : string;
      (** every count and exact percentile the run produced; equal
          digests mean the same simulation *)
  values : (string * float) list;
  violations : string list;
  probe : Probe.t option;
}

type ctx = {
  trace : Probe.t option;
  mutable values : (string * float) list;
  mutable violations : string list;
}

let set ctx name v = ctx.values <- (name, v) :: ctx.values

let seti ctx name v = set ctx name (float_of_int v)

let value ctx name = List.assoc name ctx.values

let check ctx ok msg = if not ok then ctx.violations <- msg :: ctx.violations

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let seconds ns = float_of_int ns /. 1e9

(* A span in the traced rep's phase log. *)
let span ctx name ~start ~stop =
  match ctx.trace with
  | Some p -> Probe.add p.Probe.phases name ~start ~stop
  | None -> ()

(* One setup phase: timed in every rep, logged as a span when
   traced.  [setup_s] is the sum of the phases. *)
let phase ctx name f =
  let t0 = Probe.now_ns () in
  let v = f () in
  let t1 = Probe.now_ns () in
  set ctx ("setup." ^ name ^ "_s") (seconds (t1 - t0));
  span ctx ("setup." ^ name) ~start:t0 ~stop:t1;
  v

let setup_total ctx =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"setup." name then acc +. v else acc)
    0.0 ctx.values

(* The run phase.  Allocation is read through [Gc.counters] after a
   forced minor collection, which is exact on one strand (in OCaml 5.1
   [Gc.quick_stat]'s word counts are not).  The barrier team is fetched
   before the clock starts, so spawning its domains is charged to
   neither setup nor run. *)
let drive ctx ~shards ~ops run =
  set ctx "setup_s" (setup_total ctx);
  let team = if shards > 1 then Some (Team.shared ~width:shards) else None in
  let barrier () =
    match team with Some t -> Team.barrier_wait_ns t | None -> 0
  in
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let gc0 = Gc.quick_stat () in
  let b0 = barrier () in
  (match ctx.trace with
  | Some p -> p.Probe.run_span <- p.Probe.phases.Probe.len
  | None -> ());
  let t0 = Probe.now_ns () in
  run ();
  let t1 = Probe.now_ns () in
  let gc1 = Gc.quick_stat () in
  let wait = barrier () - b0 in
  Gc.minor ();
  let minor1, promoted1, major1 = Gc.counters () in
  span ctx "run" ~start:t0 ~stop:t1;
  let run_ns = t1 - t0 in
  let promoted = promoted1 -. promoted0 in
  let words = minor1 -. minor0 +. (major1 -. major0) -. promoted in
  let collections f = float_of_int (f gc1 - f gc0) in
  let minor s = s.Gc.minor_collections and major s = s.Gc.major_collections in
  seti ctx "ops" ops;
  set ctx "run_s" (seconds run_ns);
  set ctx "words_per_op" (words /. float_of_int ops);
  set ctx "gc.minor_collections" (collections minor);
  set ctx "gc.major_collections" (collections major);
  set ctx "gc.promoted_words_per_op" (promoted /. float_of_int ops);
  set ctx "team.barrier_wait_s" (seconds wait);
  set ctx "team.barrier_share" (per wait run_ns);
  run_ns

(* Nearest-rank percentile of a sorted array, [permille] in 1..1000. *)
let nearest_rank sorted permille =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 ((((permille * n) + 999) / 1000) - 1))

let tails ctx sorted_ns =
  let p = nearest_rank sorted_ns in
  let us permille = float_of_int (p permille) /. 1e3 in
  set ctx "sim_p50_us" (us 500);
  set ctx "sim_p99_us" (us 990);
  set ctx "sim_p999_us" (us 999);
  Printf.sprintf "p50=%d p99=%d p999=%d" (p 500) (p 990) (p 999)

(* The aggregation the simulator's own experiments run over a finished
   arena: every latency streamed through a P² estimator.  Timed as the
   Stats layer's share of a run. *)
let aggregate ctx latencies_ns =
  let t0 = Probe.now_ns () in
  let q = Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] () in
  Array.iter
    (fun ns -> Stats.Quantile.add q (float_of_int ns /. 1e3))
    latencies_ns;
  let t1 = Probe.now_ns () in
  set ctx "stats.aggregate_s" (seconds (t1 - t0));
  span ctx "stats.aggregate" ~start:t0 ~stop:t1

(* [attributed_ns] of the run is accounted for by probed layers; the
   barrier wait is accounted for in every rep. *)
let unattributed ctx ~attributed_ns ~run_ns =
  let barrier = value ctx "team.barrier_wait_s" *. 1e9 in
  set ctx "run.unattributed_share"
    (1.0 -. ((float_of_int attributed_ns +. barrier) /. float_of_int run_ns))

(* ------------------------------------------------------------------ *)
(* Cluster workloads                                                   *)
(* ------------------------------------------------------------------ *)

(* Placement latency of every router<->server hop; an untroubled
   trigger's router-side latency is its service time plus two hops. *)
let placement_us = 50.0

let placement = Time.span_us placement_us

let warm = Platform.Warm Sandbox.Horse

(* The arrival stream's seed offset matches the simulator's own
   experiments, so a seed names the same arrivals here and there. *)
let arrivals_rng seed = Rng.create ~seed:(seed + 514229)

let traced_policy ctx p =
  match ctx.trace with
  | None -> (p, ref [])
  | Some probe -> Probe.traced_policy probe p

(* Sets the router metrics; returns the nanoseconds they account for. *)
let router_metrics ctx routers ~run_ns =
  let sum f = List.fold_left (fun n r -> n + f r) 0 !routers in
  let decide_calls = sum (fun r -> r.Probe.decide.Probe.calls) in
  let decide_ns = sum (fun r -> r.Probe.decide.Probe.ns) in
  let hook_calls = sum (fun r -> r.Probe.hooks.Probe.calls) in
  let hook_ns = sum (fun r -> r.Probe.hooks.Probe.ns) in
  let enqueues = sum (fun r -> r.Probe.enqueues) in
  seti ctx "router.decide_calls" decide_calls;
  set ctx "router.decide_ns" (per decide_ns decide_calls);
  seti ctx "router.hook_calls" hook_calls;
  set ctx "router.hook_ns" (per hook_ns hook_calls);
  set ctx "router.enqueue_frac" (per enqueues decide_calls);
  set ctx "router.share" (per (decide_ns + hook_ns) run_ns);
  decide_ns + hook_ns

let server_sum c f =
  let acc = ref 0 in
  for i = 0 to Cluster.server_count c - 1 do
    acc := !acc + f (Platform.metrics (Cluster.server c i))
  done;
  !acc

let counter name m = Metrics.counter m name

let prefixed prefix m =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix name then acc + v else acc)
    0 (Metrics.counters m)

(* Every completion's service latency (init + exec + preemption), with
   the per-row identity checked on the way. *)
let arena_latencies ctx c =
  let totals = Array.make (Cluster.record_count c) 0 in
  let k = ref 0 and broken = ref 0 in
  Cluster.iter_records c (fun server slot ->
      let a = Platform.trigger_records (Cluster.server c server) in
      let total = Trigger_records.total_ns a slot in
      let elapsed =
        Time.to_ns (Trigger_records.completed_at a slot)
        - Time.to_ns (Trigger_records.triggered_at a slot)
      in
      if elapsed <> total then incr broken;
      totals.(!k) <- total;
      incr k);
  check ctx (!broken = 0)
    (Printf.sprintf
       "%d arena rows break completed - triggered = init + exec + preemption"
       !broken);
  totals

(* Message-plane, event-core and platform counters shared by every
   cluster workload; returns the digest part they contribute. *)
let cluster_layers ctx c ~ops ~run_ns =
  let se = Option.get (Cluster.shard_engine c) in
  let routers = Cluster.router_count c in
  let events = Shard_engine.events_drained se in
  let total = Array.fold_left ( + ) 0 events in
  let router_events = Array.fold_left ( + ) 0 (Array.sub events 0 routers) in
  let servers = Array.sub events routers (Array.length events - routers) in
  let server_mean = per (total - router_events) (Array.length servers) in
  let messages = Shard_engine.messages_delivered se in
  let epochs = Shard_engine.epochs se and rounds = Shard_engine.rounds se in
  let fast_forwards = Shard_engine.fast_forwards se in
  seti ctx "shard.epochs" epochs;
  seti ctx "shard.rounds" rounds;
  seti ctx "shard.fast_forwards" fast_forwards;
  set ctx "shard.messages_per_op" (per messages ops);
  set ctx "shard.rounds_per_op" (per rounds ops);
  set ctx "shard.events_per_op" (per router_events ops);
  set ctx "shard.imbalance"
    (if server_mean = 0.0 then 0.0
     else float_of_int (Array.fold_left max 0 servers) /. server_mean);
  set ctx "engine.events_per_op" (per total ops);
  set ctx "engine.ns_per_event" (per run_ns total);
  let completions = server_sum c (counter "platform.completions") in
  let horse = server_sum c (counter "vmm.resumes.horse") in
  let fallbacks = server_sum c (prefixed "platform.fallbacks.") in
  let maintenance = server_sum c (counter "psm.maintenance_events") in
  seti ctx "platform.completions" completions;
  seti ctx "platform.fallbacks" fallbacks;
  seti ctx "platform.retries" (server_sum c (counter "platform.retries"));
  set ctx "platform.non_warm_frac" (1.0 -. per horse completions);
  set ctx "vmm.resumes_per_op" (per horse ops);
  set ctx "psm.maintenance_per_op" (per maintenance ops);
  Printf.sprintf
    "completions=%d fallbacks=%d horse=%d maintenance=%d messages=%d \
     epochs=%d rounds=%d ff=%d events=%d"
    completions fallbacks horse maintenance messages epochs rounds
    fast_forwards total

(* Trigger conservation: every trigger completed, was rejected, was
   aborted after its retries, or still waits in a router queue. *)
let conservation ctx c ~attempted =
  let completed = Cluster.record_count c in
  let rejected = List.length (Cluster.rejections c) in
  let pending = Cluster.pending_count c in
  let aborted = server_sum c (counter "platform.aborts") in
  let spills = Metrics.counter (Cluster.metrics c) "cluster.spills" in
  let lost = attempted - completed - rejected - pending - aborted in
  check ctx (lost = 0)
    (Printf.sprintf
       "conservation: %d triggers neither completed, rejected, aborted nor \
        queued"
       lost);
  seti ctx "attempted" attempted;
  seti ctx "failed" (attempted - completed);
  set ctx "failed_frac" (per (attempted - completed) attempted);
  seti ctx "cluster.spills" spills;
  seti ctx "cluster.rejections" rejected;
  seti ctx "cluster.pending_end" pending;
  Printf.sprintf "completed=%d rejected=%d pending=%d aborted=%d spills=%d"
    completed rejected pending aborted spills

(* Counters, conservation and router attribution after a cluster run. *)
let cluster_results ctx c ~ops ~run_ns ~probed =
  let counts = conservation ctx c ~attempted:ops in
  let layers = cluster_layers ctx c ~ops ~run_ns in
  let attributed_ns = router_metrics ctx probed ~run_ns in
  unattributed ctx ~attributed_ns ~run_ns;
  counts ^ " " ^ layers

(* A bursty open-loop storm of warm HORSE triggers cycling round-robin
   over [fns] functions, each with [per_fn] parked sandboxes.  Returns
   the cluster, the sorted service latencies and the digest. *)
let trigger_storm ctx ~seed ~shards ~servers ~routers ~policy ~e2e ~fn ~fns
    ~per_fn ~triggers ~duration_s =
  let policy, probed = traced_policy ctx policy in
  let names = Array.init fns (fun i -> Printf.sprintf "fn%02d" i) in
  let c =
    phase ctx "create" (fun () ->
        let c =
          Cluster.create_sharded ~servers ~routers
            ~topology:Topology.r650_smt ~seed ~policy ~e2e
            ~recovery:Platform.Recovery.default ~placement ~shards ()
        in
        Array.iter (fun name -> Cluster.register c (fn name)) names;
        c)
  in
  phase ctx "provision" (fun () ->
      Array.iter
        (fun name ->
          Cluster.provision c ~name ~total:per_fn ~strategy:Sandbox.Horse)
        names);
  let batch =
    phase ctx "batch" (fun () ->
        let ids = Array.map (fun name -> Cluster.fn_id c ~name) names in
        let times =
          Batch.bursty ~rng:(arrivals_rng seed) ~n:triggers
            ~duration:(Time.span_s duration_s) ~burst:48 ()
        in
        let batch = Batch.create ~capacity:triggers () in
        for k = 0 to triggers - 1 do
          Batch.add batch ~at:(Batch.time times k) ~fn_id:ids.(k mod fns)
            ~payload:(Platform.mode_code warm)
        done;
        batch)
  in
  phase ctx "schedule" (fun () -> Cluster.schedule_batch c batch);
  let run_ns = drive ctx ~shards ~ops:triggers (fun () -> Cluster.run c) in
  let latencies = arena_latencies ctx c in
  aggregate ctx latencies;
  Array.sort compare latencies;
  let tails = tails ctx latencies in
  let results = cluster_results ctx c ~ops:triggers ~run_ns ~probed in
  (c, latencies, results ^ " " ^ tails)

(* Relative error of the router's P² tail estimate against the exact
   tail of the same stream: service time plus two placement hops. *)
let p2_error ctx c latencies =
  match Cluster.e2e_latencies c with
  | Some q when Stats.Quantile.count q > 5 ->
    let err name p permille =
      let exact =
        (float_of_int (nearest_rank latencies permille) /. 1e3)
        +. (2.0 *. placement_us)
      in
      set ctx name ((Stats.Quantile.percentile q p -. exact) /. exact)
    in
    err "stats.p2_err_p99" 99.0 990;
    err "stats.p2_err_p999" 99.9 999
  | Some _ | None -> ()

let storm ctx ~seed ~scale ~shards =
  let fn name =
    Function_def.create ~name ~vcpus:2 ~memory_mb:512
      ~exec:(Function_def.Fixed (Time.span_us 300.0))
      ~ull:true ()
  in
  let c, latencies, digest =
    trigger_storm ctx ~seed ~shards ~servers:4 ~routers:1
      ~policy:(Cluster.Policy.push ()) ~e2e:true ~fn ~fns:1 ~per_fn:64
      ~triggers:(100_000 / scale)
      ~duration_s:(1.0 /. float_of_int scale)
  in
  p2_error ctx c latencies;
  check ctx
    (value ctx "platform.non_warm_frac" > 0.0)
    "storm: no trigger left the warm path";
  digest

let router4 ctx ~seed ~scale ~shards =
  let triggers = 400_000 / scale in
  let fn name =
    Function_def.create ~name ~vcpus:2 ~memory_mb:512
      ~exec:(Function_def.Ull Horse_workload.Category.Cat2) ()
  in
  let _, _, digest =
    trigger_storm ctx ~seed ~shards ~servers:8 ~routers:4
      ~policy:(Cluster.Policy.pull ()) ~e2e:false ~fn ~fns:32 ~per_fn:4
      ~triggers
      ~duration_s:(4.0 /. float_of_int scale)
  in
  check ctx
    (value ctx "cluster.spills" > 0.0)
    "router4: no trigger reached the spill ring";
  check ctx
    (value ctx "cluster.rejections" < 0.01 *. float_of_int triggers)
    "router4: 1% or more of the triggers were rejected";
  (* only a traced rep counts the policy's decisions *)
  if ctx.trace <> None then
    check ctx
      (value ctx "router.enqueue_frac" > 0.0)
      "router4: the pull queue was never used";
  digest

let chain_len = 6

let chain6 ctx ~seed ~scale ~shards =
  let instances = 40_000 / scale in
  let ops = instances * chain_len in
  let policy, probed = traced_policy ctx (Cluster.Policy.push ()) in
  let graph =
    Workflow.chain
      (List.init chain_len (fun i -> (Printf.sprintf "c%d" i, warm)))
  in
  let c, wf, id =
    phase ctx "create" (fun () ->
        let c =
          Cluster.create_sharded ~servers:4 ~topology:Topology.r650_smt ~seed
            ~policy ~placement ~shards ()
        in
        for i = 0 to chain_len - 1 do
          Cluster.register c
            (Function_def.create ~name:(Printf.sprintf "c%d" i) ~vcpus:1
               ~memory_mb:128
               ~exec:(Function_def.Ull Horse_workload.Category.Cat2) ())
        done;
        let wf = Workflow.create ~cluster:c () in
        (c, wf, Workflow.register wf ~name:"chain" graph))
  in
  phase ctx "provision" (fun () ->
      Workflow.provision wf ~wf_id:id ~per_unit:64);
  let batch =
    phase ctx "batch" (fun () ->
        Batch.uniform ~rng:(arrivals_rng seed) ~n:instances
          ~duration:(Time.span_s (5.0 /. float_of_int scale))
          ~fn_id:id ())
  in
  phase ctx "schedule" (fun () -> Workflow.schedule_batch wf batch);
  let run_ns = drive ctx ~shards ~ops (fun () -> Workflow.run wf) in
  aggregate ctx (arena_latencies ctx c);
  (* An instance's latency runs from its arrival (instance [i] is batch
     row [i] on one router) to its last node's completion.  Every node
     value must match the sequential oracle; instance [i]'s seed is
     [i]. *)
  let rows = Workflow.Records.count wf in
  let last = Array.make instances 0 in
  let oracle =
    Array.init instances (fun i -> Workflow.oracle_values graph ~seed:i)
  in
  let mismatches = ref 0 and checksum = ref 0 in
  for row = 0 to rows - 1 do
    let i = Workflow.Records.instance wf row in
    let v = Workflow.Records.value wf row in
    if v <> oracle.(i).(Workflow.Records.node wf row) then incr mismatches;
    checksum := (!checksum * 31) + v;
    last.(i) <- max last.(i) (Workflow.Records.completed_ns wf row)
  done;
  let latencies = Array.mapi (fun i t -> t - Batch.time_ns batch i) last in
  Array.sort compare latencies;
  let tails = tails ctx latencies in
  let completed = Workflow.instances_completed wf in
  let failed = Workflow.instances_failed wf in
  check ctx (!mismatches = 0)
    (Printf.sprintf "chain6: %d node values differ from the oracle"
       !mismatches);
  check ctx (completed = instances)
    (Printf.sprintf "chain6: %d of %d instances completed" completed
       instances);
  check ctx (rows = ops)
    (Printf.sprintf "chain6: %d node records for %d instances of %d nodes"
       rows instances chain_len);
  check ctx
    (Workflow.instances_started wf = completed + failed)
    "chain6: instances neither completed nor failed";
  seti ctx "workflow.instances_completed" completed;
  seti ctx "workflow.instances_failed" failed;
  set ctx "workflow.nodes_per_instance" (per rows instances);
  seti ctx "workflow.oracle_mismatches" !mismatches;
  let results = cluster_results ctx c ~ops ~run_ns ~probed in
  Printf.sprintf "instances=%d failed=%d rows=%d values=%d %s %s" completed
    failed rows !checksum results tails

(* ------------------------------------------------------------------ *)
(* Resume: the VMM and P²SM with no engine or cluster                  *)
(* ------------------------------------------------------------------ *)

(* An op is one sandbox's resume plus its pause in a cycle; its virtual
   latency is the sum of the two returned durations.  (The HORSE resume
   alone costs the same 147 ns for every vCPU count, so it carries no
   tail.) *)
let resume ctx ~seed ~scale ~shards:_ =
  let n = 256 and cycles = max 1 (100 / scale) in
  let ops = n * cycles in
  let metrics = Metrics.create () in
  let vmm, sandboxes =
    phase ctx "create" (fun () ->
        let scheduler =
          Scheduler.create ~ull_count:8 ~topology:Topology.r650_smt ()
        in
        ( Vmm.create ~jitter:0.0 ~scheduler ~metrics (),
          Array.init n (fun i ->
              Sandbox.create ~id:(i + 1) ~vcpus:((i mod 36) + 1)
                ~memory_mb:128 ~ull:true ()) ))
  in
  let pause = Vmm.pause vmm ~strategy:Sandbox.Horse in
  phase ctx "provision" (fun () ->
      Array.iter (fun sb -> ignore (Vmm.boot vmm sb)) sandboxes;
      Array.iter (fun sb -> ignore (pause sb)) sandboxes);
  let resume_acc = Probe.acc () and pause_acc = Probe.acc () in
  let resume sb = Vmm.resume vmm sb in
  let resume_call, pause_call =
    match ctx.trace with
    | None -> (resume, pause)
    | Some p ->
      let log = Probe.call_log p in
      let probed acc name call sb =
        Probe.timed acc log name (fun () -> call sb)
      in
      ( probed resume_acc "vmm.resume" resume,
        probed pause_acc "vmm.pause" pause )
  in
  let rng = Rng.create ~seed in
  let order = Array.init n Fun.id in
  let virt = Array.make ops 0 in
  let maintenance0 = Metrics.counter metrics "psm.maintenance_events" in
  let resumes0 = Metrics.counter metrics "vmm.resumes.horse" in
  let run_ns =
    drive ctx ~shards:1 ~ops (fun () ->
        for cycle = 0 to cycles - 1 do
          let op i = (cycle * n) + i in
          Rng.shuffle rng order;
          Array.iter
            (fun i ->
              let r = resume_call sandboxes.(i) in
              virt.(op i) <- Time.span_to_ns r.Vmm.total)
            order;
          Rng.shuffle rng order;
          Array.iter
            (fun i ->
              let paused = Time.span_to_ns (pause_call sandboxes.(i)) in
              virt.(op i) <- virt.(op i) + paused)
            order
        done)
  in
  let maintenance =
    Metrics.counter metrics "psm.maintenance_events" - maintenance0
  in
  let resumes = Metrics.counter metrics "vmm.resumes.horse" - resumes0 in
  let total_virt = Array.fold_left ( + ) 0 virt in
  Array.sort compare virt;
  let tails = tails ctx virt in
  check ctx (maintenance > 0) "resume: no P²SM maintenance callback fired";
  check ctx (resumes = ops)
    (Printf.sprintf "resume: %d resumes for %d ops" resumes ops);
  seti ctx "attempted" ops;
  seti ctx "failed" (ops - resumes);
  set ctx "failed_frac" (per (ops - resumes) ops);
  set ctx "vmm.resume_ns" (per resume_acc.Probe.ns resume_acc.Probe.calls);
  set ctx "vmm.pause_ns" (per pause_acc.Probe.ns pause_acc.Probe.calls);
  set ctx "vmm.resumes_per_op" (per resumes ops);
  set ctx "psm.maintenance_per_op" (per maintenance ops);
  unattributed ctx ~attributed_ns:(resume_acc.Probe.ns + pause_acc.Probe.ns)
    ~run_ns;
  Printf.sprintf "resumes=%d maintenance=%d virtual=%d %s" resumes
    maintenance total_virt tails

(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  strands : int;
      (** strands of the parallel rep, which checks that the run is the
          same simulation on more than one strand; 1 = no such rep *)
  run : ctx -> seed:int -> scale:int -> shards:int -> string;
}

let all =
  [
    { name = "storm"; strands = 1; run = storm };
    { name = "router4"; strands = 2; run = router4 };
    { name = "chain6"; strands = 1; run = chain6 };
    { name = "resume"; strands = 1; run = resume };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One rep on [shards] strands (default 1).  [scale] divides every
   workload's size (1 = full). *)
let rep w ~seed ~scale ?(shards = 1) ~traced () =
  let trace = if traced then Some (Probe.create ()) else None in
  let ctx = { trace; values = []; violations = [] } in
  let digest = w.run ctx ~seed ~scale ~shards in
  {
    digest;
    values = List.rev ctx.values;
    violations = List.rev ctx.violations;
    probe = trace;
  }
