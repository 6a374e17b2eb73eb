(* Property tests for the fault-injection plane: replay determinism,
   inertness of zero-rate plans, crash consistency of the scheduler
   state, the Warm -> Restore -> Cold fallback ladder, exception
   safety of failed triggers, determinism of the faults experiment
   across --jobs, and a mutation self-test proving the model-based
   harness catches a deliberately broken implementation with a small
   shrunk script. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Rng = Horse_sim.Rng
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Al = Horse_psm.Arena_list
module Ll = Horse_psm.Linked_list
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Platform = Horse_faas.Platform
module Trigger_records = Horse_faas.Trigger_records
module Function_def = Horse_faas.Function_def
module Cluster = Horse_faas.Cluster
module Fault = Horse_fault.Fault
module Category = Horse_workload.Category
module Workflow = Horse_faas.Workflow
module E = Horse.Experiments
module Scenario = Horse.Scenario

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

(* Names resolve at setup; triggers and pool reads take the id. *)
let fid platform name = Platform.fn_id platform ~name

let cfid cluster name = Cluster.fn_id cluster ~name

let ull_def =
  Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
    ~exec:(Function_def.Ull Category.Cat2) ()

(* ------------------------------------------------------------------ *)
(* Byte-level state dumps                                              *)
(* ------------------------------------------------------------------ *)

let dump_counters buf metrics =
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" k v))
    (Metrics.counters metrics)

let dump_record buf (server, (r : Platform.record)) =
  Buffer.add_string buf
    (Printf.sprintf "%d|%s|%s|%d|%d|%d|%d|%d\n" server r.Platform.function_name
       (Platform.mode_name r.Platform.mode)
       (Time.to_ns r.Platform.triggered_at)
       (Time.span_to_ns r.Platform.init)
       (Time.span_to_ns r.Platform.exec)
       (Time.span_to_ns r.Platform.preemption)
       (Time.to_ns r.Platform.completed_at))

let dump_cluster cluster =
  let buf = Buffer.create 4096 in
  List.iter (dump_record buf) (Harness.Records.of_cluster cluster);
  List.iter
    (fun (rj : Cluster.rejection) ->
      Buffer.add_string buf
        (Printf.sprintf "reject %s %s @%d\n"
           (Cluster.reject_reason_name rj.Cluster.reason)
           rj.Cluster.function_name
           (Time.to_ns rj.Cluster.at)))
    (Cluster.rejections cluster);
  dump_counters buf (Cluster.metrics cluster);
  for i = 0 to Cluster.server_count cluster - 1 do
    dump_counters buf (Platform.metrics (Cluster.server cluster i))
  done;
  Buffer.contents buf

(* A fault-ridden Azure-flavoured storm on a small two-server cluster:
   the shared workload of the determinism and honesty tests. *)
let storm ?(seed = 7) ?(plan = fun seed -> Fault.Plan.uniform ~seed ~rate:0.05 ())
    ?(arrivals = 150) () =
  let cluster =
    Cluster.create_sharded ~servers:2 ~topology:small_topology ~seed
      ~faults:(plan (seed + 1)) ~recovery:Platform.Recovery.default ()
  in
  let engine = Cluster.engine cluster in
  Cluster.register cluster ull_def;
  Cluster.provision cluster ~name:"ull" ~total:8 ~strategy:Sandbox.Horse;
  let rng = Rng.create ~seed:(seed + 2) in
  for _ = 1 to arrivals do
    let after = Time.span_us (Rng.float rng 5_000.0) in
    ignore
      (Engine.schedule engine ~after (fun _ ->
           ignore
             (Cluster.trigger cluster ~fn_id:(cfid cluster "ull")
                ~mode:(Platform.Warm Sandbox.Horse) ())))
  done;
  ignore (Cluster.schedule_faults cluster ~horizon:(Time.span_ms 10.0));
  Cluster.run cluster;
  cluster

let test_replay_determinism () =
  (* Two full runs from the same seeds must agree byte for byte:
     records, rejections and every counter on every server. *)
  Alcotest.(check string)
    "byte-identical replays"
    (dump_cluster (storm ()))
    (dump_cluster (storm ()))

let test_zero_rate_is_inert () =
  (* An all-zero plan must be bit-identical to no plan at all: rate
     zero draws nothing, so the Rng streams of the workload are
     untouched. *)
  Alcotest.(check string)
    "rate 0 == no plan"
    (dump_cluster (storm ~plan:(fun _ -> Fault.Plan.none) ()))
    (dump_cluster
       (storm ~plan:(fun seed -> Fault.Plan.uniform ~seed ~rate:0.0 ()) ()))

let test_latency_identity_under_faults () =
  (* Honest accounting: for every completed invocation, wall time
     from trigger to completion is exactly init + exec + preemption —
     fallback rungs, retries and slowdowns are all inside the record,
     never hidden beside it. *)
  let cluster = storm () in
  let records = Harness.Records.of_cluster cluster in
  Alcotest.(check bool) "some invocations completed" true (records <> []);
  List.iter
    (fun (_, (r : Platform.record)) ->
      Alcotest.(check int)
        "completed_at - triggered_at = record_total"
        (Time.span_to_ns (Platform.record_total r))
        (Time.span_to_ns (Time.diff r.Platform.completed_at r.Platform.triggered_at)))
    records

(* ------------------------------------------------------------------ *)
(* Crash-during-resume leaves the scheduler consistent                 *)
(* ------------------------------------------------------------------ *)

let test_resume_crash_consistency () =
  let plan = Fault.Plan.create ~rates:[ (Fault.Resume_crash, 1.0) ] () in
  let scheduler = Scheduler.create ~topology:small_topology () in
  let metrics = Metrics.create () in
  let vmm = Vmm.create ~jitter:0.0 ~faults:plan ~scheduler ~metrics () in
  let arena = Scheduler.arena scheduler in
  let queued_slots () =
    Array.fold_left (fun acc rq -> acc + Runqueue.length rq) 0
      (Scheduler.runqueues scheduler)
  in
  let sb = Sandbox.create ~id:0 ~vcpus:4 ~memory_mb:512 ~ull:true () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  let hs =
    match Sandbox.paused sb with
    | Some (Sandbox.Paused_horse (ps, _)) -> ps
    | Some _ | None -> Alcotest.fail "expected a HORSE pause state"
  in
  let merge_list = hs.Sandbox.merge_vcpus in
  let stale_handle = Al.first merge_list in
  Alcotest.(check bool) "pause parked merge vcpus" false (Al.is_nil stale_handle);
  let ull_queue = hs.Sandbox.ull_queue in
  Alcotest.(check int) "subscribed while paused" 1
    (Runqueue.subscriber_count ull_queue);
  (match Vmm.resume vmm sb with
  | _ -> Alcotest.fail "resume should have crashed"
  | exception Fault.Injected { trigger = Fault.Resume_crash; site; _ } ->
    Alcotest.(check string) "site" "vmm.resume" site);
  Alcotest.(check bool) "sandbox crashed" true
    (Sandbox.state sb = Sandbox.Crashed);
  (* no leaked arena slots: only slots actually enqueued on run queues
     may be live, and the crashed sandbox's merge list is gone *)
  Alcotest.(check int) "no leaked arena slots" (queued_slots ())
    (Al.live_slots arena);
  Alcotest.(check int) "merge list drained" 0 (Al.length merge_list);
  (* generation checks still fire: the saved handle is stale *)
  Alcotest.check_raises "stale handle dead" Not_found (fun () ->
      ignore (Al.value merge_list stale_handle));
  Alcotest.(check int) "maintenance subscription removed" 0
    (Runqueue.subscriber_count ull_queue);
  Alcotest.(check int) "crash counted" 1 (Metrics.counter metrics "vmm.crashes");
  (* the machinery still works afterwards: a fresh sandbox completes a
     full cycle on an inert plan path (resume crash only fires per
     roll; re-roll at rate 1.0 would crash again, so pause Vanilla and
     check boot/pause reuse of the freed slots) *)
  let sb2 = Sandbox.create ~id:1 ~vcpus:2 ~memory_mb:512 ~ull:true () in
  ignore (Vmm.boot vmm sb2);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb2);
  Vmm.stop vmm sb2;
  Alcotest.(check int) "slots all recycled" (queued_slots ())
    (Al.live_slots arena)

(* ------------------------------------------------------------------ *)
(* The fallback ladder                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_platform ?(seed = 11) ~rates ~recovery () =
  let engine = Engine.create ~seed () in
  let plan = Fault.Plan.create ~rates () in
  let platform =
    Platform.create ~topology:small_topology ~jitter:0.0 ~seed ~faults:plan
      ~recovery ~engine ()
  in
  Platform.register platform ull_def;
  (engine, platform)

let test_fallback_ladder_reaches_cold () =
  (* Every warm resume and every restore is doomed: the ladder must
     walk Warm -> Restore -> Cold and serve the invocation cold, with
     the burned rungs charged into init. *)
  let engine, platform =
    fresh_platform
      ~rates:[ (Fault.Resume_crash, 1.0); (Fault.Restore_corruption, 1.0) ]
      ~recovery:Platform.Recovery.default ()
  in
  Platform.provision platform ~name:"ull" ~count:2 ~strategy:Sandbox.Horse;
  Platform.trigger platform ~fn_id:(fid platform "ull")
    ~mode:(Platform.Warm Sandbox.Horse) ();
  Engine.run engine;
  (match Harness.Records.of_platform platform with
  | [ r ] ->
    Alcotest.(check string) "served cold" "cold"
      (Platform.mode_name r.Platform.mode);
    Alcotest.(check int) "honest latency"
      (Time.span_to_ns (Platform.record_total r))
      (Time.span_to_ns (Time.diff r.Platform.completed_at r.Platform.triggered_at));
    (* the cold rung alone takes ~1.5s; burned warm+restore rungs sit
       on top, so init must exceed the pure cold cost *)
    Alcotest.(check bool) "burned rungs charged" true
      (Time.span_to_ns r.Platform.init > 1_500_000_000)
  | rs -> Alcotest.failf "expected exactly one record, got %d" (List.length rs));
  let m = Platform.metrics platform in
  Alcotest.(check int) "warm->restore descent" 1
    (Metrics.counter m "platform.fallbacks.warm-horse-to-restore");
  Alcotest.(check int) "restore->cold descent" 1
    (Metrics.counter m "platform.fallbacks.restore-to-cold");
  Alcotest.(check int) "one cold start" 1
    (Metrics.counter m "platform.triggers.cold")

let test_total_chaos_terminates () =
  (* Everything fails, always.  The ladder plus bounded retries must
     still terminate: the engine drains, nothing completes, the
     invocation is counted as aborted. *)
  let engine = Engine.create ~seed:13 () in
  let plan = Fault.Plan.uniform ~seed:13 ~rate:1.0 () in
  let platform =
    Platform.create ~topology:small_topology ~jitter:0.0 ~seed:13 ~faults:plan
      ~recovery:Platform.Recovery.default ~engine ()
  in
  Platform.register platform ull_def;
  Platform.trigger platform ~fn_id:(fid platform "ull")
    ~mode:(Platform.Warm Sandbox.Horse) ();
  Engine.run engine;
  Alcotest.(check int) "no records" 0 (Platform.record_count platform);
  Alcotest.(check int) "aborted" 1
    (Metrics.counter (Platform.metrics platform) "platform.aborts")

(* ------------------------------------------------------------------ *)
(* Faults x workflows                                                  *)
(* ------------------------------------------------------------------ *)

(* A crash mid-chain must fail only the downstream subgraph: upstream
   node records are retained, downstream nodes never run.  The cluster
   hands server 0 the plan derived at index 0, so the seed search
   probes that derived stream: first Exec_crash consult false (node A
   completes), second true (node B crashes; Recovery.none aborts). *)
let chain_crash_rates = [ (Fault.Exec_crash, 0.5) ]

let test_midchain_crash_fails_downstream_only () =
  let probe seed =
    let p =
      Fault.Plan.derive
        (Fault.Plan.create ~seed ~rates:chain_crash_rates ())
        ~index:0
    in
    (not (Fault.Plan.fires p Fault.Exec_crash))
    && Fault.Plan.fires p Fault.Exec_crash
  in
  let rec find_seed seed =
    if seed > 10_000 then Alcotest.fail "no [complete; crash] seed found"
    else if probe seed then seed
    else find_seed (seed + 1)
  in
  let seed = find_seed 1 in
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed:3
      ~faults:(Fault.Plan.create ~seed ~rates:chain_crash_rates ())
      ()
  in
  List.iter (Cluster.register cluster) (Workflow.nfv_defs ());
  let wf = Workflow.create ~cluster () in
  let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
  Workflow.provision wf ~wf_id:id ~per_unit:4;
  ignore (Workflow.start wf ~wf_id:id ());
  Workflow.run wf;
  (* node A (firewall) completed and its record is retained; node B
     (NAT) crashed and was aborted; node C (filter) never ran *)
  Alcotest.(check int) "one workflow record" 1 (Workflow.Records.count wf);
  Alcotest.(check int) "it is node 0" 0 (Workflow.Records.node wf 0);
  Alcotest.(check int) "one cluster record" 1 (Cluster.record_count cluster);
  Alcotest.(check int) "crash aborted" 1
    (Metrics.counter (Platform.metrics (Cluster.server cluster 0))
       "platform.aborts");
  Alcotest.(check int) "instance not completed" 0
    (Workflow.instances_completed wf);
  Alcotest.(check int) "not a rejection failure" 0
    (Workflow.instances_failed wf);
  (* the retained upstream value still matches the oracle *)
  Alcotest.(check int) "upstream value intact"
    (Workflow.oracle_values (Workflow.nfv_chain ()) ~seed:0).(0)
    (Workflow.value wf ~instance:0 ~node:0)

(* A fused segment rides the recovery ladder as ONE invocation: dry
   warm pool -> Restore (corrupted at rate 1.0) -> Cold, each descent
   counted once for the whole segment — where the unfused chain pays
   the full ladder per member. *)
let test_fused_segment_rides_ladder_once () =
  let run fuse =
    let cluster =
      Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed:5
        ~faults:
          (Fault.Plan.create ~seed:5
             ~rates:[ (Fault.Restore_corruption, 1.0) ]
             ())
        ~recovery:Platform.Recovery.default ()
    in
    List.iter (Cluster.register cluster) (Workflow.nfv_defs ());
    let wf = Workflow.create ~fuse ~cluster () in
    let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
    (* deliberately no provisioning: every Warm rung starts dry *)
    ignore (Workflow.start wf ~wf_id:id ());
    Workflow.run wf;
    Alcotest.(check int) "instance completed" 1
      (Workflow.instances_completed wf);
    let expect = Workflow.oracle_values (Workflow.nfv_chain ()) ~seed:0 in
    for node = 0 to 2 do
      Alcotest.(check int)
        (Printf.sprintf "node %d value (fuse=%b)" node fuse)
        expect.(node)
        (Workflow.value wf ~instance:0 ~node)
    done;
    let m = Platform.metrics (Cluster.server cluster 0) in
    ( Metrics.counter m "platform.fallbacks.warm-horse-to-restore",
      Metrics.counter m "platform.fallbacks.restore-to-cold",
      Metrics.counter m "platform.triggers.cold" )
  in
  Alcotest.(check (triple int int int))
    "fused: whole segment descends once" (1, 1, 1) (run true);
  Alcotest.(check (triple int int int))
    "unfused: every member descends" (3, 3, 3) (run false)

(* Regression for the backoff-accounting fix: the record arena gains
   a row only at completion, so a reader looking mid-ladder sees
   nothing from the doomed first attempt, and the single eventual row
   carries the charged init (burned exec + backoff wait + the
   successful resume). *)
let test_backoff_charged_visible_midladder () =
  let rates = [ (Fault.Exec_crash, 0.5) ] in
  (* platform used directly: no per-server derivation.  Search for
     [crash; fraction; no-crash]: attempt 1 dies mid-exec, the retry
     completes. *)
  let probe seed =
    let p = Fault.Plan.create ~seed ~rates () in
    Fault.Plan.fires p Fault.Exec_crash
    && begin
         ignore (Fault.Plan.fraction p Fault.Exec_crash);
         not (Fault.Plan.fires p Fault.Exec_crash)
       end
  in
  let rec find_seed seed =
    if seed > 10_000 then Alcotest.fail "no [crash; complete] seed found"
    else if probe seed then seed
    else find_seed (seed + 1)
  in
  let seed = find_seed 1 in
  let backoff = Time.span_ms 1.0 in
  let engine = Engine.create ~seed:11 () in
  let platform =
    Platform.create ~topology:small_topology ~jitter:0.0 ~seed:11
      ~faults:(Fault.Plan.create ~seed ~rates ())
      ~recovery:
        (Platform.Recovery.create ~max_attempts:2 ~backoff ~degrade:false ())
      ~engine ()
  in
  Platform.register platform ull_def;
  Platform.provision platform ~name:"ull" ~count:2 ~strategy:Sandbox.Horse;
  let arena = Platform.trigger_records platform in
  let midladder_rows = ref (-1) in
  Platform.trigger platform ~fn_id:(fid platform "ull")
    ~mode:(Platform.Warm Sandbox.Horse) ();
  (* attempt 1 launched synchronously at t=0 and is doomed; look at
     the arena 1ns in — before the crash resolves, long before the
     retry *)
  ignore
    (Engine.schedule engine ~after:(Time.span_ns 1) (fun _ ->
         midladder_rows := Trigger_records.length arena));
  Engine.run engine;
  Alcotest.(check int) "doomed attempt published nothing" 0 !midladder_rows;
  Alcotest.(check int) "crashed once, retried once" 1
    (Metrics.counter (Platform.metrics platform) "platform.retries");
  Alcotest.(check int) "exactly one row" 1 (Trigger_records.length arena);
  (* the charge includes the backed-off wait, so it dominates the 1 ms
     backoff alone *)
  Alcotest.(check bool) "backoff visible in init" true
    (Time.span_to_ns (Trigger_records.init arena 0) > Time.span_to_ns backoff)

(* ------------------------------------------------------------------ *)
(* Exception safety: a failed trigger is a no-op                       *)
(* ------------------------------------------------------------------ *)

let platform_snapshot engine platform =
  Harness.Snapshot.capture
    ([
       ("pool.ull", string_of_int
         (Platform.pool_size platform ~fn_id:(fid platform "ull")));
       ("live", string_of_int (Platform.live_invocations platform));
       ("records", string_of_int (Platform.record_count platform));
       ("pending", string_of_int (Engine.pending engine));
       ("now", string_of_int (Time.to_ns (Engine.now engine)));
     ]
    @ List.map
        (fun (k, v) -> ("counter." ^ k, string_of_int v))
        (Metrics.counters (Platform.metrics platform)))

let test_failed_trigger_is_noop () =
  let engine, platform =
    fresh_platform ~rates:[] ~recovery:Platform.Recovery.none ()
  in
  let check_noop name f =
    let before = platform_snapshot engine platform in
    (try f () with Platform.No_warm_sandbox _ | Invalid_argument _ -> ());
    match Harness.Snapshot.diff before (platform_snapshot engine platform) with
    | None -> ()
    | Some diff -> Alcotest.failf "%s mutated state: %s" name diff
  in
  check_noop "dry warm pool" (fun () ->
      Platform.trigger platform ~fn_id:(fid platform "ull")
        ~mode:(Platform.Warm Sandbox.Horse)
        ());
  (match Platform.fn_id platform ~name:"ghost" with
  | _ -> Alcotest.fail "resolved an unknown function"
  | exception Platform.Unknown_function "ghost" -> ());
  check_noop "unregistered fn_id" (fun () ->
      Platform.trigger platform
        ~fn_id:(Function_def.Registry.count (Platform.registry platform))
        ~mode:Platform.Cold ())

(* ------------------------------------------------------------------ *)
(* The faults experiment: --jobs invariance, seed determinism          *)
(* ------------------------------------------------------------------ *)

let test_faults_experiment_jobs_invariant () =
  List.iter
    (fun seed ->
      let run jobs =
        E.run_scenarios ~jobs
          (E.faults ~seed ~duration_s:0.5 ~rates:[ 0.0; 0.02 ] ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: jobs 2 == jobs 1" seed)
        true
        (run 1 = run 2))
    [ 1; 42; 1337 ]

(* Sharded scenarios fanned over 4 strands: each strand's scenario runs
   its shard rounds on the one cached team of that width, so several
   strands ask that team for a round at once (and the fan itself may
   be running on it).  Rows must still equal the sequential fan's. *)
let test_faults_sharded_fan_jobs_invariant () =
  List.iter
    (fun shards ->
      let scenarios =
        List.map
          (fun (s : Scenario.t) -> { s with shards })
          (E.faults ~seed:42 ~duration_s:0.5
             ~rates:[ 0.0; 0.02; 0.05; 0.1; 0.2; 0.3 ] ())
      in
      let reference = E.run_scenarios ~jobs:1 scenarios in
      for rep = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "shards %d, rep %d: jobs 4 == jobs 1" shards rep)
          true
          (E.run_scenarios ~jobs:4 scenarios = reference)
      done)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Mutation self-test: the harness catches a broken implementation     *)
(* ------------------------------------------------------------------ *)

type mut_op = MIns of int | MPop

(* The flat arena list with a deliberate mutation: inserts of values
   >= 90 are silently dropped.  The harness must catch the divergence
   from the boxed oracle and shrink the script to a handful of ops. *)
let mutated_spec : mut_op Harness.spec =
  {
    Harness.name = "mutated arena list (self-test)";
    gen =
      (fun st ->
        if Random.State.int st 4 = 0 then MPop
        else MIns (Random.State.int st 100));
    show =
      (function MIns v -> Printf.sprintf "MIns %d" v | MPop -> "MPop");
    make =
      (fun () ->
        let icmp = Int.compare in
        let bx = Ll.create ~compare:icmp () in
        let fl = Al.create (Al.create_arena ~compare:icmp ()) in
        fun op ->
          (match op with
          | MIns v ->
            ignore (Ll.insert_sorted bx v);
            if v < 90 then ignore (Al.insert_sorted fl v)
          | MPop -> (
            ignore (Ll.pop_first bx);
            ignore (Al.pop_first fl)));
          if Ll.to_list bx <> Al.to_list fl then Some "contents diverged"
          else None);
  }

let test_mutation_caught () =
  let ops =
    Harness.script_of_seed mutated_spec ~seed:1 ~len:200
  in
  Alcotest.(check bool) "mutant caught" true (Harness.fails mutated_spec ops);
  let small = Harness.shrink mutated_spec ops in
  Alcotest.(check bool) "shrunk script still fails" true
    (Harness.fails mutated_spec small);
  if List.length small > 20 then
    Alcotest.failf "shrunk script too large: %d ops" (List.length small)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "horse_fault"
    [
      ( "determinism",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_replay_determinism;
          Alcotest.test_case "zero rate is inert" `Quick
            test_zero_rate_is_inert;
          Alcotest.test_case "faults experiment jobs-invariant" `Slow
            test_faults_experiment_jobs_invariant;
          Alcotest.test_case "sharded faults fan jobs-invariant" `Slow
            test_faults_sharded_fan_jobs_invariant;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "crash during resume" `Quick
            test_resume_crash_consistency;
          Alcotest.test_case "latency identity under faults" `Quick
            test_latency_identity_under_faults;
          Alcotest.test_case "failed trigger is a no-op" `Quick
            test_failed_trigger_is_noop;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "ladder reaches cold" `Quick
            test_fallback_ladder_reaches_cold;
          Alcotest.test_case "total chaos terminates" `Quick
            test_total_chaos_terminates;
          Alcotest.test_case "backoff charge visible mid-ladder" `Quick
            test_backoff_charged_visible_midladder;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "mid-chain crash fails downstream only" `Quick
            test_midchain_crash_fails_downstream_only;
          Alcotest.test_case "fused segment rides the ladder once" `Quick
            test_fused_segment_rides_ladder_once;
        ] );
      ( "harness",
        [ Alcotest.test_case "mutation caught" `Quick test_mutation_caught ] );
    ]
