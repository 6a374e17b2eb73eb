(* Tests for horse_faas: function registry, warm pools, the four
   start modes, keep-alive, preemption injection and metrics. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Topology = Horse_cpu.Topology
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

let fresh ?(keep_alive = Time.span_s 600.0) ?(seed = 11) () =
  let engine = Engine.create ~seed () in
  let platform =
    Platform.create ~topology:small_topology ~keep_alive ~jitter:0.0 ~seed
      ~engine ()
  in
  (engine, platform)

let register_nat ?(vcpus = 1) platform =
  Platform.register platform
    (Function_def.create ~name:"nat" ~vcpus ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ())

let ns_of = Time.span_to_ns

(* Names resolve at setup; triggers and pool reads take the id. *)
let fid platform name = Platform.fn_id platform ~name

(* ------------------------------------------------------------------ *)
(* Function definitions                                                *)
(* ------------------------------------------------------------------ *)

let test_function_def_defaults () =
  let ull_fn =
    Function_def.create ~name:"f" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Ull Category.Cat1) ()
  in
  Alcotest.(check bool) "ull by default for Ull" true ull_fn.Function_def.ull;
  let fixed_fn =
    Function_def.create ~name:"g" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Fixed (Time.span_ms 1.0)) ()
  in
  Alcotest.(check bool) "not ull for Fixed" false fixed_fn.Function_def.ull;
  Alcotest.check_raises "bad vcpus"
    (Invalid_argument "Function_def.create: vcpus must be positive") (fun () ->
      ignore
        (Function_def.create ~name:"h" ~vcpus:0 ~memory_mb:128
           ~exec:(Function_def.Ull Category.Cat1) ()))

let test_sample_exec_models () =
  let rng = Horse_sim.Rng.create ~seed:1 in
  let fixed =
    Function_def.create ~name:"f" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Fixed (Time.span_us 5.0)) ()
  in
  Alcotest.(check int) "fixed" 5_000
    (ns_of (Function_def.sample_exec fixed rng));
  let sampled =
    Function_def.create ~name:"s" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Sampled (fun _ -> Time.span_us 9.0)) ()
  in
  Alcotest.(check int) "sampled" 9_000
    (ns_of (Function_def.sample_exec sampled rng))

(* ------------------------------------------------------------------ *)
(* Registry & pools                                                    *)
(* ------------------------------------------------------------------ *)

let test_register_twice_rejected () =
  let _, platform = fresh () in
  register_nat platform;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Platform.register: nat already registered") (fun () ->
      register_nat platform)

let test_unknown_function () =
  let _, platform = fresh () in
  (* names resolve at setup only: an unknown name fails there *)
  (match Platform.fn_id platform ~name:"ghost" with
  | _ -> Alcotest.fail "resolved unknown function"
  | exception Platform.Unknown_function "ghost" -> ());
  (match
     Platform.provision platform ~name:"ghost" ~count:1
       ~strategy:Sandbox.Horse
   with
  | () -> Alcotest.fail "provisioned unknown function"
  | exception Platform.Unknown_function "ghost" -> ());
  (* an unregistered id fails at the call, including one that lands in
     a spare cell of the grown pool array *)
  register_nat platform;
  List.iter
    (fun fn_id ->
      Alcotest.check_raises "trigger"
        (Invalid_argument "Platform.trigger: unknown fn_id") (fun () ->
          Platform.trigger platform ~fn_id ~mode:Platform.Cold ());
      Alcotest.check_raises "pool_size"
        (Invalid_argument "Platform.pool_size: unknown fn_id") (fun () ->
          ignore (Platform.pool_size platform ~fn_id)))
    [ -1; 1; 8 ];
  Alcotest.(check int) "nothing started" 0 (Platform.live_invocations platform)

let test_provision_fills_pool () =
  let _, platform = fresh () in
  register_nat platform;
  Alcotest.(check int) "empty" 0
    (Platform.pool_size platform ~fn_id:(fid platform "nat"));
  Platform.provision platform ~name:"nat" ~count:3 ~strategy:Sandbox.Horse;
  Alcotest.(check int) "three" 3
    (Platform.pool_size platform ~fn_id:(fid platform "nat"))

let test_multi_function_blackout () =
  (* ten functions grow the pool array past its first 8 cells, leaving
     spare empty queues; a blackout flushes every registered pool *)
  let _, platform = fresh () in
  let n = 10 in
  for i = 0 to n - 1 do
    Platform.register platform
      (Function_def.create ~name:(Printf.sprintf "fn%d" i) ~vcpus:1
         ~memory_mb:512 ~exec:(Function_def.Ull Category.Cat2) ())
  done;
  let provisioned = ref 0 in
  for i = 0 to n - 1 do
    let count = 1 + (i mod 3) in
    Platform.provision platform ~name:(Printf.sprintf "fn%d" i) ~count
      ~strategy:(if i mod 2 = 0 then Sandbox.Horse else Sandbox.Vanilla);
    provisioned := !provisioned + count
  done;
  Alcotest.(check int) "no invocation in flight" 0
    (Platform.blackout platform);
  for fn_id = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "fn%d flushed" fn_id)
      0
      (Platform.pool_size platform ~fn_id)
  done;
  Alcotest.(check int) "every pooled sandbox lost" !provisioned
    (Metrics.counter (Platform.metrics platform)
       "platform.blackout_pool_losses")

let test_warm_without_pool_raises () =
  let _, platform = fresh () in
  register_nat platform;
  match
    Platform.trigger platform ~fn_id:(fid platform "nat")
      ~mode:(Platform.Warm Sandbox.Horse) ()
  with
  | () -> Alcotest.fail "warm trigger without pool"
  | exception Platform.No_warm_sandbox "nat" -> ()

(* ------------------------------------------------------------------ *)
(* Start modes                                                         *)
(* ------------------------------------------------------------------ *)

let run_one platform engine ~name ~mode =
  let result = ref None in
  Platform.trigger platform ~fn_id:(fid platform name) ~mode
    ~on_complete:(fun slot ->
      result := Some (Platform.record_of_slot platform slot))
    ();
  Engine.run engine;
  Option.get !result

let test_cold_start_latency () =
  let engine, platform = fresh () in
  register_nat platform;
  let r = run_one platform engine ~name:"nat" ~mode:Platform.Cold in
  Alcotest.(check bool) "~1.5s init" true
    (ns_of r.Platform.init > 1_400_000_000);
  Alcotest.(check bool) "exec ~1.5us" true
    (ns_of r.Platform.exec > 1_000 && ns_of r.Platform.exec < 2_000)

let test_restore_start_latency () =
  let engine, platform = fresh () in
  register_nat platform;
  let r = run_one platform engine ~name:"nat" ~mode:Platform.Restore in
  Alcotest.(check bool) "~1.3ms init" true
    (ns_of r.Platform.init > 1_000_000 && ns_of r.Platform.init < 2_000_000)

let test_warm_vanilla_vs_horse_init () =
  let engine, platform = fresh () in
  register_nat platform;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Vanilla;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;
  let vanilla =
    run_one platform engine ~name:"nat" ~mode:(Platform.Warm Sandbox.Vanilla)
  in
  let horse =
    run_one platform engine ~name:"nat" ~mode:(Platform.Warm Sandbox.Horse)
  in
  (* warm = dispatch (~540ns) + vanilla resume (~560ns) ~ 1.1us *)
  Alcotest.(check bool) "warm ~1.1us" true
    (ns_of vanilla.Platform.init > 1_000 && ns_of vanilla.Platform.init < 1_250);
  (* horse = fast path, no dispatch: ~147ns *)
  Alcotest.(check bool) "horse ~150ns" true
    (ns_of horse.Platform.init > 130 && ns_of horse.Platform.init < 170)

let test_warm_sandbox_returns_to_pool () =
  let engine, platform = fresh () in
  register_nat platform;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;
  for _ = 1 to 5 do
    ignore (run_one platform engine ~name:"nat" ~mode:(Platform.Warm Sandbox.Horse))
  done;
  Alcotest.(check int) "pool restored" 1
    (Platform.pool_size platform ~fn_id:(fid platform "nat"));
  Alcotest.(check int) "five resumes" 5
    (Metrics.counter (Platform.metrics platform) "vmm.resumes.horse")

(* The per-trigger debug lines (the platform's launch, the VMM's boot,
   pause and resume) are built only when the level asks for them: a
   debug-level run prints each one, a default-level run none. *)
let test_debug_lines () =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter (Logs.format_reporter ~app:ppf ~dst:ppf ());
  let run level =
    Buffer.clear buf;
    Logs.set_level level;
    let engine, platform = fresh () in
    register_nat platform;
    ignore (run_one platform engine ~name:"nat" ~mode:Platform.Cold);
    Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;
    ignore
      (run_one platform engine ~name:"nat" ~mode:(Platform.Warm Sandbox.Horse));
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let debug = run (Some Logs.Debug) in
  let quiet = run (Some Logs.Warning) in
  Logs.set_reporter reporter;
  Logs.set_level level;
  let has text sub =
    let n = String.length sub in
    let rec from i =
      i + n <= String.length text && (String.sub text i n = sub || from (i + 1))
    in
    from 0
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("debug prints " ^ line) true (has debug line))
    [
      "trigger nat mode=cold";
      "trigger nat mode=warm-horse";
      "boot sandbox<";
      "pause sandbox<";
      "strategy=horse";
      "resume sandbox<";
    ];
  Alcotest.(check string) "default level prints nothing" "" quiet

let test_records_accumulate () =
  let engine, platform = fresh () in
  register_nat platform;
  Platform.provision platform ~name:"nat" ~count:3 ~strategy:Sandbox.Horse;
  for _ = 1 to 3 do
    Platform.trigger platform ~fn_id:(fid platform "nat")
      ~mode:(Platform.Warm Sandbox.Horse) ()
  done;
  Alcotest.(check int) "live before run" 3 (Platform.live_invocations platform);
  Engine.run engine;
  Alcotest.(check int) "live drained" 0 (Platform.live_invocations platform);
  Alcotest.(check int) "records" 3 (Platform.record_count platform)

let test_concurrent_warm_pool_exhaustion () =
  let _, platform = fresh () in
  register_nat platform;
  Platform.provision platform ~name:"nat" ~count:2 ~strategy:Sandbox.Horse;
  Platform.trigger platform ~fn_id:(fid platform "nat")
    ~mode:(Platform.Warm Sandbox.Horse) ();
  Platform.trigger platform ~fn_id:(fid platform "nat")
    ~mode:(Platform.Warm Sandbox.Horse) ();
  match
    Platform.trigger platform ~fn_id:(fid platform "nat")
      ~mode:(Platform.Warm Sandbox.Horse) ()
  with
  | () -> Alcotest.fail "third concurrent warm trigger should fail"
  | exception Platform.No_warm_sandbox "nat" -> ()

(* ------------------------------------------------------------------ *)
(* Keep-alive                                                          *)
(* ------------------------------------------------------------------ *)

let test_keep_alive_expiry () =
  let engine, platform = fresh ~keep_alive:(Time.span_s 5.0) () in
  register_nat platform;
  Platform.trigger platform ~fn_id:(fid platform "nat") ~mode:Platform.Cold ();
  (* cold start completes around 1.5s; the pause into the pool happens
     then, the expiry only 5s later *)
  Engine.run ~until:(Time.of_ns 3_000_000_000) engine;
  Alcotest.(check int) "pooled after cold" 1
    (Platform.pool_size platform ~fn_id:(fid platform "nat"));
  Engine.run engine;
  (* the expiry event fired 5s later and reclaimed it *)
  Alcotest.(check int) "expired" 0
    (Platform.pool_size platform ~fn_id:(fid platform "nat"));
  Alcotest.(check int) "one expiry" 1
    (Metrics.counter (Platform.metrics platform) "platform.keepalive_expiries")

let test_keep_alive_reuse_prevents_expiry () =
  let engine, platform = fresh ~keep_alive:(Time.span_s 5.0) () in
  register_nat platform;
  Platform.trigger platform ~fn_id:(fid platform "nat") ~mode:Platform.Cold ();
  (* reuse the pooled sandbox within the window (cold completes ~1.5s) *)
  ignore
    (Engine.schedule engine ~after:(Time.span_s 3.0) (fun _ ->
         Platform.trigger platform ~fn_id:(fid platform "nat")
           ~mode:(Platform.Warm Sandbox.Vanilla) ()));
  Engine.run engine;
  Alcotest.(check int) "warm hit" 1
    (Metrics.counter (Platform.metrics platform) "vmm.resumes.vanil")

(* ------------------------------------------------------------------ *)
(* Preemption injection                                                *)
(* ------------------------------------------------------------------ *)

let test_preemption_extends_running_invocation () =
  (* Deterministic setup: a long function occupies CPUs; many HORSE
     resumes fire while it runs; with a 8-CPU box and enough resumes
     some merge thread must land on its CPUs. *)
  let engine, platform = fresh ~seed:5 () in
  Platform.register platform
    (Function_def.create ~name:"long" ~vcpus:4 ~memory_mb:1024
       ~exec:(Function_def.Fixed (Time.span_ms 50.0)) ());
  register_nat platform ~vcpus:4;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;
  let long_record = ref None in
  Platform.trigger platform ~fn_id:(fid platform "long") ~mode:Platform.Cold
    ~on_complete:(fun slot ->
      long_record := Some (Platform.record_of_slot platform slot))
    ();
  for i = 1 to 200 do
    ignore
      (Engine.schedule engine
         ~after:(Time.span_us (float_of_int i *. 100.0))
         (fun _ ->
           match
             Platform.trigger platform ~fn_id:(fid platform "nat")
               ~mode:(Platform.Warm Sandbox.Horse) ()
           with
           | () -> ()
           | exception Platform.No_warm_sandbox _ -> ()))
  done;
  Engine.run engine;
  let r = Option.get !long_record in
  let preemptions =
    Metrics.counter (Platform.metrics platform) "platform.preemptions"
  in
  Alcotest.(check bool) "some preemptions happened" true (preemptions > 0);
  Alcotest.(check bool) "delay recorded on the long function" true
    (ns_of r.Platform.preemption > 0);
  Alcotest.(check int) "total includes the delay"
    (ns_of r.Platform.init + ns_of r.Platform.exec + ns_of r.Platform.preemption)
    (ns_of (Platform.record_total r))

let test_no_preemption_under_vanilla () =
  let engine, platform = fresh ~seed:5 () in
  Platform.register platform
    (Function_def.create ~name:"long" ~vcpus:4 ~memory_mb:1024
       ~exec:(Function_def.Fixed (Time.span_ms 50.0)) ());
  register_nat platform ~vcpus:4;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Vanilla;
  Platform.trigger platform ~fn_id:(fid platform "long")
    ~mode:Platform.Cold ();
  for i = 1 to 200 do
    ignore
      (Engine.schedule engine
         ~after:(Time.span_us (float_of_int i *. 100.0))
         (fun _ ->
           match
             Platform.trigger platform ~fn_id:(fid platform "nat")
               ~mode:(Platform.Warm Sandbox.Vanilla) ()
           with
           | () -> ()
           | exception Platform.No_warm_sandbox _ -> ()))
  done;
  Engine.run engine;
  Alcotest.(check int) "no preemptions on the vanilla path" 0
    (Metrics.counter (Platform.metrics platform) "platform.preemptions")

(* ------------------------------------------------------------------ *)
(* Keep-alive policies                                                 *)
(* ------------------------------------------------------------------ *)

module Keepalive = Horse_faas.Keepalive

let minutes m = Time.span_s (60.0 *. m)

let test_fixed_policy_recommendation () =
  let t = Keepalive.create (Keepalive.Fixed (minutes 10.0)) in
  Alcotest.(check int) "constant" (Time.span_to_ns (minutes 10.0))
    (Time.span_to_ns (Keepalive.recommendation t));
  Keepalive.note_arrival t ~at:(Time.of_ns 0);
  Keepalive.note_arrival t ~at:(Time.of_ns 1_000_000_000);
  Alcotest.(check int) "still constant" (Time.span_to_ns (minutes 10.0))
    (Time.span_to_ns (Keepalive.recommendation t))

let test_histogram_policy_learns () =
  let t =
    Keepalive.create
      (Keepalive.Histogram { percentile = 99.0; cap = minutes 240.0 })
  in
  (* before any history, the cap applies *)
  Alcotest.(check int) "cap initially" (Time.span_to_ns (minutes 240.0))
    (Time.span_to_ns (Keepalive.recommendation t));
  (* feed arrivals exactly 2 minutes apart *)
  for i = 0 to 20 do
    Keepalive.note_arrival t
      ~at:(Time.add Time.zero (Time.scale_span i (minutes 2.0)))
  done;
  (* p99 of the gaps sits in the 2-minute bucket: keep alive 3 min *)
  Alcotest.(check int) "three minutes" (Time.span_to_ns (minutes 3.0))
    (Time.span_to_ns (Keepalive.recommendation t))

let test_histogram_cap_applies () =
  let t =
    Keepalive.create
      (Keepalive.Histogram { percentile = 99.0; cap = minutes 5.0 })
  in
  for i = 0 to 5 do
    Keepalive.note_arrival t
      ~at:(Time.add Time.zero (Time.scale_span i (minutes 100.0)))
  done;
  Alcotest.(check int) "capped" (Time.span_to_ns (minutes 5.0))
    (Time.span_to_ns (Keepalive.recommendation t))

let test_policy_validation () =
  Alcotest.check_raises "bad percentile"
    (Invalid_argument "Keepalive.create: percentile outside (0, 100]")
    (fun () ->
      ignore
        (Keepalive.create
           (Keepalive.Histogram { percentile = 0.0; cap = minutes 1.0 })));
  let t = Keepalive.create (Keepalive.Fixed (minutes 1.0)) in
  Keepalive.note_arrival t ~at:(Time.of_ns 100);
  Alcotest.check_raises "regression"
    (Invalid_argument "Keepalive.note_arrival: clock went backwards")
    (fun () -> Keepalive.note_arrival t ~at:(Time.of_ns 50))

let test_evaluate_fixed () =
  (* gaps of 1 minute against a 10-minute window: all warm but the first *)
  let arrivals = List.init 10 (fun i -> Time.scale_span i (minutes 1.0)) in
  let e = Keepalive.evaluate (Keepalive.Fixed (minutes 10.0)) ~arrivals in
  Alcotest.(check int) "invocations" 10 e.Keepalive.invocations;
  Alcotest.(check int) "one cold" 1 e.Keepalive.cold_starts;
  Alcotest.(check int) "nine warm" 9 e.Keepalive.warm_hits;
  Alcotest.(check (float 1e-9)) "rate" 0.9 (Keepalive.warm_hit_rate e)

let test_evaluate_short_window_all_cold () =
  let arrivals = List.init 5 (fun i -> Time.scale_span i (minutes 30.0)) in
  let e = Keepalive.evaluate (Keepalive.Fixed (minutes 1.0)) ~arrivals in
  Alcotest.(check int) "all cold" 5 e.Keepalive.cold_starts;
  Alcotest.(check int) "no warm" 0 e.Keepalive.warm_hits

let test_evaluate_cost_tradeoff () =
  (* sparse arrivals: the histogram policy should pay less warm-pool
     time than a long fixed window at a comparable hit rate *)
  let arrivals = List.init 60 (fun i -> Time.scale_span i (minutes 2.0)) in
  let fixed = Keepalive.evaluate (Keepalive.Fixed (minutes 60.0)) ~arrivals in
  let histogram =
    Keepalive.evaluate
      (Keepalive.Histogram { percentile = 99.0; cap = minutes 60.0 })
      ~arrivals
  in
  Alcotest.(check bool) "hit rates comparable" true
    (Keepalive.warm_hit_rate histogram >= Keepalive.warm_hit_rate fixed -. 0.05);
  Alcotest.(check bool) "histogram pays less idle time" true
    (Time.span_to_ns histogram.Keepalive.warm_pool_span
    < Time.span_to_ns fixed.Keepalive.warm_pool_span)

let test_evaluate_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Keepalive.evaluate: arrivals not sorted") (fun () ->
      ignore
        (Keepalive.evaluate (Keepalive.Fixed (minutes 1.0))
           ~arrivals:[ minutes 5.0; minutes 1.0 ]))

(* ------------------------------------------------------------------ *)
(* Energy / DVFS integration                                           *)
(* ------------------------------------------------------------------ *)

let test_platform_accounts_energy () =
  let engine, platform = fresh () in
  register_nat platform;
  Alcotest.(check (float 1e-9)) "starts at zero" 0.0
    (Horse_cpu.Energy.total_joules (Platform.energy platform));
  ignore (run_one platform engine ~name:"nat" ~mode:Platform.Cold);
  Alcotest.(check bool) "accounted something" true
    (Horse_cpu.Energy.total_joules (Platform.energy platform) > 0.0)

let test_governor_signal_identical_across_strategies () =
  (* the coalesced step-5 update must give schedutil the same signal *)
  let energy_of strategy =
    let engine = Engine.create ~seed:31 () in
    let platform =
      Platform.create ~topology:small_topology ~jitter:0.0 ~seed:31
        ~governor:Horse_cpu.Dvfs.Schedutil ~engine ()
    in
    register_nat platform;
    Platform.provision platform ~name:"nat" ~count:1 ~strategy;
    for _ = 1 to 20 do
      ignore (run_one platform engine ~name:"nat" ~mode:(Platform.Warm strategy))
    done;
    Horse_cpu.Energy.total_joules (Platform.energy platform)
  in
  Alcotest.(check (float 1e-9)) "vanilla == horse energy"
    (energy_of Sandbox.Vanilla) (energy_of Sandbox.Horse)

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)
(* ------------------------------------------------------------------ *)

module Cluster = Horse_faas.Cluster

let cfid cluster name = Cluster.fn_id cluster ~name

let fresh_cluster ?(servers = 3) ?policy ?e2e () =
  let cluster =
    Cluster.create_sharded ~servers ?policy ?e2e ~topology:small_topology
      ~seed:21 ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  (Cluster.engine cluster, cluster)

let test_cluster_create_and_register () =
  let _, cluster = fresh_cluster () in
  Alcotest.(check int) "3 servers" 3 (Cluster.server_count cluster);
  (* the function exists on every server: all three accept a cold start *)
  let fn_id = cfid cluster "nat" in
  for i = 0 to 2 do
    Platform.trigger (Cluster.server cluster i) ~fn_id ~mode:Platform.Cold ()
  done;
  Alcotest.(check int) "three live" 3 (Cluster.live_invocations cluster);
  Alcotest.check_raises "bad index"
    (Invalid_argument "Cluster.server: index out of range") (fun () ->
      ignore (Cluster.server cluster 99))

let test_cluster_unknown_fn_id () =
  (* an unregistered id raises before any routing side effect: with
     every server down the unchecked path would spill or reject *)
  let cluster =
    Cluster.create_sharded ~servers:4 ~routers:2 ~topology:small_topology
      ~seed:21 ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  for i = 0 to Cluster.server_count cluster - 1 do
    Cluster.mark_down cluster i
  done;
  List.iter
    (fun fn_id ->
      Alcotest.check_raises "trigger"
        (Invalid_argument "Cluster.trigger: unknown fn_id") (fun () ->
          ignore (Cluster.trigger cluster ~fn_id ~mode:Platform.Cold ()));
      Alcotest.check_raises "pinned trigger"
        (Invalid_argument "Cluster.trigger: unknown fn_id") (fun () ->
          ignore
            (Cluster.trigger ~router:1 cluster ~fn_id ~mode:Platform.Cold ()));
      Alcotest.check_raises "pool_size"
        (Invalid_argument "Platform.pool_size: unknown fn_id") (fun () ->
          ignore (Cluster.pool_size cluster ~fn_id)))
    [ -1; 1; 5 ];
  Alcotest.(check int) "no rejection" 0
    (List.length (Cluster.rejections cluster));
  Alcotest.(check int) "no spill" 0
    (Metrics.counter (Cluster.metrics cluster) "cluster.spills");
  Alcotest.(check (array int)) "no dispatch" [| 0; 0; 0; 0 |]
    (Cluster.triggers_per_server cluster)

let test_cluster_provision_spreads () =
  let _, cluster = fresh_cluster () in
  Cluster.provision cluster ~name:"nat" ~total:7 ~strategy:Sandbox.Horse;
  Alcotest.(check int) "fleet pool" 7
    (Cluster.pool_size cluster ~fn_id:(cfid cluster "nat"));
  let fn_id = cfid cluster "nat" in
  let sizes =
    List.init 3 (fun i -> Platform.pool_size (Cluster.server cluster i) ~fn_id)
  in
  Alcotest.(check (list int)) "spread 3/2/2" [ 3; 2; 2 ] sizes

let accepted = function
  | Cluster.Accepted i -> i
  | Cluster.Rejected r ->
    Alcotest.failf "unexpected rejection: %s"
      (Cluster.reject_reason_name r.Cluster.reason)
  | Cluster.Queued -> Alcotest.fail "unexpected queueing"
  | Cluster.Forwarded _ -> Alcotest.fail "unexpected spill"

let test_cluster_round_robin () =
  let _, cluster =
    fresh_cluster ~policy:(Cluster.Policy.push_round_robin ()) ()
  in
  let picks =
    List.init 6 (fun _ ->
        accepted (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
          ~mode:Platform.Cold ()))
  in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2 ] picks

let test_cluster_least_loaded () =
  let _, cluster =
    fresh_cluster ~policy:(Cluster.Policy.push_least_loaded ()) ()
  in
  (* nothing completes while the engine stands still, so every pick
     adds one believed live invocation to its server *)
  let pick () =
    accepted (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
      ~mode:Platform.Cold ())
  in
  Alcotest.(check int) "first pick: three-way tie, lowest index" 0 (pick ());
  Alcotest.(check int) "avoids the busy server; tie, lowest index" 1
    (pick ());
  (* live = [1; 1; 0]: server 2 is the least loaded, but marked down *)
  Cluster.mark_down cluster 2;
  Alcotest.(check int) "skips the marked-down server" 0 (pick ());
  Alcotest.(check int) "then the next least loaded" 1 (pick ());
  Cluster.mark_up cluster 2;
  Alcotest.(check int) "re-admitted server is least loaded again" 2 (pick ())

let test_cluster_warm_first () =
  let _, cluster = fresh_cluster () in
  (* servers 0 and 1 hold a warm sandbox each; two cold starts then
     occupy them, so server 2 is the least loaded but holds no pool *)
  Cluster.provision cluster ~name:"nat" ~total:2 ~strategy:Sandbox.Horse;
  let cold () =
    accepted (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
      ~mode:Platform.Cold ())
  in
  let first = cold () in
  let second = cold () in
  Alcotest.(check (list int)) "cold starts go least-loaded" [ 0; 1 ]
    [ first; second ];
  let pick =
    accepted
      (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
        ~mode:(Platform.Warm Sandbox.Horse) ())
  in
  Alcotest.(check int) "routed to a warm server over the idle one" 0 pick;
  Cluster.run cluster;
  Alcotest.(check int) "three completions" 3 (Cluster.record_count cluster);
  Alcotest.(check int) "no dry pool" 0 (List.length (Cluster.rejections cluster))

let test_cluster_warm_exhausted_rejects () =
  (* a dry pool is a typed rejection, not an exception escaping the
     router, and it rides the message protocol: the router commits to
     the only server at once, and the server's dry reply comes back
     one placement delay after the trigger reached it *)
  let placement = Time.span_us 50.0 in
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed:21
      ~placement ()
  in
  (* registered first, so "nat" is fn-id 1: the rejection must name
     the triggered function, not the first one *)
  Cluster.register cluster
    (Function_def.create ~name:"fw" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat1) ());
  Cluster.register cluster
    (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  let arrival = Engine.now (Cluster.engine cluster) in
  Alcotest.(check int) "placed on server 0" 0
    (accepted
       (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
          ~mode:(Platform.Warm Sandbox.Horse) ()));
  Alcotest.(check int) "nothing recorded before the reply" 0
    (List.length (Cluster.rejections cluster));
  Cluster.run cluster;
  (match Cluster.rejections cluster with
  | [ r ] ->
    Alcotest.(check string)
      "reason" "no-warm-capacity"
      (Cluster.reject_reason_name r.Cluster.reason);
    Alcotest.(check string) "function" "nat" r.Cluster.function_name;
    Alcotest.(check int) "recorded at arrival + 2 x placement"
      (Time.to_ns arrival + (2 * Time.span_to_ns placement))
      (Time.to_ns r.Cluster.at)
  | rs -> Alcotest.failf "expected one rejection, got %d" (List.length rs));
  Alcotest.(check int) "counted once" 1
    (Horse_sim.Metrics.counter (Cluster.metrics cluster)
       "cluster.rejections.no-warm-capacity");
  Alcotest.(check (array int)) "dispatch counted" [| 1 |]
    (Cluster.triggers_per_server cluster);
  Alcotest.(check int) "nothing live" 0 (Cluster.live_invocations cluster)

let test_cluster_all_down_rejects () =
  let _, cluster =
    fresh_cluster ~policy:(Cluster.Policy.push_round_robin ()) ()
  in
  for i = 0 to Cluster.server_count cluster - 1 do
    Cluster.mark_down cluster i
  done;
  Alcotest.(check int) "none healthy" 0 (Cluster.healthy_count cluster);
  (match Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
    ~mode:Platform.Cold () with
  | Cluster.Accepted _ | Cluster.Queued | Cluster.Forwarded _ ->
    Alcotest.fail "downed fleet must reject"
  | Cluster.Rejected r ->
    Alcotest.(check string)
      "reason" "all-servers-down"
      (Cluster.reject_reason_name r.Cluster.reason));
  (* a recovered server takes traffic again *)
  Cluster.mark_up cluster 1;
  Alcotest.(check int) "routes to the healthy server" 1
    (accepted (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
      ~mode:Platform.Cold ()))

let test_cluster_routing_skips_unhealthy () =
  let _, cluster =
    fresh_cluster ~policy:(Cluster.Policy.push_round_robin ()) ()
  in
  Cluster.mark_down cluster 1;
  let picks =
    List.init 4 (fun _ ->
        accepted (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
          ~mode:Platform.Cold ()))
  in
  Alcotest.(check (list int)) "skips server 1" [ 0; 2; 0; 2 ] picks

let test_cluster_end_to_end () =
  (* a slow function keeps several invocations in flight at once, so
     the warm-first router has to spread across the fleet *)
  let engine, cluster = fresh_cluster () in
  Cluster.register cluster
    (Function_def.create ~name:"slow" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Fixed (Time.span_ms 5.0)) ());
  Cluster.provision cluster ~name:"slow" ~total:9 ~strategy:Sandbox.Horse;
  for i = 0 to 29 do
    ignore
      (Engine.schedule engine
         ~after:(Time.span_ms (float_of_int i *. 1.0))
         (fun _ ->
           ignore
             (Cluster.trigger cluster ~fn_id:(cfid cluster "slow")
                ~mode:(Platform.Warm Sandbox.Horse) ())))
  done;
  Cluster.run cluster;
  Alcotest.(check int) "30 completions" 30 (Cluster.record_count cluster);
  Alcotest.(check int) "pool restored" 9
    (Cluster.pool_size cluster ~fn_id:(cfid cluster "slow"));
  let counts = Cluster.triggers_per_server cluster in
  Alcotest.(check bool) "every server participated" true
    (Array.for_all (fun c -> c > 0) counts)

(* ------------------------------------------------------------------ *)
(* Scheduling policies: rejection paths, queueing, recovery            *)
(* ------------------------------------------------------------------ *)

let each_policy f =
  List.iter
    (fun policy -> f ~pname:(Cluster.Policy.name policy) ~policy)
    (Cluster.Policy.builtins ())

let test_policy_no_warm_rejects () =
  (* a fleet-wide dry pool is the same typed rejection under every
     policy — pull spends a seeded token and learns from the server,
     push and core fall through their warm-first preference *)
  each_policy (fun ~pname ~policy ->
      let _, cluster = fresh_cluster ~policy () in
      (match
         Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
           ~mode:(Platform.Warm Sandbox.Horse) ()
       with
      | Cluster.Accepted _ -> ()
      | Cluster.Queued | Cluster.Forwarded _ | Cluster.Rejected _ ->
        Alcotest.failf "%s: the router must place the trigger" pname);
      Cluster.run cluster;
      (match Cluster.rejections cluster with
      | [ r ] ->
        Alcotest.(check string)
          (pname ^ ": reason")
          "no-warm-capacity"
          (Cluster.reject_reason_name r.Cluster.reason)
      | rs ->
        Alcotest.failf "%s: expected one rejection, got %d" pname
          (List.length rs));
      Alcotest.(check int)
        (pname ^ ": counted")
        1
        (Horse_sim.Metrics.counter (Cluster.metrics cluster)
           "cluster.rejections.no-warm-capacity"))

let test_policy_all_down_rejects () =
  (* [All_servers_down] is rejected before any policy runs, and a
     recovered server takes traffic again under every policy (pull
     restarts it with a probe window) *)
  each_policy (fun ~pname ~policy ->
      let _, cluster = fresh_cluster ~policy () in
      for i = 0 to Cluster.server_count cluster - 1 do
        Cluster.mark_down cluster i
      done;
      (match Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
        ~mode:Platform.Cold () with
      | Cluster.Accepted _ | Cluster.Queued | Cluster.Forwarded _ ->
        Alcotest.failf "%s: downed fleet must reject" pname
      | Cluster.Rejected r ->
        Alcotest.(check string)
          (pname ^ ": reason")
          "all-servers-down"
          (Cluster.reject_reason_name r.Cluster.reason));
      Cluster.mark_up cluster 1;
      match Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
        ~mode:Platform.Cold () with
      | Cluster.Accepted i ->
        Alcotest.(check int) (pname ^ ": routed to the survivor") 1 i
      | Cluster.Queued | Cluster.Forwarded _ ->
        Alcotest.failf "%s: survivor must take traffic" pname
      | Cluster.Rejected _ ->
        Alcotest.failf "%s: recovered fleet must accept" pname)

let test_policy_blackout_midstorm_recovers () =
  (* a full-fleet blackout in the middle of a steady trigger storm:
     every in-outage trigger is a typed rejection, and the moment the
     fleet heals the storm completes normally — under every policy *)
  each_policy (fun ~pname ~policy ->
      let engine, cluster = fresh_cluster ~policy () in
      Cluster.provision cluster ~name:"nat" ~total:6 ~strategy:Sandbox.Horse;
      for i = 0 to 299 do
        ignore
          (Engine.schedule engine
             ~after:(Time.span_us (float_of_int i *. 100.0))
             (fun _ ->
               ignore
                 (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
                    ~mode:(Platform.Warm Sandbox.Horse) ())))
      done;
      (* outage window [10.05ms, 20.05ms): triggers 101..200 land in
         it; the off-grid boundaries keep same-instant ordering out of
         the picture *)
      ignore
        (Engine.schedule engine ~after:(Time.span_us 10_050.0) (fun _ ->
             for i = 0 to Cluster.server_count cluster - 1 do
               Cluster.mark_down cluster i
             done));
      ignore
        (Engine.schedule engine ~after:(Time.span_us 20_050.0) (fun _ ->
             for i = 0 to Cluster.server_count cluster - 1 do
               Cluster.mark_up cluster i
             done));
      Cluster.run cluster;
      let rejections = Cluster.rejections cluster in
      Alcotest.(check int) (pname ^ ": outage rejections") 100
        (List.length rejections);
      List.iter
        (fun (r : Cluster.rejection) ->
          Alcotest.(check string)
            (pname ^ ": outage reason")
            "all-servers-down"
            (Cluster.reject_reason_name r.Cluster.reason))
        rejections;
      Alcotest.(check int)
        (pname ^ ": storm completed around the outage")
        200 (Cluster.record_count cluster);
      Alcotest.(check int) (pname ^ ": queue drained") 0
        (Cluster.pending_count cluster))

let test_pull_queues_and_claims () =
  (* with no provisioned pools each server holds exactly its seeded
     token: the third concurrent trigger must park in the router
     queue, and the first completion's claim must drain it *)
  let _, cluster =
    fresh_cluster ~servers:2 ~policy:(Cluster.Policy.pull ()) ()
  in
  let outcome () = Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
    ~mode:Platform.Cold () in
  (match (outcome (), outcome (), outcome ()) with
  | Cluster.Accepted 0, Cluster.Accepted 1, Cluster.Queued -> ()
  | _ -> Alcotest.fail "expected tokens to route 0, 1 then queue");
  Alcotest.(check int) "one pending" 1 (Cluster.pending_count cluster);
  Cluster.run cluster;
  Alcotest.(check int) "queue drained" 0 (Cluster.pending_count cluster);
  Alcotest.(check int) "all three completed" 3 (Cluster.record_count cluster)

let test_cluster_e2e_estimator () =
  (* the opt-in router-side estimator sees one observation per
     completion, including queued (pull) triggers; clusters without
     [~e2e] carry none *)
  let _, cluster = fresh_cluster ~e2e:true () in
  (* one parked sandbox per concurrent trigger: the five fire at the
     same instant, before any completion can re-park *)
  Cluster.provision cluster ~name:"nat" ~total:5 ~strategy:Sandbox.Horse;
  for _ = 1 to 5 do
    ignore
      (Cluster.trigger cluster ~fn_id:(cfid cluster "nat")
        ~mode:(Platform.Warm Sandbox.Horse)
         ())
  done;
  Cluster.run cluster;
  (match Cluster.e2e_latencies cluster with
  | None -> Alcotest.fail "estimator requested but absent"
  | Some q ->
    Alcotest.(check int) "one observation per completion" 5
      (Horse_sim.Stats.Quantile.count q);
    Alcotest.(check bool)
      "p99.9 positive" true
      (Horse_sim.Stats.Quantile.percentile q 99.9 > 0.0));
  let _, plain = fresh_cluster () in
  Alcotest.(check bool)
    "absent unless requested" true
    (Option.is_none (Cluster.e2e_latencies plain))

(* ------------------------------------------------------------------ *)
(* Arena vs boxed records: model-based oracle                          *)
(* ------------------------------------------------------------------ *)

module Trigger_records = Horse_faas.Trigger_records
module Batch = Horse_trace.Batch

(* Every completion is observed twice — boxed at completion time from
   the slot [on_complete] hands over (the oracle list), and through the
   struct-of-arrays arena afterwards.  After every op the slots must be
   the append order and the arena views ([record_of_slot] over every
   slot and the int columns) must agree with the oracle exactly. *)
type arena_op = Provision of int | Trigger | Advance of int (* us *)

let arena_spec =
  {
    Harness.name = "platform arena vs boxed completion oracle";
    gen =
      (fun st ->
        match Random.State.int st 4 with
        | 0 -> Provision (1 + Random.State.int st 3)
        | 1 | 2 -> Trigger
        | _ -> Advance (1 + Random.State.int st 2000));
    show =
      (function
      | Provision n -> Printf.sprintf "Provision %d" n
      | Trigger -> "Trigger"
      | Advance us -> Printf.sprintf "Advance %dus" us);
    make =
      (fun () ->
        let engine, platform = fresh ~seed:23 () in
        register_nat platform;
        let oracle = ref [] in
        fun op ->
          (match op with
          | Provision n ->
            Platform.provision platform ~name:"nat" ~count:n
              ~strategy:Sandbox.Horse
          | Trigger -> (
            try
              Platform.trigger platform ~fn_id:(fid platform "nat")
                ~mode:(Platform.Warm Sandbox.Horse)
                ~on_complete:(fun slot ->
                  oracle :=
                    (slot, Platform.record_of_slot platform slot) :: !oracle)
                ()
            with Platform.No_warm_sandbox _ -> ())
          | Advance us ->
            Engine.run engine
              ~until:
                (Time.add (Engine.now engine)
                   (Time.span_us (float_of_int us))));
          let slots, expected = List.split (List.rev !oracle) in
          let n = List.length expected in
          if slots <> List.init n Fun.id then
            Some "completion slots are not the arena's append order"
          else if Platform.record_count platform <> n then
            Some
              (Printf.sprintf "record_count %d, oracle saw %d"
                 (Platform.record_count platform) n)
          else if Harness.Records.of_platform platform <> expected then
            Some "record_of_slot over the arena disagrees with the oracle"
          else
            let arena = Platform.trigger_records platform in
            let bad = ref None in
            List.iteri
              (fun slot r ->
                if
                  !bad = None
                  && Trigger_records.total_ns arena slot
                     <> ns_of (Platform.record_total r)
                then
                  bad :=
                    Some
                      (Printf.sprintf "total_ns column diverges at slot %d"
                         slot))
              expected;
            !bad);
  }

let test_arena_oracle () = Harness.check arena_spec

(* ------------------------------------------------------------------ *)
(* Batched vs closure-per-trigger ingestion                            *)
(* ------------------------------------------------------------------ *)

let test_batch_matches_closure_ingestion () =
  let mk () =
    let cluster =
      Cluster.create_sharded ~servers:2 ~topology:small_topology ~seed:5 ()
    in
    Cluster.register cluster
      (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
         ~exec:(Function_def.Ull Category.Cat2) ());
    Cluster.provision cluster ~name:"nat" ~total:40
      ~strategy:Sandbox.Horse;
    (Cluster.engine cluster, cluster)
  in
  let engine_a, cluster_a = mk () in
  let fn_id = Cluster.fn_id cluster_a ~name:"nat" in
  let rng = Horse_sim.Rng.create ~seed:7 in
  let batch =
    Batch.uniform ~rng ~n:200 ~duration:(Time.span_ms 50.0) ~fn_id
      ~payload:(Platform.mode_code (Platform.Warm Sandbox.Horse))
      ()
  in
  (* the pre-batch idiom: one scheduled closure per trigger *)
  for k = 0 to Batch.length batch - 1 do
    ignore
      (Engine.schedule engine_a ~after:(Batch.time batch k) (fun _ ->
           ignore
             (Cluster.trigger cluster_a ~fn_id
                ~mode:(Platform.Warm Sandbox.Horse)
                ())))
  done;
  Cluster.run cluster_a;
  (* window >= n: event-for-event identical schedule *)
  let _, cluster_b = mk () in
  Cluster.schedule_batch ~window:1024 cluster_b batch;
  Cluster.run cluster_b;
  Alcotest.(check bool) "window >= n bit-identical to closures" true
    (Harness.Records.of_cluster cluster_a
    = Harness.Records.of_cluster cluster_b);
  Alcotest.(check bool) "rejections also identical" true
    (Cluster.rejections cluster_a = Cluster.rejections cluster_b);
  (* a small window re-runs deterministically and loses nothing *)
  let _, cluster_c = mk () in
  Cluster.schedule_batch ~window:7 cluster_c batch;
  Cluster.run cluster_c;
  let _, cluster_d = mk () in
  Cluster.schedule_batch ~window:7 cluster_d batch;
  Cluster.run cluster_d;
  Alcotest.(check bool) "windowed ingestion deterministic" true
    (Harness.Records.of_cluster cluster_c
    = Harness.Records.of_cluster cluster_d);
  Alcotest.(check int) "windowed ingestion completes the same count"
    (Cluster.record_count cluster_a)
    (Cluster.record_count cluster_c)

(* ------------------------------------------------------------------ *)
(* Metrics surface                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_recorded () =
  let engine, platform = fresh () in
  register_nat platform;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;
  ignore (run_one platform engine ~name:"nat" ~mode:(Platform.Warm Sandbox.Horse));
  let m = Platform.metrics platform in
  Alcotest.(check int) "trigger counter" 1
    (Metrics.counter m "platform.triggers.warm-horse");
  Alcotest.(check int) "completion counter" 1
    (Metrics.counter m "platform.completions");
  let arena = Platform.trigger_records platform in
  Alcotest.(check int) "one arena row" 1 (Trigger_records.length arena);
  Alcotest.(check int) "row mode is warm-horse"
    (Platform.mode_code (Platform.Warm Sandbox.Horse))
    (Trigger_records.mode_code arena 0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_platform_conservation =
  (* after the engine drains, every trigger has exactly one record,
     nothing is live, and the pool is back to its provisioned size *)
  QCheck2.Test.make ~name:"platform conserves invocations and pools" ~count:60
    QCheck2.Gen.(
      pair (1 -- 4) (list_size (1 -- 25) (pair (0 -- 3) (1 -- 5000))))
    (fun (pool, script) ->
      let engine = Engine.create ~seed:97 () in
      let platform =
        Platform.create ~topology:small_topology ~jitter:0.0 ~seed:97 ~engine ()
      in
      register_nat platform;
      Platform.provision platform ~name:"nat" ~count:pool
        ~strategy:Sandbox.Horse;
      let attempted = ref 0 in
      List.iter
        (fun (kind, delay_us) ->
          ignore
            (Engine.schedule engine
               ~after:(Time.span_us (float_of_int delay_us))
               (fun _ ->
                 let mode =
                   match kind with
                   | 0 -> Platform.Cold
                   | 1 -> Platform.Restore
                   | 2 -> Platform.Warm Sandbox.Horse
                   | _ -> Platform.Warm Sandbox.Vanilla
                 in
                 match
                   Platform.trigger platform ~fn_id:(fid platform "nat") ~mode
                     ()
                 with
                 | () -> incr attempted
                 | exception Platform.No_warm_sandbox _ -> ())))
        script;
      Engine.run ~until:(Time.of_ns 60_000_000_000) engine;
      Platform.record_count platform = !attempted
      && Platform.live_invocations platform = 0
      && Platform.pool_size platform ~fn_id:(fid platform "nat") >= pool)

let prop_keepalive_accounting =
  QCheck2.Test.make ~name:"keep-alive: warm + cold == invocations" ~count:200
    QCheck2.Gen.(
      pair (1 -- 60)
        (list_size (0 -- 40) (1 -- 3_000_000)))
    (fun (window_s, gaps_ms) ->
      let arrivals =
        List.fold_left
          (fun acc gap_ms ->
            match acc with
            | [] -> [ Time.span_ms (float_of_int gap_ms) ]
            | last :: _ ->
              Time.add_span last (Time.span_ms (float_of_int gap_ms)) :: acc)
          [] gaps_ms
        |> List.rev
      in
      let e =
        Keepalive.evaluate
          (Keepalive.Fixed (Time.span_s (float_of_int window_s)))
          ~arrivals
      in
      e.Keepalive.warm_hits + e.Keepalive.cold_starts = e.Keepalive.invocations
      && (arrivals = [] || e.Keepalive.cold_starts >= 1))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_platform_conservation; prop_keepalive_accounting ]

let () =
  Alcotest.run "horse_faas"
    [
      ( "function_def",
        [
          Alcotest.test_case "defaults" `Quick test_function_def_defaults;
          Alcotest.test_case "sample exec" `Quick test_sample_exec_models;
        ] );
      ( "registry",
        [
          Alcotest.test_case "register twice" `Quick test_register_twice_rejected;
          Alcotest.test_case "unknown function" `Quick test_unknown_function;
          Alcotest.test_case "provision fills pool" `Quick
            test_provision_fills_pool;
          Alcotest.test_case "warm without pool" `Quick
            test_warm_without_pool_raises;
          Alcotest.test_case "multi-function blackout" `Quick
            test_multi_function_blackout;
        ] );
      ( "start_modes",
        [
          Alcotest.test_case "cold" `Quick test_cold_start_latency;
          Alcotest.test_case "restore" `Quick test_restore_start_latency;
          Alcotest.test_case "warm vs horse" `Quick
            test_warm_vanilla_vs_horse_init;
          Alcotest.test_case "pool cycling" `Quick
            test_warm_sandbox_returns_to_pool;
          Alcotest.test_case "debug lines only at debug level" `Quick
            test_debug_lines;
          Alcotest.test_case "records" `Quick test_records_accumulate;
          Alcotest.test_case "pool exhaustion" `Quick
            test_concurrent_warm_pool_exhaustion;
        ] );
      ( "keep_alive",
        [
          Alcotest.test_case "expiry" `Quick test_keep_alive_expiry;
          Alcotest.test_case "reuse" `Quick test_keep_alive_reuse_prevents_expiry;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "extends running invocation" `Quick
            test_preemption_extends_running_invocation;
          Alcotest.test_case "vanilla has none" `Quick
            test_no_preemption_under_vanilla;
        ] );
      ( "keepalive",
        [
          Alcotest.test_case "fixed recommendation" `Quick
            test_fixed_policy_recommendation;
          Alcotest.test_case "histogram learns" `Quick
            test_histogram_policy_learns;
          Alcotest.test_case "histogram cap" `Quick test_histogram_cap_applies;
          Alcotest.test_case "validation" `Quick test_policy_validation;
          Alcotest.test_case "evaluate fixed" `Quick test_evaluate_fixed;
          Alcotest.test_case "short window all cold" `Quick
            test_evaluate_short_window_all_cold;
          Alcotest.test_case "cost tradeoff" `Quick test_evaluate_cost_tradeoff;
          Alcotest.test_case "rejects unsorted" `Quick
            test_evaluate_rejects_unsorted;
        ] );
      ( "energy",
        [
          Alcotest.test_case "accounts energy" `Quick
            test_platform_accounts_energy;
          Alcotest.test_case "governor signal identical" `Quick
            test_governor_signal_identical_across_strategies;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "create/register" `Quick
            test_cluster_create_and_register;
          Alcotest.test_case "provision spreads" `Quick
            test_cluster_provision_spreads;
          Alcotest.test_case "round robin" `Quick test_cluster_round_robin;
          Alcotest.test_case "least loaded" `Quick test_cluster_least_loaded;
          Alcotest.test_case "warm first" `Quick test_cluster_warm_first;
          Alcotest.test_case "warm exhausted" `Quick
            test_cluster_warm_exhausted_rejects;
          Alcotest.test_case "all servers down" `Quick
            test_cluster_all_down_rejects;
          Alcotest.test_case "routing skips unhealthy" `Quick
            test_cluster_routing_skips_unhealthy;
          Alcotest.test_case "end to end" `Quick test_cluster_end_to_end;
          Alcotest.test_case "policies: no warm capacity" `Quick
            test_policy_no_warm_rejects;
          Alcotest.test_case "policies: all servers down" `Quick
            test_policy_all_down_rejects;
          Alcotest.test_case "policies: blackout mid-storm recovers" `Quick
            test_policy_blackout_midstorm_recovers;
          Alcotest.test_case "pull queues and claims" `Quick
            test_pull_queues_and_claims;
          Alcotest.test_case "e2e estimator" `Quick test_cluster_e2e_estimator;
          Alcotest.test_case "arena vs boxed oracle (harness)" `Quick
            test_arena_oracle;
          Alcotest.test_case "batch vs closure ingestion" `Quick
            test_batch_matches_closure_ingestion;
          Alcotest.test_case "unknown fn_id raises before routing" `Quick
            test_cluster_unknown_fn_id;
        ] );
      ( "metrics",
        [ Alcotest.test_case "recorded" `Quick test_metrics_recorded ] );
      ("properties", props);
    ]
