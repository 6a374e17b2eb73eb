(* Determinism tests for the sharded parallel engine: a cluster run
   must be bit-identical — records, rejections, every counter — for
   shards 1/2/4, across seeds, with faults off and with a non-inert
   blackout plan, both in one shot and when driven op-by-op through
   the model-based harness with the sequential run as the oracle.
   The experiment layer's sharded entry points get the same check. *)

module Engine = Horse_sim.Engine
module Shard_engine = Horse_sim.Shard_engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Rng = Horse_sim.Rng
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Sandbox = Horse_vmm.Sandbox
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Cluster = Horse_faas.Cluster
module Fault = Horse_fault.Fault
module Category = Horse_workload.Category
module E = Horse.Experiments
module Scenario = Horse.Scenario

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

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
  Buffer.add_string buf
    (Printf.sprintf "policy=%s pending=%d\n" (Cluster.policy_name cluster)
       (Cluster.pending_count cluster));
  List.iter (dump_record buf) (Cluster.records cluster);
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
  (match Cluster.shard_engine cluster with
  | None -> ()
  | Some se ->
    (* the message count is part of the contract too: not just the
       same outcome, the same protocol traffic *)
    Buffer.add_string buf
      (Printf.sprintf "messages=%d\n" (Shard_engine.messages_delivered se)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* A sharded storm: triggers + optional blackouts on 4 servers        *)
(* ------------------------------------------------------------------ *)

let blackout_plan seed =
  (* a 50 ms horizon gives each server a single blackout roll, so the
     rate must be near-certain for the schedule to be non-inert on
     every seed; the other triggers keep a modest rate to exercise
     the recovery ladder under sharding too *)
  Fault.Plan.create ~seed
    ~rates:
      (List.map
         (fun trigger ->
           (trigger, if trigger = Fault.Server_blackout then 0.95 else 0.02))
         Fault.all_triggers)
    ()

let sharded_storm ?policy ?scheduler ~seed ~shards ~faulty () =
  let faults = if faulty then blackout_plan (seed + 1) else Fault.Plan.none in
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed ~faults
      ~recovery:Platform.Recovery.default ?policy ?scheduler ~shards ()
  in
  Cluster.register cluster ull_def;
  Cluster.provision cluster ~name:"ull" ~total:12 ~strategy:Sandbox.Horse;
  let horizon = Time.span_ms 50.0 in
  if faulty then begin
    let outages = Cluster.schedule_faults cluster ~horizon in
    Alcotest.(check bool) "plan is non-inert" true (outages > 0)
  end;
  let rng = Rng.create ~seed:(seed + 2) in
  let engine = Cluster.engine cluster in
  for _ = 1 to 200 do
    let after = Time.span_ns (Rng.int rng (Time.span_to_ns horizon)) in
    ignore
      (Engine.schedule engine ~after (fun _ ->
           ignore
             (Cluster.trigger cluster ~name:"ull"
                ~mode:(Platform.Warm Sandbox.Horse) ())))
  done;
  Cluster.run cluster;
  cluster

let check_shard_invariance ?policy ~faulty seed =
  let dump shards =
    dump_cluster (sharded_storm ?policy ~seed ~shards ~faulty ())
  in
  let reference = dump 1 in
  Alcotest.(check bool)
    "storm produced records" true
    (String.length reference > 100);
  List.iter
    (fun shards ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: shards=%d == shards=1" seed shards)
        reference (dump shards))
    [ 2; 4 ]

let test_storm_invariance () =
  List.iter (check_shard_invariance ~faulty:false) [ 1; 42; 1337 ]

let test_storm_invariance_faulty () =
  List.iter (check_shard_invariance ~faulty:true) [ 1; 42; 1337 ]

let test_scheduler_equivalence () =
  (* the lock-step scheduler is the epoch-semantics oracle retained
     from the fixed-quantum engine: the adaptive scheduler must
     produce byte-identical traces, with and without blackouts, at
     every shard count *)
  List.iter
    (fun faulty ->
      List.iter
        (fun seed ->
          let dump scheduler shards =
            dump_cluster (sharded_storm ~scheduler ~seed ~shards ~faulty ())
          in
          let reference = dump Shard_engine.Lockstep 1 in
          List.iter
            (fun shards ->
              Alcotest.(check string)
                (Printf.sprintf "seed %d faulty %b: lockstep shards=%d" seed
                   faulty shards)
                reference
                (dump Shard_engine.Lockstep shards);
              Alcotest.(check string)
                (Printf.sprintf "seed %d faulty %b: adaptive shards=%d" seed
                   faulty shards)
                reference
                (dump Shard_engine.Adaptive shards))
            [ 1; 4 ])
        [ 1; 42; 1337 ])
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Idle fast-forward: dense clumps separated by huge gaps              *)
(* ------------------------------------------------------------------ *)

let gap_clump_storm ?scheduler ~seed ~shards () =
  (* arrivals the adaptive scheduler exists for: millisecond-scale
     dead air between microsecond-dense clumps.  The lock-step
     scheduler walks the gaps window by window; the adaptive one must
     fast-forward across them — and still produce the same trace *)
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed
      ?scheduler ~shards ()
  in
  Cluster.register cluster ull_def;
  Cluster.provision cluster ~name:"ull" ~total:12 ~strategy:Sandbox.Horse;
  let engine = Cluster.engine cluster in
  let rng = Rng.create ~seed:(seed + 3) in
  for clump = 0 to 7 do
    let base = 1_000_000 + (clump * 8_000_000) in
    for _ = 1 to 25 do
      let at = Time.of_ns (base + Rng.int rng 100_000) in
      ignore
        (Engine.schedule_at engine ~at (fun _ ->
             ignore
               (Cluster.trigger cluster ~name:"ull"
                  ~mode:(Platform.Warm Sandbox.Horse) ())))
    done
  done;
  Cluster.run cluster;
  cluster

let test_fast_forward_equivalence () =
  List.iter
    (fun seed ->
      let reference =
        dump_cluster
          (gap_clump_storm ~scheduler:Shard_engine.Lockstep ~seed ~shards:1 ())
      in
      Alcotest.(check bool)
        "gap-clump storm produced records" true
        (String.length reference > 100);
      List.iter
        (fun shards ->
          let adaptive =
            gap_clump_storm ~scheduler:Shard_engine.Adaptive ~seed ~shards ()
          in
          Alcotest.(check string)
            (Printf.sprintf "seed %d: adaptive shards=%d == lock-step" seed
               shards)
            reference (dump_cluster adaptive);
          let se = Option.get (Cluster.shard_engine adaptive) in
          (* 8ms of dead air between clumps, an 800us default window:
             the gaps must be jumped, not walked *)
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: shards=%d fast-forwarded" seed shards)
            true
            (Shard_engine.fast_forwards se > 0);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: shards=%d fewer epochs than lock-step"
               seed shards)
            true
            (Shard_engine.epochs se
            < Shard_engine.epochs
                (Option.get
                   (Cluster.shard_engine
                      (gap_clump_storm ~scheduler:Shard_engine.Lockstep ~seed
                         ~shards ())))))
        [ 1; 4 ])
    [ 1; 42 ]

let test_storm_invariance_policies () =
  (* every built-in policy — including pull, whose claims are extra
     protocol traffic — must stay bit-identical across shard counts,
     with blackouts wiping and recovering servers mid-storm *)
  List.iter
    (fun policy ->
      List.iter
        (fun faulty ->
          List.iter
            (check_shard_invariance ~policy ~faulty)
            [ 1; 42; 1337 ])
        [ false; true ])
    (Cluster.Policy.builtins ())

(* ------------------------------------------------------------------ *)
(* Model-based: op-by-op against the sequential oracle                 *)
(* ------------------------------------------------------------------ *)

type op =
  | Trigger of int  (** schedule a warm trigger [ns] after now *)
  | Run of int  (** advance both clusters [ns] past the later now *)

let shard_spec ?policy ~name () =
  let gen rand =
    match Random.State.int rand 3 with
    | 0 | 1 -> Trigger (Random.State.int rand 3_000_000)
    | _ -> Run (Random.State.int rand 5_000_000)
  in
  let show = function
    | Trigger ns -> Printf.sprintf "Trigger +%dns" ns
    | Run ns -> Printf.sprintf "Run +%dns" ns
  in
  let make () =
    let fresh shards =
      let cluster =
        Cluster.create_sharded ~servers:3 ~topology:small_topology ~seed:11
          ?policy ~shards ()
      in
      Cluster.register cluster ull_def;
      Cluster.provision cluster ~name:"ull" ~total:9 ~strategy:Sandbox.Horse;
      cluster
    in
    let sut = fresh 4 and oracle = fresh 1 in
    let schedule cluster ns =
      let engine = Cluster.engine cluster in
      ignore
        (Engine.schedule engine ~after:(Time.span_ns ns) (fun _ ->
             ignore
               (Cluster.trigger cluster ~name:"ull"
                  ~mode:(Platform.Warm Sandbox.Horse) ())))
    in
    fun op ->
      (match op with
      | Trigger ns ->
        schedule sut ns;
        schedule oracle ns
      | Run ns ->
        (* both clocks sit at window boundaries that may differ until
           drained; run to the same absolute horizon *)
        let now c = Time.to_ns (Engine.now (Cluster.engine c)) in
        let until = Time.of_ns (max (now sut) (now oracle) + ns) in
        Cluster.run ~until sut;
        Cluster.run ~until oracle);
      let a = dump_cluster sut and b = dump_cluster oracle in
      if String.equal a b then None
      else Some (Printf.sprintf "shards=4 diverged from shards=1:\n%s\n--\n%s" a b)
  in
  Harness.{ name; gen; show; make }

let test_model_based () =
  Harness.check (shard_spec ~name:"sharded cluster vs sequential" ())

let gap_clump_spec () =
  (* the same op-by-op oracle with the adaptive scheduler's worst
     enemy as the generator: microsecond-dense trigger clumps
     interleaved with Run ops that open tens of milliseconds of dead
     air.  The adaptive sharded cluster must match both the
     sequential run and the lock-step oracle after every op *)
  let gen rand =
    match Random.State.int rand 4 with
    | 0 | 1 -> Trigger (Random.State.int rand 100_000)
    | 2 -> Run (Random.State.int rand 2_000_000)
    | _ -> Run (20_000_000 + Random.State.int rand 40_000_000)
  in
  let show = function
    | Trigger ns -> Printf.sprintf "Trigger +%dns" ns
    | Run ns -> Printf.sprintf "Run +%dns" ns
  in
  let make () =
    let fresh ~scheduler shards =
      let cluster =
        Cluster.create_sharded ~servers:3 ~topology:small_topology ~seed:13
          ~scheduler ~shards ()
      in
      Cluster.register cluster ull_def;
      Cluster.provision cluster ~name:"ull" ~total:9 ~strategy:Sandbox.Horse;
      cluster
    in
    let sut = fresh ~scheduler:Shard_engine.Adaptive 4 in
    let lockstep = fresh ~scheduler:Shard_engine.Lockstep 4 in
    let oracle = fresh ~scheduler:Shard_engine.Adaptive 1 in
    let all = [ sut; lockstep; oracle ] in
    let schedule cluster ns =
      let engine = Cluster.engine cluster in
      ignore
        (Engine.schedule engine ~after:(Time.span_ns ns) (fun _ ->
             ignore
               (Cluster.trigger cluster ~name:"ull"
                  ~mode:(Platform.Warm Sandbox.Horse) ())))
    in
    fun op ->
      (match op with
      | Trigger ns -> List.iter (fun c -> schedule c ns) all
      | Run ns ->
        let now c = Time.to_ns (Engine.now (Cluster.engine c)) in
        let until =
          Time.of_ns (List.fold_left (fun acc c -> max acc (now c)) 0 all + ns)
        in
        List.iter (fun c -> Cluster.run ~until c) all);
      let a = dump_cluster sut
      and b = dump_cluster oracle
      and c = dump_cluster lockstep in
      if not (String.equal a b) then
        Some
          (Printf.sprintf "adaptive shards=4 diverged from shards=1:\n%s\n--\n%s"
             a b)
      else if not (String.equal a c) then
        Some
          (Printf.sprintf "adaptive diverged from lock-step:\n%s\n--\n%s" a c)
      else None
  in
  Harness.{ name = "gap/clump adaptive vs oracles"; gen; show; make }

let test_model_based_gap_clump () = Harness.check (gap_clump_spec ())

let test_model_based_policies () =
  (* the same op-by-op oracle, once per built-in policy: pull's
     router-side queue and claim messages must commute with execution
     placement exactly like push's optimistic placements do *)
  List.iter
    (fun policy ->
      Harness.check
        (shard_spec ~policy
           ~name:
             (Printf.sprintf "sharded %s vs sequential"
                (Cluster.Policy.name policy))
           ()))
    (Cluster.Policy.builtins ())

(* ------------------------------------------------------------------ *)
(* Experiment layer: sharded entry points are shards-invariant        *)
(* ------------------------------------------------------------------ *)

let at_shards s counts =
  List.map (fun shards -> { s with Scenario.shards }) counts

let check_identical name variants =
  match Scenario.identical variants with
  | Ok rows -> rows
  | Error msg -> Alcotest.failf "%s: %s" name msg

let small_storm =
  {
    Scenario.default with
    seed = 7;
    duration_s = 0.05;
    arrivals = Scenario.Uniform 200;
  }

let test_scale_invariant () =
  match check_identical "scale" (at_shards small_storm [ 1; 2; 4 ]) with
  | reference :: _ ->
    Alcotest.(check bool)
      "scale run completed work" true (reference.Scenario.completed > 0)
  | [] -> assert false

let test_faults_invariant () =
  List.iter
    (fun s -> ignore (check_identical "faults" (at_shards s [ 1; 2; 4 ])))
    (E.faults ~seed:7 ~duration_s:0.3 ~rates:[ 0.0; 0.05 ] ())

let test_identity_names_field () =
  (* the check must catch a real difference and say where: two storms
     that differ only by seed complete the same triggers, so the first
     differing field is a latency percentile *)
  match Scenario.identical [ small_storm; { small_storm with seed = 8 } ] with
  | Ok _ -> Alcotest.fail "seeds 7 and 8 reported identical"
  | Error msg ->
    let expect = "row field service.p50_us diverged" in
    Alcotest.(check string)
      "first differing field named" expect
      (String.sub msg 0 (min (String.length msg) (String.length expect)));
    Alcotest.(check bool)
      "both scenarios printed" true
      (List.for_all
         (fun sub ->
           let n = String.length sub in
           let rec at i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || at (i + 1))
           in
           at 0)
         [ "seed=7"; "seed=8" ])

let test_scenario_families () =
  (* one small scenario per family, over shards {1,2,4} and the
     lock-step oracle *)
  let chain fused =
    {
      small_storm with
      workload = Scenario.Chain { len = 3; fused };
      arrivals = Scenario.Uniform 100;
    }
  in
  List.iter
    (fun (name, s) ->
      ignore
        (check_identical name
           (at_shards s [ 1; 2; 4 ]
           @ [ { s with shards = 2; scheduler = Shard_engine.Lockstep } ])))
    [
      ("one-function storm", small_storm);
      ( "palette, 2 routers",
        {
          small_storm with
          routers = 2;
          workload = Scenario.Palette;
          arrivals = Scenario.Bursty 500;
        } );
      ("chain len 3 unfused", chain false);
      ("chain len 3 fused", chain true);
      ( "faults at 5%",
        {
          small_storm with
          sandboxes = 16;
          arrivals = Scenario.Azure;
          duration_s = 0.2;
          faults = Some (Scenario.Per_trigger 0.05);
        } );
    ]

let test_colocation_invariant () =
  let rows shards =
    E.colocation ~seed:7 ~duration_s:0.5 ~repeats:2 ~vcpus:[ 8 ] ~shards ()
  in
  let reference = rows 1 in
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "colocation shards=%d == shards=1" shards)
        true
        (rows shards = reference))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Bench gates at quick scale                                          *)
(* ------------------------------------------------------------------ *)

(* The deterministic gates of bench/main.exe's shard, policy and chain
   sections, on their smallest points.  The tails compared here are
   the rows' exact percentiles. *)

let test_epoch_gate () =
  (* the adaptive scheduler must cut lock-step epochs >= 5x on the 20k
     bursty storm, at any shard count *)
  List.iter
    (fun shards ->
      let storm =
        { (E.policy_storm ~triggers:20_000 ~rate:0.0 ()) with shards }
      in
      match
        check_identical "epoch storm"
          [ { storm with scheduler = Shard_engine.Lockstep }; storm ]
      with
      | [ lockstep; adaptive ] ->
        let l = lockstep.Scenario.sync.epochs
        and a = adaptive.Scenario.sync.epochs in
        Alcotest.(check bool)
          (Printf.sprintf "shards=%d: lock-step %d >= 5 x adaptive %d" shards
             l a)
          true
          (l >= 5 * a)
      | _ -> assert false)
    [ 1; 4 ]

(* [holds contender baseline] on the e2e p99 and p999 *)
let check_tails ~what ~holds ~(contender : Scenario.tail)
    ~(baseline : Scenario.tail) =
  List.iter
    (fun (q, c, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s e2e %s: %.1fus vs %.1fus" what q c b)
        true (holds c b))
    [
      ("p99", contender.p99_us, baseline.p99_us);
      ("p999", contender.p999_us, baseline.p999_us);
    ]

let test_pull_vs_push_gate () =
  (* under blackouts, late binding must not lose the tail to push *)
  let run policy =
    let storm = E.policy_storm ~policy ~triggers:10_000 ~rate:0.9 () in
    (Scenario.run { storm with shards = 2 }).e2e
  in
  check_tails ~what:"pull vs push" ~holds:( <= )
    ~contender:(run (Cluster.Policy.pull ()))
    ~baseline:(run (Cluster.Policy.push ()))

let test_fused_vs_unfused_gate () =
  (* fusion removes a notification and a placement round-trip per hop:
     it must win the tail outright at length >= 3 *)
  List.iter
    (fun len ->
      let run fused =
        (Scenario.run
           (E.chain_scenario ~strategy:Sandbox.Horse ~len ~fused ()))
          .e2e
      in
      check_tails
        ~what:(Printf.sprintf "len %d fused vs unfused" len)
        ~holds:( < ) ~contender:(run true) ~baseline:(run false))
    [ 3; 6 ]

(* ------------------------------------------------------------------ *)
(* Shard engine basics                                                 *)
(* ------------------------------------------------------------------ *)

let test_post_ordering () =
  (* same-instant messages from different sources fire in source
     order, not post order *)
  let se =
    Shard_engine.create ~sources:3 ~lookahead:(Time.span_us 10.0) ()
  in
  let fired = ref [] in
  let at = Time.of_ns 5_000 in
  Shard_engine.post se ~src:2 ~dst:0 ~at (fun _ -> fired := 2 :: !fired);
  Shard_engine.post se ~src:1 ~dst:0 ~at (fun _ -> fired := 1 :: !fired);
  Shard_engine.post se ~src:0 ~dst:0 ~at (fun _ -> fired := 0 :: !fired);
  Shard_engine.run se;
  Alcotest.(check (list int)) "delivery in (at, src, seq) order" [ 0; 1; 2 ]
    (List.rev !fired);
  Alcotest.(check int) "all delivered" 3 (Shard_engine.messages_delivered se)

let test_channel_bound_property () =
  (* property: with a heterogeneous channel matrix, a message posted
     at exactly [now + declared delay] — the tightest send the channel
     contract allows — is never refused (i.e. never lands inside the
     destination's open window), and the delivered trace is identical
     across schedulers and shard counts.  Four nodes on a ring with
     5/20/7/50us links, two concurrent ping-pong chains hopping to
     rng-chosen neighbours at the contract bound. *)
  let us = Time.span_us in
  let links =
    [ (0, 1, us 5.0); (1, 0, us 5.0); (1, 2, us 20.0); (2, 1, us 20.0);
      (2, 3, us 7.0); (3, 2, us 7.0); (3, 0, us 50.0); (0, 3, us 50.0) ]
  in
  let neighbours = [| [| 1; 3 |]; [| 0; 2 |]; [| 1; 3 |]; [| 2; 0 |] |] in
  let delay src dst =
    let _, _, d = List.find (fun (s, d, _) -> s = src && d = dst) links in
    d
  in
  let run ~scheduler ~shards =
    let se =
      Shard_engine.create ~scheduler ~channels:links ~sources:4
        ~lookahead:(us 5.0) ()
    in
    (* per-node state only: with shards > 1 the callbacks of different
       nodes run on different strands *)
    let traces = Array.init 4 (fun _ -> Buffer.create 512) in
    let rngs = Array.init 4 (fun i -> Rng.create ~seed:(100 + i)) in
    let rec send ~src ~ttl =
      if ttl > 0 then begin
        let engine = Shard_engine.engine se src in
        let dst =
          neighbours.(src).(Rng.int rngs.(src) (Array.length neighbours.(src)))
        in
        let at = Time.add (Engine.now engine) (delay src dst) in
        Shard_engine.post se ~src ~dst ~at (fun e ->
            Buffer.add_string traces.(dst)
              (Printf.sprintf "%d<-%d@%d\n" dst src (Time.to_ns (Engine.now e)));
            send ~src:dst ~ttl:(ttl - 1))
      end
    in
    ignore
      (Engine.schedule_at (Shard_engine.engine se 0) ~at:(Time.of_ns 1_000)
         (fun _ -> send ~src:0 ~ttl:200));
    ignore
      (Engine.schedule_at (Shard_engine.engine se 2) ~at:(Time.of_ns 1_500)
         (fun _ -> send ~src:2 ~ttl:200));
    Shard_engine.run ~shards se;
    Alcotest.(check int) "all hops delivered" 400
      (Shard_engine.messages_delivered se);
    String.concat "--" (Array.to_list (Array.map Buffer.contents traces))
  in
  let reference = run ~scheduler:Shard_engine.Lockstep ~shards:1 in
  List.iter
    (fun (scheduler, name) ->
      List.iter
        (fun shards ->
          Alcotest.(check string)
            (Printf.sprintf "%s shards=%d == lockstep shards=1" name shards)
            reference
            (run ~scheduler ~shards))
        [ 1; 2; 4 ])
    [ (Shard_engine.Lockstep, "lockstep"); (Shard_engine.Adaptive, "adaptive") ]

let test_post_inside_window_rejected () =
  let se =
    Shard_engine.create ~sources:2 ~lookahead:(Time.span_us 10.0) ()
  in
  let engine = Shard_engine.engine se 0 in
  let raised = ref false in
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ns 100) (fun _ ->
         (* now = 100ns, window is [100ns, 10100ns): a post due inside
            it must be refused *)
         match
           Shard_engine.post se ~src:0 ~dst:1 ~at:(Time.of_ns 5_000)
             (fun _ -> ())
         with
         | () -> ()
         | exception Invalid_argument _ -> raised := true));
  Shard_engine.run se;
  Alcotest.(check bool) "in-window post rejected" true !raised

(* ------------------------------------------------------------------ *)
(* Golden traces: routers=1 is byte-for-byte the historical cluster   *)
(* ------------------------------------------------------------------ *)

(* MD5 digests of [dump_cluster] on every (policy, faulty, seed) storm,
   captured from the single-router build immediately before the router
   plane was partitioned.  [routers = 1] (the default) must reproduce
   them forever: any drift here means the partitioned control plane
   changed the degenerate case, not just added to it. *)
let golden_digests =
  [
    ("push-warm-first", false, 1, "3b85f20ef54f0a183005d24c2157f767");
    ("push-warm-first", false, 42, "c0f92d1b5d3ef729567849b62f2ed58a");
    ("push-warm-first", false, 1337, "c256e3c7a2ce31501467797b463baffe");
    ("push-warm-first", true, 1, "10b1ae0b1d32f005b4f3518bfe5a868e");
    ("push-warm-first", true, 42, "d9990fc060351e4b4b90f13ae06f83a2");
    ("push-warm-first", true, 1337, "9eb7bba0fe2a2f345439756eb40f0c9c");
    ("pull", false, 1, "e7b739fdb5595b6377d00d54de49fcb8");
    ("pull", false, 42, "b19a77f9d17f9a22cd533ee01d67d9ed");
    ("pull", false, 1337, "f394535d7df70e637631c796f25f8e35");
    ("pull", true, 1, "ca74cf71ee465389c4de0b840324c5d8");
    ("pull", true, 42, "36b6c44ba82f0fb1c9bbdd16494cbbf1");
    ("pull", true, 1337, "1870147779869bbb2220183b8a1644d4");
    ("core", false, 1, "3ae0862812e97ab98f4abdf07b16fc77");
    ("core", false, 42, "2b2d7b6fe527edc1a78f1a4bbcd5b394");
    ("core", false, 1337, "c028b81f4e54ff7509c0b848ba207498");
    ("core", true, 1, "e64855fe110f6047014651a3aad35fab");
    ("core", true, 42, "fb0c24cbc0c9edeba06a419ff35da6e4");
    ("core", true, 1337, "06827c40e56aa1e06da17cabb254f385");
  ]

let test_golden_traces () =
  let builtins = Cluster.Policy.builtins () in
  List.iter
    (fun (policy_name, faulty, seed, expected) ->
      let policy =
        List.find
          (fun p -> String.equal (Cluster.Policy.name p) policy_name)
          builtins
      in
      let c = sharded_storm ~policy ~seed ~shards:2 ~faulty () in
      Alcotest.(check string)
        (Printf.sprintf "%s faulty=%b seed=%d" policy_name faulty seed)
        expected
        (Digest.to_hex (Digest.string (dump_cluster c))))
    golden_digests

(* ------------------------------------------------------------------ *)
(* Partitioned router plane                                            *)
(* ------------------------------------------------------------------ *)

let fn_count = 8

let fn_name i = Printf.sprintf "fn%d" i

let multi_defs () =
  List.init fn_count (fun i ->
      Function_def.create ~name:(fn_name i) ~vcpus:2 ~memory_mb:512
        ~exec:(Function_def.Ull Category.Cat2) ())

(* A storm over many functions, so the function->router hash actually
   spreads the load: each trigger is scheduled on its affine router's
   engine, as a multi-router deployment must. *)
let router_storm ?policy ?scheduler ?(faulty = false) ?(flaps = false) ?e2e
    ~routers ~seed ~shards () =
  let faults = if faulty then blackout_plan (seed + 1) else Fault.Plan.none in
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed ~faults
      ~recovery:Platform.Recovery.default ?policy ?scheduler ?e2e ~shards
      ~routers ()
  in
  List.iter (Cluster.register cluster) (multi_defs ());
  for i = 0 to fn_count - 1 do
    Cluster.provision cluster ~name:(fn_name i) ~total:3
      ~strategy:Sandbox.Horse
  done;
  let horizon = Time.span_ms 50.0 in
  if faulty then begin
    let outages = Cluster.schedule_faults cluster ~horizon in
    Alcotest.(check bool) "plan is non-inert" true (outages > 0)
  end;
  if flaps then
    (* every server drops out of routing mid-storm and rejoins:
       pure health churn (unlike a blackout, in-flight work and warm
       pools survive), staggered so group health keeps changing *)
    for s = 0 to 3 do
      let engine =
        Cluster.router_engine cluster (Cluster.router_of_server cluster s)
      in
      let down = Time.span_ms (8.0 +. (3.0 *. float_of_int s)) in
      let up = Time.span_ms (22.0 +. (4.0 *. float_of_int s)) in
      ignore
        (Engine.schedule engine ~after:down (fun _ ->
             Cluster.mark_down cluster s));
      ignore
        (Engine.schedule engine ~after:up (fun _ -> Cluster.mark_up cluster s))
    done;
  let rng = Rng.create ~seed:(seed + 2) in
  for _ = 1 to 200 do
    let after = Time.span_ns (Rng.int rng (Time.span_to_ns horizon)) in
    let fn_id = Cluster.fn_id cluster ~name:(fn_name (Rng.int rng fn_count)) in
    let engine =
      Cluster.router_engine cluster (Cluster.router_of_fn cluster ~fn_id)
    in
    ignore
      (Engine.schedule engine ~after (fun _ ->
           ignore
             (Cluster.trigger_id cluster ~fn_id
                ~mode:(Platform.Warm Sandbox.Horse) ())))
  done;
  Cluster.run cluster;
  cluster

let test_router_invariance () =
  (* at any fixed router count the whole trace — records, spills,
     rejections, every counter, the message count — is bit-identical
     across execution shards and schedulers *)
  List.iter
    (fun routers ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              let dump ?scheduler shards =
                dump_cluster
                  (router_storm ?scheduler ~routers ~seed ~shards ~faulty ())
              in
              let reference = dump 1 in
              Alcotest.(check bool) "storm produced records" true
                (String.length reference > 100);
              List.iter
                (fun shards ->
                  Alcotest.(check string)
                    (Printf.sprintf
                       "routers=%d seed=%d faulty=%b: shards=%d == shards=1"
                       routers seed faulty shards)
                    reference (dump shards))
                [ 2; 4 ];
              Alcotest.(check string)
                (Printf.sprintf "routers=%d seed=%d faulty=%b: lockstep"
                   routers seed faulty)
                reference
                (dump ~scheduler:Shard_engine.Lockstep 4))
            [ 1; 42 ])
        [ false; true ])
    [ 2; 4 ]

let test_router_invariance_policies () =
  List.iter
    (fun policy ->
      let dump shards =
        dump_cluster
          (router_storm ~policy ~routers:2 ~seed:1337 ~shards ~faulty:true ())
      in
      let reference = dump 1 in
      Alcotest.(check string)
        (Printf.sprintf "%s routers=2: shards=4 == shards=1"
           (Cluster.Policy.name policy))
        reference (dump 4))
    (Cluster.Policy.builtins ())

(* -- the spill protocol -------------------------------------------- *)

let spill_cluster ~e2e () =
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed:5 ~e2e
      ~routers:2 ()
  in
  List.iter (Cluster.register cluster) (multi_defs ());
  cluster

let test_spill_dry_warm () =
  let cluster = spill_cluster ~e2e:true () in
  let fn_id = Cluster.fn_id cluster ~name:(fn_name 0) in
  let home = Cluster.router_of_fn cluster ~fn_id in
  let neighbor = (home + 1) mod 2 in
  (* all the warmth for fn0 lives in the *neighbor's* group: the home
     router is dry, so an affine warm trigger must spill one hop and
     land warm over there instead of being rejected *)
  Cluster.provision cluster ~router:neighbor ~name:(fn_name 0) ~total:2
    ~strategy:Sandbox.Horse;
  let outcome = ref None in
  let completion = ref None in
  ignore
    (Engine.schedule_at
       (Cluster.router_engine cluster home)
       ~at:(Time.of_ns 1_000_000)
       (fun _ ->
         outcome :=
           Some
             (Cluster.trigger_id cluster ~fn_id
                ~mode:(Platform.Warm Sandbox.Horse)
                ~on_complete:(fun (server, record) ->
                  completion := Some (server, record))
                ())));
  Cluster.run cluster;
  (match !outcome with
  | Some (Cluster.Forwarded r) ->
    Alcotest.(check int) "forwarded to the neighbor" neighbor r
  | _ -> Alcotest.fail "expected Forwarded");
  (match !completion with
  | None -> Alcotest.fail "spilled trigger never completed"
  | Some (server, record) ->
    Alcotest.(check int) "placed in the neighbor's group" neighbor
      (Cluster.router_of_server cluster server);
    (match record.Platform.mode with
    | Platform.Warm Sandbox.Horse -> ()
    | _ -> Alcotest.fail "expected a warm record");
    (* the per-record latency identity holds for spilled triggers *)
    Alcotest.(check int) "latency identity"
      (Time.span_to_ns record.Platform.init
      + Time.span_to_ns record.Platform.exec
      + Time.span_to_ns record.Platform.preemption)
      (Time.to_ns record.Platform.completed_at
      - Time.to_ns record.Platform.triggered_at));
  Alcotest.(check int) "one spill counted" 1
    (Metrics.counter (Cluster.metrics cluster) "cluster.spills");
  (* the spilled trigger completes on the neighbor's timeline, and its
     end-to-end latency charges the extra hop: arrival -> ring hop ->
     placement -> service -> completion notification is at least three
     placement delays (150us at the default 50us) on top of service *)
  let e2e = Option.get (Cluster.e2e_latencies_of cluster neighbor) in
  Alcotest.(check int) "observed on the neighbor" 1 (Stats.Quantile.count e2e);
  Alcotest.(check bool) "e2e charges the hop" true
    (Stats.Quantile.mean e2e >= 150.0)

let test_router_e2e_covers_fleet () =
  (* the fleet's e2e stream covers every router: with no faults each
     completed trigger is one observation, whichever router it
     completed on *)
  let cluster = router_storm ~e2e:true ~routers:4 ~seed:42 ~shards:1 () in
  let e2e = Option.get (Cluster.e2e_latencies cluster) in
  Alcotest.(check bool) "storm completed triggers" true
    (Cluster.record_count cluster > 0);
  Alcotest.(check int) "one observation per record"
    (Cluster.record_count cluster)
    (Stats.Quantile.count e2e)

let test_spill_all_down_and_pinned () =
  let cluster = spill_cluster ~e2e:false () in
  let fn_id = Cluster.fn_id cluster ~name:(fn_name 1) in
  let home = Cluster.router_of_fn cluster ~fn_id in
  let neighbor = (home + 1) mod 2 in
  Cluster.provision cluster ~router:neighbor ~name:(fn_name 1) ~total:2
    ~strategy:Sandbox.Horse;
  (* the home group is entirely down: an affine trigger rides the ring
     to the neighbor; a pinned trigger must NOT spill — it is rejected
     in place, because its caller relies on the pinned timeline *)
  Array.iter
    (fun s -> Cluster.mark_down cluster s)
    (Cluster.router_servers cluster home);
  let affine = ref None and pinned = ref None in
  ignore
    (Engine.schedule_at
       (Cluster.router_engine cluster home)
       ~at:(Time.of_ns 1_000_000)
       (fun _ ->
         affine :=
           Some
             (Cluster.trigger_id cluster ~fn_id
                ~mode:(Platform.Warm Sandbox.Horse) ());
         pinned :=
           Some
             (Cluster.trigger_id cluster ~router:home ~fn_id
                ~mode:(Platform.Warm Sandbox.Horse) ())));
  Cluster.run cluster;
  (match !affine with
  | Some (Cluster.Forwarded r) ->
    Alcotest.(check int) "spilled off the dead group" neighbor r
  | _ -> Alcotest.fail "expected Forwarded");
  (match !pinned with
  | Some (Cluster.Rejected rj) ->
    Alcotest.(check string) "pinned trigger rejected in place"
      "all-servers-down"
      (Cluster.reject_reason_name rj.Cluster.reason)
  | _ -> Alcotest.fail "expected Rejected for the pinned trigger");
  Alcotest.(check int) "exactly one spill" 1
    (Metrics.counter (Cluster.metrics cluster) "cluster.spills")

(* -- pull-claim fairness across the plane -------------------------- *)

let test_pull_fifo_per_router () =
  (* ten pinned triggers per router against one warm sandbox per
     group: most park in the router queue, so claim-resolution order
     is observable through each record's dispatch instant.  Claims
     must resolve strictly FIFO per router, and a blackout zeroing one
     router's tokens must not perturb the other router's queue at
     all. *)
  let run ~blackout =
    let cluster =
      Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed:3
        ~recovery:Platform.Recovery.default
        ~policy:(Cluster.Policy.pull ()) ~routers:2 ()
    in
    Cluster.register cluster ull_def;
    Cluster.provision cluster ~router:0 ~name:"ull" ~total:1
      ~strategy:Sandbox.Horse;
    Cluster.provision cluster ~router:1 ~name:"ull" ~total:1
      ~strategy:Sandbox.Horse;
    let fn_id = Cluster.fn_id cluster ~name:"ull" in
    let order = [| []; [] |] in
    (* per router: (tag, dispatch instant) in completion order *)
    for r = 0 to 1 do
      let engine = Cluster.router_engine cluster r in
      for tag = 0 to 9 do
        ignore
          (Engine.schedule_at engine
             ~at:(Time.of_ns (1_000_000 + (tag * 1_000)))
             (fun _ ->
               ignore
                 (Cluster.trigger_id cluster ~router:r ~fn_id
                    ~mode:(Platform.Warm Sandbox.Horse)
                    ~on_complete:(fun (_, record) ->
                      order.(r) <-
                        (tag, Time.to_ns record.Platform.triggered_at)
                        :: order.(r))
                    ())))
      done
    done;
    if blackout then begin
      let victim = (Cluster.router_servers cluster 0).(0) in
      let engine = Cluster.router_engine cluster 0 in
      ignore
        (Engine.schedule_at engine ~at:(Time.of_ns 1_004_500) (fun _ ->
             Cluster.mark_down cluster victim));
      ignore
        (Engine.schedule_at engine ~at:(Time.of_ns 40_000_000) (fun _ ->
             Cluster.mark_up cluster victim))
    end;
    Cluster.run cluster;
    Array.map List.rev order
  in
  let check_fifo name completions =
    Alcotest.(check int) (name ^ ": all completed") 10
      (List.length completions);
    let by_tag = List.sort compare completions in
    ignore
      (List.fold_left
         (fun prev (tag, trig) ->
           Alcotest.(check bool)
             (Printf.sprintf "%s: tag %d dispatched in FIFO order" name tag)
             true (trig >= prev);
           trig)
         min_int by_tag)
  in
  let plain = run ~blackout:false in
  check_fifo "router 0" plain.(0);
  check_fifo "router 1" plain.(1);
  let perturbed = run ~blackout:true in
  check_fifo "router 0 under blackout" perturbed.(0);
  Alcotest.(check bool)
    "router 1's queue untouched by router 0's blackout" true
    (plain.(1) = perturbed.(1))

(* -- load index vs linear scan under health churn ------------------ *)

(* The push least-loaded policy routes through the router's O(1) load
   index ([v_least_loaded]).  This policy is its executable spec: a
   plain linear scan over the same view.  Under server flaps the two
   must stay trace-equal — any divergence means the index's min
   tracking broke under health churn. *)
let linear_least_loaded () =
  Cluster.Policy.v ~name:"linear-least-loaded" (fun ~servers ->
      let decide (view : Cluster.Policy.view) ~vcpus:_ ~needs_pool:_ =
        let best = ref (-1) in
        for i = 0 to servers - 1 do
          if
            view.Cluster.Policy.v_healthy.(i)
            && (!best < 0
               || view.Cluster.Policy.v_live.(i)
                  < view.Cluster.Policy.v_live.(!best))
          then best := i
        done;
        if !best >= 0 then Cluster.Policy.Assign !best
        else Cluster.Policy.Enqueue
      in
      {
        Cluster.Policy.label = "linear-least-loaded";
        decide;
        on_completion = (fun _ ~server:_ -> []);
        on_rejection = (fun _ ~server:_ -> []);
        on_health_change = (fun _ ~server:_ ~up:_ -> []);
        on_provision = (fun ~server:_ ~count:_ -> ());
        on_claim_unused = (fun ~server:_ -> ());
      })

(* drop the "policy=<label> ..." header so differently-named policies
   can be compared byte-for-byte on the rest of the dump *)
let strip_policy_line s =
  match String.index_opt s '\n' with
  | Some i -> String.sub s i (String.length s - i)
  | None -> s

let test_load_index_churn () =
  List.iter
    (fun routers ->
      List.iter
        (fun seed ->
          let dump policy =
            strip_policy_line
              (dump_cluster
                 (router_storm ~policy ~routers ~seed ~shards:2 ~flaps:true ()))
          in
          Alcotest.(check string)
            (Printf.sprintf "routers=%d seed=%d: load index == linear scan"
               routers seed)
            (dump (linear_least_loaded ()))
            (dump (Cluster.Policy.push_least_loaded ())))
        [ 1; 42; 1337 ])
    [ 1; 2 ]

(* Print the digest of every storm trace and exit — used once to pin
   the golden digests above against the single-router build. *)
let () =
  if Sys.getenv_opt "HORSE_DUMP_GOLDEN" <> None then begin
    List.iter
      (fun policy ->
        List.iter
          (fun faulty ->
            List.iter
              (fun seed ->
                let c = sharded_storm ~policy ~seed ~shards:2 ~faulty () in
                Printf.printf "(\"%s\", %b, %d, \"%s\");\n"
                  (Cluster.Policy.name policy) faulty seed
                  (Digest.to_hex (Digest.string (dump_cluster c))))
              [ 1; 42; 1337 ])
          [ false; true ])
      (Cluster.Policy.builtins ());
    exit 0
  end

let () =
  Alcotest.run "horse_shard"
    [
      ( "determinism",
        [
          Alcotest.test_case "storm: shards 1/2/4 bit-identical" `Quick
            test_storm_invariance;
          Alcotest.test_case "storm with blackouts: bit-identical" `Quick
            test_storm_invariance_faulty;
          Alcotest.test_case "storms under every policy: bit-identical" `Quick
            test_storm_invariance_policies;
          Alcotest.test_case "adaptive == lock-step on storms" `Quick
            test_scheduler_equivalence;
          Alcotest.test_case "gap/clump: fast-forward, identical traces"
            `Quick test_fast_forward_equivalence;
          Alcotest.test_case "model-based vs sequential oracle" `Slow
            test_model_based;
          Alcotest.test_case "model-based gap/clump vs both oracles" `Slow
            test_model_based_gap_clump;
          Alcotest.test_case "model-based oracle per policy" `Slow
            test_model_based_policies;
          Alcotest.test_case "routers=1 golden traces" `Quick
            test_golden_traces;
        ] );
      ( "router plane",
        [
          Alcotest.test_case "multi-router storms bit-identical" `Quick
            test_router_invariance;
          Alcotest.test_case "multi-router storms per policy" `Quick
            test_router_invariance_policies;
          Alcotest.test_case "multi-router e2e covers every router" `Quick
            test_router_e2e_covers_fleet;
          Alcotest.test_case "dry-warm spill rides the ring" `Quick
            test_spill_dry_warm;
          Alcotest.test_case "all-down spill; pinned never spills" `Quick
            test_spill_all_down_and_pinned;
          Alcotest.test_case "pull claims FIFO per router" `Quick
            test_pull_fifo_per_router;
          Alcotest.test_case "load index == linear scan under flaps" `Quick
            test_load_index_churn;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "scale row shards-invariant" `Quick
            test_scale_invariant;
          Alcotest.test_case "faults rows shards-invariant" `Slow
            test_faults_invariant;
          Alcotest.test_case "identity check names the diverging field"
            `Quick test_identity_names_field;
          Alcotest.test_case "scenario families shards/lock-step identical"
            `Quick test_scenario_families;
          Alcotest.test_case "colocation rows shards-invariant" `Slow
            test_colocation_invariant;
        ] );
      ( "bench gates",
        [
          Alcotest.test_case "adaptive cuts lock-step epochs >= 5x" `Quick
            test_epoch_gate;
          Alcotest.test_case "pull tail <= push tail under blackouts" `Quick
            test_pull_vs_push_gate;
          Alcotest.test_case "fused tail < unfused tail at len 3, 6" `Quick
            test_fused_vs_unfused_gate;
        ] );
      ( "engine",
        [
          Alcotest.test_case "message delivery order" `Quick test_post_ordering;
          Alcotest.test_case "channel-bound posts never land in-window" `Quick
            test_channel_bound_property;
          Alcotest.test_case "in-window post rejected" `Quick
            test_post_inside_window_rejected;
        ] );
    ]
