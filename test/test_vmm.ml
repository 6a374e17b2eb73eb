(* Tests for horse_vmm: sandbox lifecycle, the four resume strategies,
   cost-model agreement, failure injection and the multi-sandbox
   consistency of the HORSE pause state. *)

module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Vcpu = Horse_sched.Vcpu
module Topology = Horse_cpu.Topology
module Cost = Horse_cpu.Cost_model
module Metrics = Horse_sim.Metrics
module Time = Horse_sim.Time_ns
module Al = Horse_psm.Arena_list

let topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

let fresh ?(ull_count = 1) ?(jitter = 0.0) () =
  let scheduler = Scheduler.create ~ull_count ~topology () in
  let metrics = Metrics.create () in
  let vmm = Vmm.create ~jitter ~scheduler ~metrics () in
  (vmm, scheduler, metrics)

let mk_sandbox ?(id = 1) ?(vcpus = 2) ?(ull = true) () =
  Sandbox.create ~id ~vcpus ~memory_mb:512 ~ull ()

let ns_of = Time.span_to_ns

(* ------------------------------------------------------------------ *)
(* Sandbox entity                                                      *)
(* ------------------------------------------------------------------ *)

let test_sandbox_create () =
  let sb = mk_sandbox ~vcpus:4 () in
  Alcotest.(check int) "vcpus" 4 (Sandbox.vcpu_count sb);
  Alcotest.(check bool) "created" true (Sandbox.state sb = Sandbox.Created);
  Alcotest.(check bool) "ull" true (Sandbox.is_ull sb);
  Alcotest.(check int) "no psm memory yet" 0
    (Sandbox.horse_memory_footprint_bytes sb)

let test_sandbox_validation () =
  Alcotest.check_raises "zero vcpus"
    (Invalid_argument "Sandbox.create: vcpus must be positive") (fun () ->
      ignore (Sandbox.create ~id:1 ~vcpus:0 ~memory_mb:512 ()));
  Alcotest.check_raises "zero memory"
    (Invalid_argument "Sandbox.create: memory must be positive") (fun () ->
      ignore (Sandbox.create ~id:1 ~vcpus:1 ~memory_mb:0 ()))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let test_boot_places_vcpus () =
  let vmm, scheduler, metrics = fresh () in
  let sb = mk_sandbox ~vcpus:3 () in
  let span = Vmm.boot vmm sb in
  Alcotest.(check bool) "running" true (Sandbox.state sb = Sandbox.Running);
  Alcotest.(check int) "3 queued" 3 (Scheduler.total_queued scheduler);
  Alcotest.(check bool) "~1.5s" true
    (ns_of span > 1_400_000_000 && ns_of span < 1_600_000_000);
  Alcotest.(check int) "metric" 1 (Metrics.counter metrics "vmm.boots")

let test_boot_twice_rejected () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox () in
  ignore (Vmm.boot vmm sb);
  Alcotest.check_raises "double boot"
    (Vmm.Invalid_state "boot: sandbox already started") (fun () ->
      ignore (Vmm.boot vmm sb))

let test_restore_cost () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox () in
  let span = Vmm.restore vmm sb in
  Alcotest.(check bool) "~1.3ms" true
    (ns_of span > 1_200_000 && ns_of span < 1_400_000);
  Alcotest.(check bool) "running" true (Sandbox.state sb = Sandbox.Running)

let test_pause_requires_running () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox () in
  Alcotest.check_raises "not running"
    (Vmm.Invalid_state "pause: sandbox not running") (fun () ->
      ignore (Vmm.pause vmm ~strategy:Sandbox.Vanilla sb))

let test_resume_requires_paused () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox () in
  ignore (Vmm.boot vmm sb);
  Alcotest.check_raises "not paused"
    (Vmm.Invalid_state "resume: sandbox not paused") (fun () ->
      ignore (Vmm.resume vmm sb))

let test_double_pause_rejected () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  Alcotest.check_raises "double pause"
    (Vmm.Invalid_state "pause: sandbox not running") (fun () ->
      ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))

let test_pause_empties_queues () =
  let vmm, scheduler, _ = fresh () in
  let sb = mk_sandbox ~vcpus:4 () in
  ignore (Vmm.boot vmm sb);
  Alcotest.(check int) "queued" 4 (Scheduler.total_queued scheduler);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Vanilla sb);
  Alcotest.(check int) "drained" 0 (Scheduler.total_queued scheduler);
  Alcotest.(check bool) "paused vcpus" true
    (Array.for_all (fun v -> Vcpu.state v = Vcpu.Paused) (Sandbox.vcpus sb))

let roundtrip ?(topology = topology) strategy vcpus =
  let scheduler = Scheduler.create ~ull_count:1 ~topology () in
  let vmm = Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Metrics.create ()) () in
  let sb = mk_sandbox ~vcpus () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy sb);
  let result = Vmm.resume vmm sb in
  (vmm, scheduler, sb, result)

(* Calibration comparisons assume the paper's 72-CPU testbed, where a
   36-vCPU vanilla resume finds a near-empty queue per vCPU. *)
let roundtrip_r650 strategy vcpus =
  roundtrip ~topology:Topology.r650 strategy vcpus

let test_resume_restores_vcpus () =
  List.iter
    (fun strategy ->
      let _, scheduler, sb, _ = roundtrip strategy 4 in
      Alcotest.(check bool)
        (Sandbox.strategy_name strategy ^ " running")
        true
        (Sandbox.state sb = Sandbox.Running);
      Alcotest.(check int)
        (Sandbox.strategy_name strategy ^ " re-queued")
        4
        (Scheduler.total_queued scheduler))
    [ Sandbox.Vanilla; Sandbox.Ppsm; Sandbox.Coal; Sandbox.Horse ]

let test_horse_resume_lands_on_ull_queue () =
  let _, scheduler, _sb, result = roundtrip Sandbox.Horse 3 in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  Alcotest.(check int) "on ull queue" 3 (Runqueue.length ull);
  Alcotest.(check bool) "merge threads used" true (result.Vmm.merge_threads >= 1);
  Alcotest.(check int) "one preempted cpu per thread"
    result.Vmm.merge_threads
    (List.length result.Vmm.preempted_cpus)

let test_vanilla_resume_spreads_on_normal_queues () =
  let _, scheduler, _, result = roundtrip Sandbox.Vanilla 4 in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  Alcotest.(check int) "ull untouched" 0 (Runqueue.length ull);
  Alcotest.(check int) "no merge threads" 0 result.Vmm.merge_threads

(* ------------------------------------------------------------------ *)
(* Resume timing: simulator vs cost-model closed forms                 *)
(* ------------------------------------------------------------------ *)

let test_vanilla_resume_matches_estimate () =
  List.iter
    (fun vcpus ->
      let vmm, _, _, result = roundtrip_r650 Sandbox.Vanilla vcpus in
      let expected = Cost.vanilla_resume_estimate_ns (Vmm.cost vmm) ~vcpus in
      let measured = float_of_int (ns_of result.Vmm.total) in
      Alcotest.(check bool)
        (Printf.sprintf "within 5%% at %d vcpus (%f vs %f)" vcpus measured
           expected)
        true
        (Float.abs (measured -. expected) /. expected < 0.05))
    [ 1; 8; 36 ]

let test_horse_resume_matches_estimate () =
  List.iter
    (fun vcpus ->
      let vmm, _, _, result = roundtrip_r650 Sandbox.Horse vcpus in
      let expected = Cost.horse_resume_estimate_ns (Vmm.cost vmm) in
      let measured = float_of_int (ns_of result.Vmm.total) in
      Alcotest.(check bool)
        (Printf.sprintf "constant ~150ns at %d vcpus" vcpus)
        true
        (Float.abs (measured -. expected) /. expected < 0.05))
    [ 1; 8; 36 ]

let test_breakdown_consistency () =
  let _, _, _, result = roundtrip Sandbox.Vanilla 8 in
  Alcotest.(check int) "breakdown sums to total"
    (int_of_float (Float.round (Vmm.breakdown_total_ns result.Vmm.breakdown)))
    (ns_of result.Vmm.total)

let test_steps45_dominate_vanilla () =
  let _, _, _, result = roundtrip_r650 Sandbox.Vanilla 36 in
  let b = result.Vmm.breakdown in
  let share =
    (b.Vmm.merge_ns +. b.Vmm.load_ns) /. Vmm.breakdown_total_ns b
  in
  Alcotest.(check bool) "steps 4+5 ~93%" true (share > 0.92 && share < 0.945)

let test_strategy_ordering_at_36 () =
  let total s =
    let _, _, _, r = roundtrip_r650 s 36 in
    ns_of r.Vmm.total
  in
  let vanil = total Sandbox.Vanilla
  and ppsm = total Sandbox.Ppsm
  and coal = total Sandbox.Coal
  and horse = total Sandbox.Horse in
  Alcotest.(check bool) "horse < ppsm" true (horse < ppsm);
  Alcotest.(check bool) "ppsm < coal" true (ppsm < coal);
  Alcotest.(check bool) "coal < vanil" true (coal < vanil);
  (* the paper's improvement bands at 36 vCPUs *)
  let impr x = 1.0 -. (float_of_int x /. float_of_int vanil) in
  Alcotest.(check bool) "coal saves 16-22%" true
    (impr coal > 0.16 && impr coal < 0.22);
  Alcotest.(check bool) "ppsm saves 55-70%" true
    (impr ppsm > 0.55 && impr ppsm < 0.70);
  Alcotest.(check bool) "horse saves >=84%" true (impr horse >= 0.84)

let test_jitter_bounds () =
  let scheduler = Scheduler.create ~topology () in
  let vmm =
    Vmm.create ~jitter:0.02 ~scheduler ~metrics:(Metrics.create ()) ()
  in
  let sb = mk_sandbox () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  let r = Vmm.resume vmm sb in
  let exact = Vmm.breakdown_total_ns r.Vmm.breakdown in
  let measured = float_of_int (ns_of r.Vmm.total) in
  Alcotest.(check bool) "within 2%" true
    (Float.abs (measured -. exact) /. exact <= 0.021)

(* ------------------------------------------------------------------ *)
(* Load semantics across strategies                                    *)
(* ------------------------------------------------------------------ *)

let test_coalesced_load_equals_vanilla_effect () =
  (* After resume, the global lock-protected load must be the same
     whether the n updates were applied one by one or coalesced. *)
  let load_after strategy =
    let _, scheduler, _, _ = roundtrip strategy 12 in
    Horse_sched.Load_tracking.load (Scheduler.global_load scheduler)
  in
  let vanil = load_after Sandbox.Vanilla in
  let coal = load_after Sandbox.Coal in
  let horse = load_after Sandbox.Horse in
  let ppsm = load_after Sandbox.Ppsm in
  Alcotest.(check (float 1e-6)) "coal == vanilla" vanil coal;
  Alcotest.(check (float 1e-6)) "horse == vanilla" vanil horse;
  Alcotest.(check (float 1e-6)) "ppsm == vanilla" vanil ppsm;
  (* so must every normal queue's: Coal applies one coalesced update
     per distinct queue, covering all of that queue's vCPUs.  12 vCPUs
     over 7 normal queues put several on one queue. *)
  let queue_loads strategy =
    let _, scheduler, sb, _ = roundtrip strategy 12 in
    let on q =
      Array.fold_left
        (fun k q' -> if q' == q then k + 1 else k)
        0 (Sandbox.queues sb)
    in
    Array.map
      (fun q ->
        (on q, Horse_sched.Load_tracking.load (Runqueue.load q)))
      (Scheduler.runqueues scheduler)
  in
  let vanil_q = queue_loads Sandbox.Vanilla
  and coal_q = queue_loads Sandbox.Coal in
  let occupied =
    Array.fold_left (fun n (k, _) -> if k > 0 then n + 1 else n) 0 coal_q
  in
  Alcotest.(check bool) "vCPUs on >= 2 queues" true (occupied >= 2);
  Alcotest.(check bool) "some queue holds >= 2" true
    (Array.exists (fun (k, _) -> k >= 2) coal_q);
  Array.iteri
    (fun i (k, load) ->
      Alcotest.(check int)
        (Printf.sprintf "queue %d vCPUs" i)
        (fst vanil_q.(i)) k;
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "queue %d coal == vanilla" i)
        (snd vanil_q.(i)) load)
    coal_q;
  (* and the lock-write counts differ as §4.2 describes *)
  let writes strategy =
    let _, scheduler, _, _ = roundtrip strategy 12 in
    Horse_sched.Load_tracking.updates (Scheduler.global_load scheduler)
  in
  Alcotest.(check int) "vanilla writes n times" 12 (writes Sandbox.Vanilla);
  Alcotest.(check int) "horse writes once" 1 (writes Sandbox.Horse)

(* A pause removes a sandbox's vCPUs in placement order, and its cost
   is the sum of each vCPU's queue position at its turn: the pause
   span pins that order exactly (jitter 0, Vanilla pause: base plus
   [walked] nodes). *)
let pause_span_of ~walked =
  let c = Cost.firecracker in
  int_of_float
    (Float.round
       (c.Cost.pause_base_ns
       +. (float_of_int walked *. c.Cost.merge_walk_node_ns)))

let with_credits sb credits =
  Array.iteri (fun i v -> Vcpu.set_credit v credits.(i)) (Sandbox.vcpus sb)

let test_psm_removal_in_placement_order () =
  let vmm, scheduler, _ = fresh () in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  (* B's vCPUs (credits 20, 40, 60) already sit on the ull queue *)
  let b = mk_sandbox ~id:2 ~vcpus:3 () in
  with_credits b [| 20; 40; 60 |];
  ignore (Vmm.boot vmm b);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse b);
  ignore (Vmm.resume vmm b);
  (* A's credits by vCPU index are 50, 10, 30: the P²SM source (and
     placement) order is vCPU 1, 2, 0, interleaved with B's *)
  let a = mk_sandbox ~id:1 ~vcpus:3 () in
  with_credits a [| 50; 10; 30 |];
  ignore (Vmm.boot vmm a);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse a);
  ignore (Vmm.resume vmm a);
  Alcotest.(check (list int)) "interleaved on the ull queue"
    [ 10; 20; 30; 40; 50; 60 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue ull)));
  Alcotest.(check (list int)) "placement order" [ 1; 2; 0 ]
    (Array.to_list
       (Array.map
          (fun node -> Vcpu.index (Al.value (Runqueue.queue ull) node))
          (Sandbox.nodes a)));
  (* positions 0, then 1, then 2 once the earlier ones left: 3 nodes
     walked (vCPU-index order would walk 4 + 0 + 1 = 5) *)
  Alcotest.(check int) "pause span" (pause_span_of ~walked:3)
    (ns_of (Vmm.pause vmm ~strategy:Sandbox.Vanilla a))

let test_vanilla_removal_in_placement_order () =
  (* 3 CPUs, one reserved: two normal queues Q0 and Q1 *)
  let topology = Topology.create ~sockets:1 ~cores_per_socket:3 () in
  let scheduler = Scheduler.create ~ull_count:1 ~topology () in
  let vmm =
    Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Metrics.create ()) ()
  in
  let sb = mk_sandbox ~vcpus:4 ~ull:false () in
  with_credits sb [| 40; 10; 30; 20 |];
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Vanilla sb);
  ignore (Vmm.resume vmm sb);
  (* the merge alternates the queues (equal loads, shorter first):
     vCPUs 0 and 2 on Q0, sorted 30 then 40; 1 and 3 on Q1, 10 then
     20 *)
  Alcotest.(check (list int)) "queues by vCPU" [ 0; 1; 0; 1 ]
    (Array.to_list (Array.map Runqueue.id (Sandbox.queues sb)));
  (* vCPU 0 leaves Q0 from position 1, the rest from the head: 1 node
     walked (credit order would walk 0) *)
  Alcotest.(check int) "pause span" (pause_span_of ~walked:1)
    (ns_of (Vmm.pause vmm ~strategy:Sandbox.Vanilla sb))

(* ------------------------------------------------------------------ *)
(* HORSE pause state maintenance across sandboxes                      *)
(* ------------------------------------------------------------------ *)

let test_two_paused_sandboxes_share_queue () =
  let vmm, scheduler, metrics = fresh () in
  let sb1 = mk_sandbox ~id:1 ~vcpus:2 () in
  let sb2 = mk_sandbox ~id:2 ~vcpus:3 () in
  ignore (Vmm.boot vmm sb1);
  ignore (Vmm.boot vmm sb2);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb1);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb2);
  (* resuming sb1 splices into the ull queue; sb2's plan must follow *)
  ignore (Vmm.resume vmm sb1);
  Alcotest.(check bool) "sb2 saw maintenance events" true
    (Metrics.counter metrics "psm.maintenance_events" >= 2);
  let r2 = Vmm.resume vmm sb2 in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  Alcotest.(check int) "all 5 vcpus on ull queue" 5 (Runqueue.length ull);
  Alcotest.(check bool) "queue still sorted" true
    (Al.is_sorted (Runqueue.queue ull));
  Alcotest.(check bool) "sb2 resume still O(1)" true
    (ns_of r2.Vmm.total < 200)

let test_pause_resume_cycles_stay_consistent () =
  let vmm, scheduler, _ = fresh () in
  let sandboxes =
    List.init 4 (fun i -> mk_sandbox ~id:i ~vcpus:(1 + (i mod 3)) ())
  in
  List.iter (fun sb -> ignore (Vmm.boot vmm sb)) sandboxes;
  List.iter
    (fun sb -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
    sandboxes;
  (* interleave resumes and pauses several times *)
  for _ = 1 to 3 do
    List.iter (fun sb -> ignore (Vmm.resume vmm sb)) sandboxes;
    List.iter
      (fun sb -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
      sandboxes
  done;
  List.iter (fun sb -> ignore (Vmm.resume vmm sb)) sandboxes;
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  Alcotest.(check int) "every vcpu back"
    (List.fold_left (fun acc sb -> acc + Sandbox.vcpu_count sb) 0 sandboxes)
    (Runqueue.length ull);
  Alcotest.(check bool) "sorted" true (Al.is_sorted (Runqueue.queue ull))

let test_memory_footprint_while_paused () =
  let vmm, _, _ = fresh () in
  let sb = mk_sandbox ~vcpus:36 () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  let bytes = Sandbox.horse_memory_footprint_bytes sb in
  Alcotest.(check bool) "positive, sub-MB" true (bytes > 0 && bytes < 1_000_000);
  ignore (Vmm.resume vmm sb);
  Alcotest.(check int) "released after resume" 0
    (Sandbox.horse_memory_footprint_bytes sb)

(* The §5.2 memory report reads a paused plan's key count: after any
   churn of the ull queue it must match a plan built over the queue as
   it is now, which this test counts from the credits alone.  The
   credits interleave, so the churn moves the key count. *)
let test_memory_footprint_follows_churn () =
  let vmm, scheduler, _ = fresh () in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  let sb = mk_sandbox ~vcpus:4 () in
  Array.iteri
    (fun i v -> Vcpu.set_credit v (100 + (200 * i)))
    (Sandbox.vcpus sb);
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  let keys () =
    let queued = List.map Vcpu.credit (Al.to_list (Runqueue.queue ull)) in
    List.length
      (List.sort_uniq Int.compare
         (Array.to_list
            (Array.map
               (fun v ->
                 List.length
                   (List.filter (fun c -> c <= Vcpu.credit v) queued))
               (Sandbox.vcpus sb))))
  in
  (* Sandbox.horse_memory_footprint_bytes: 8 per queued vCPU, 48 per
     plan key, 24 per paused vCPU, 64 fixed *)
  let check label expected_keys =
    Alcotest.(check int) (label ^ ": keys") expected_keys (keys ());
    Alcotest.(check int) label
      ((8 * Runqueue.length ull) + (48 * expected_keys) + (24 * 4) + 64)
      (Sandbox.horse_memory_footprint_bytes sb)
  in
  check "paused on an empty queue" 1;
  let others =
    List.map
      (fun credit ->
        fst
          (Runqueue.enqueue ull (Vcpu.create ~sandbox:9 ~index:credit ~credit ())))
      [ 200; 400; 600 ]
  in
  check "three interleaved vCPUs queued" 4;
  ignore (Runqueue.dequeue ull (List.nth others 1));
  check "one dequeued" 3;
  ignore (Runqueue.pop_front ull);
  ignore (Runqueue.enqueue ull (Vcpu.create ~sandbox:9 ~index:0 ~credit:50 ()));
  check "popped and re-filled below" 2;
  ignore (Vmm.resume vmm sb);
  Alcotest.(check (list int)) "merged in credit order"
    [ 50; 100; 300; 500; 600; 700 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue ull)))

let test_stop_releases_everything () =
  let vmm, scheduler, _ = fresh () in
  let sb = mk_sandbox ~vcpus:2 () in
  ignore (Vmm.boot vmm sb);
  ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  Alcotest.(check int) "attached" 1 (Runqueue.attached ull);
  Vmm.stop vmm sb;
  Alcotest.(check int) "detached" 0 (Runqueue.attached ull);
  Alcotest.(check bool) "stopped" true (Sandbox.state sb = Sandbox.Stopped)

(* Three 2-vCPU HORSE pauses on the one ull queue, churn, the three
   resumes, then a second round ended by a crash and two stops.  Each
   queue mutation adds the number of plans attached at that moment to
   [psm.maintenance_events]; the totals below are counted by hand. *)
let test_maintenance_count () =
  let vmm, scheduler, metrics = fresh () in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  let a = mk_sandbox ~id:1 () and b = mk_sandbox ~id:2 ()
  and c = mk_sandbox ~id:3 () in
  List.iter (fun sb -> ignore (Vmm.boot vmm sb)) [ a; b; c ];
  let step label ~attached ~events =
    Alcotest.(check int) (label ^ ": attached") attached (Runqueue.attached ull);
    Alcotest.(check int) (label ^ ": events") events
      (Metrics.counter metrics "psm.maintenance_events")
  in
  let pause sb = ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb) in
  let resume sb = ignore (Vmm.resume vmm sb) in
  (* booted on normal queues: pausing touches no ull-queue plan *)
  pause a;
  step "pause a" ~attached:1 ~events:0;
  pause b;
  step "pause b" ~attached:2 ~events:0;
  pause c;
  step "pause c" ~attached:3 ~events:0;
  (* churn: every mutation updates all three plans *)
  let foreign index credit = Vcpu.create ~sandbox:9 ~index ~credit () in
  let x, _ = Runqueue.enqueue ull (foreign 0 5) in
  ignore (Runqueue.enqueue ull (foreign 1 9));
  ignore (Runqueue.dequeue ull x);
  ignore (Runqueue.pop_front ull);
  step "churn" ~attached:3 ~events:12;
  (* a resume detaches its own plan, then tells the others of its two
     inserts *)
  resume a;
  step "resume a" ~attached:2 ~events:16;
  resume b;
  step "resume b" ~attached:1 ~events:18;
  resume c;
  step "resume c" ~attached:0 ~events:18;
  (* second round: the three now run on the ull queue *)
  pause a;
  step "re-pause a" ~attached:1 ~events:18;
  pause b;
  step "re-pause b (two removals seen by a)" ~attached:2 ~events:20;
  Vmm.crash vmm b;
  step "crash b" ~attached:1 ~events:20;
  Vmm.stop vmm c;
  step "stop running c (two removals seen by a)" ~attached:1 ~events:22;
  Vmm.stop vmm a;
  step "stop paused a" ~attached:0 ~events:22;
  Alcotest.(check int) "queue drained" 0 (Runqueue.length ull)

let test_dispatch_overhead () =
  let vmm, _, _ = fresh () in
  Alcotest.(check int) "horse fast path skips dispatch" 0
    (ns_of (Vmm.dispatch_overhead vmm ~strategy:Sandbox.Horse));
  Alcotest.(check bool) "vanilla pays ~540ns" true
    (ns_of (Vmm.dispatch_overhead vmm ~strategy:Sandbox.Vanilla) > 500)

let test_maintenance_cost () =
  let vmm, _, _ = fresh () in
  Alcotest.(check int) "zero" 0 (ns_of (Vmm.maintenance_cost vmm ~events:0));
  Alcotest.(check bool) "scales" true
    (ns_of (Vmm.maintenance_cost vmm ~events:100) > 1000)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore substrate                                        *)
(* ------------------------------------------------------------------ *)

module Snapshot = Horse_vmm.Snapshot

let test_memory_model () =
  let m = Snapshot.Memory.create ~size_mb:1 in
  Alcotest.(check int) "256 pages" 256 (Snapshot.Memory.page_count m);
  Alcotest.(check int) "zeroed" 0 (Snapshot.Memory.read m ~page:0);
  Snapshot.Memory.write m ~page:3 ~value:77;
  Alcotest.(check int) "written" 77 (Snapshot.Memory.read m ~page:3);
  Alcotest.(check int) "dirty" 1 (Snapshot.Memory.dirty_count m);
  Snapshot.Memory.clear_dirty m;
  Alcotest.(check int) "cleared" 0 (Snapshot.Memory.dirty_count m);
  Alcotest.(check (list int)) "working set survives" [ 3 ]
    (Snapshot.Memory.touched_pages m);
  Alcotest.check_raises "range"
    (Invalid_argument "Snapshot.Memory: page out of range") (fun () ->
      Snapshot.Memory.write m ~page:256 ~value:0)

let test_snapshot_roundtrip () =
  let m = Snapshot.Memory.create ~size_mb:1 in
  List.iter
    (fun (page, value) -> Snapshot.Memory.write m ~page ~value)
    [ (0, 11); (17, 22); (255, 33) ];
  let snap = Snapshot.capture m in
  Alcotest.(check int) "working set" 3 (Snapshot.working_set_size snap);
  (* mutate the original after the capture: the snapshot is frozen *)
  Snapshot.Memory.write m ~page:0 ~value:999;
  let report = Snapshot.restore snap ~mode:Snapshot.Eager in
  Alcotest.(check int) "page 0" 11
    (Snapshot.Memory.read report.Snapshot.memory ~page:0);
  Alcotest.(check int) "page 17" 22
    (Snapshot.Memory.read report.Snapshot.memory ~page:17);
  Alcotest.(check int) "page 255" 33
    (Snapshot.Memory.read report.Snapshot.memory ~page:255)

let test_restore_mode_latency_ordering () =
  let m = Snapshot.Memory.create ~size_mb:64 in
  for page = 0 to 255 do
    Snapshot.Memory.write m ~page ~value:page
  done;
  let snap = Snapshot.capture m in
  let latency mode =
    ns_of (Snapshot.restore snap ~mode).Snapshot.restore_latency
  in
  let eager = latency Snapshot.Eager in
  let lazy_ = latency Snapshot.Lazy in
  let ws = latency Snapshot.Working_set in
  Alcotest.(check bool) "lazy < ws < eager" true (lazy_ < ws && ws < eager);
  (* the calibration anchor: a ~256-page working set restores ~1.3ms *)
  Alcotest.(check bool)
    (Printf.sprintf "faasnap-style ~1.3ms (%d)" ws)
    true
    (ws > 1_200_000 && ws < 1_400_000)

let test_fault_costs () =
  let m = Snapshot.Memory.create ~size_mb:1 in
  for page = 0 to 63 do
    Snapshot.Memory.write m ~page ~value:1
  done;
  let snap = Snapshot.capture m in
  let eager = Snapshot.restore snap ~mode:Snapshot.Eager in
  Alcotest.(check int) "no faults after eager" 0
    (ns_of (Snapshot.fault_cost eager ~first_touches:100));
  let lazy_ = Snapshot.restore snap ~mode:Snapshot.Lazy in
  Alcotest.(check bool) "lazy pays per touch" true
    (ns_of (Snapshot.fault_cost lazy_ ~first_touches:100) > 0);
  let ws = Snapshot.restore snap ~mode:Snapshot.Working_set in
  Alcotest.(check bool) "ws pays less than lazy" true
    (ns_of (Snapshot.fault_cost ws ~first_touches:300)
    < ns_of (Snapshot.fault_cost lazy_ ~first_touches:300));
  Alcotest.check_raises "negative touches"
    (Invalid_argument "Snapshot.fault_cost: negative first_touches") (fun () ->
      ignore (Snapshot.fault_cost lazy_ ~first_touches:(-1)))

let prop_snapshot_restores_contents =
  QCheck2.Test.make
    ~name:"restore reproduces the captured contents under every mode"
    ~count:60
    QCheck2.Gen.(list_size (0 -- 40) (pair (0 -- 255) (0 -- 1000)))
    (fun writes ->
      let m = Snapshot.Memory.create ~size_mb:1 in
      List.iter (fun (page, value) -> Snapshot.Memory.write m ~page ~value) writes;
      let snap = Snapshot.capture m in
      List.for_all
        (fun mode ->
          let report = Snapshot.restore snap ~mode in
          List.for_all
            (fun page ->
              Snapshot.Memory.read report.Snapshot.memory ~page
              = Snapshot.Memory.read m ~page)
            (List.init 256 Fun.id))
        [ Snapshot.Eager; Snapshot.Lazy; Snapshot.Working_set ])

(* ------------------------------------------------------------------ *)
(* Boot phase model                                                    *)
(* ------------------------------------------------------------------ *)

module Boot = Horse_vmm.Boot

let test_boot_total_is_cold_anchor () =
  Alcotest.(check int) "1.5s" 1_500_000_000
    (ns_of (Boot.total Boot.firecracker_nodejs));
  Alcotest.(check int) "full boot == total"
    (ns_of (Boot.total Boot.firecracker_nodejs))
    (ns_of (Boot.cost Boot.firecracker_nodejs Boot.Full_boot))

let test_boot_resume_after_skips_prefix () =
  let profile = Boot.firecracker_nodejs in
  (* SnapStart-style: snapshot after code load; only warmup remains *)
  let after_code = Boot.cost profile (Boot.Resume_after Boot.Code_load) in
  Alcotest.(check int) "restore + warmup"
    (1_300_000 + 115_000_000)
    (ns_of after_code);
  (* snapshotting later phases always starts faster *)
  let costs =
    List.map
      (fun p -> ns_of (Boot.cost profile (Boot.Resume_after p)))
      Boot.all_phases
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a > b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone" true (decreasing costs);
  (* resume after the last phase = restore only *)
  Alcotest.(check int) "pure restore" 1_300_000
    (ns_of (Boot.cost profile (Boot.Resume_after Boot.Handler_warmup)))

let test_boot_skipped_phases () =
  Alcotest.(check int) "full boot skips none" 0
    (List.length (Boot.skipped_phases Boot.Full_boot));
  Alcotest.(check int) "after kernel skips 2"
    2
    (List.length (Boot.skipped_phases (Boot.Resume_after Boot.Kernel_boot)));
  Alcotest.(check (list string)) "names"
    [ "vmm-create"; "kernel-boot" ]
    (List.map Boot.phase_name
       (Boot.skipped_phases (Boot.Resume_after Boot.Kernel_boot)))

(* ------------------------------------------------------------------ *)
(* Property: random strategy sequences never corrupt the queues        *)
(* ------------------------------------------------------------------ *)

let prop_random_lifecycles =
  let strategy_gen =
    QCheck2.Gen.oneofl
      [ Sandbox.Vanilla; Sandbox.Ppsm; Sandbox.Coal; Sandbox.Horse ]
  in
  QCheck2.Test.make ~name:"random pause/resume sequences keep queues sorted"
    ~count:100
    QCheck2.Gen.(
      pair (list_size (1 -- 4) (1 -- 6)) (list_size (1 -- 12) strategy_gen))
    (fun (sizes, strategies) ->
      let vmm, scheduler, _ = fresh ~ull_count:2 () in
      let sandboxes =
        List.mapi
          (fun i vcpus -> mk_sandbox ~id:i ~vcpus ())
          sizes
      in
      List.iter (fun sb -> ignore (Vmm.boot vmm sb)) sandboxes;
      let arr = Array.of_list sandboxes in
      List.iteri
        (fun i strategy ->
          let sb = arr.(i mod Array.length arr) in
          match Sandbox.state sb with
          | Sandbox.Running -> ignore (Vmm.pause vmm ~strategy sb)
          | Sandbox.Paused -> ignore (Vmm.resume vmm sb)
          | Sandbox.Created | Sandbox.Booting | Sandbox.Stopped
          | Sandbox.Crashed -> ())
        strategies;
      Array.for_all
        (fun q -> Al.is_sorted (Runqueue.queue q))
        (Scheduler.runqueues scheduler))

let () =
  Alcotest.run "horse_vmm"
    [
      ( "sandbox",
        [
          Alcotest.test_case "create" `Quick test_sandbox_create;
          Alcotest.test_case "validation" `Quick test_sandbox_validation;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "boot places vcpus" `Quick test_boot_places_vcpus;
          Alcotest.test_case "boot twice rejected" `Quick test_boot_twice_rejected;
          Alcotest.test_case "restore cost" `Quick test_restore_cost;
          Alcotest.test_case "pause requires running" `Quick
            test_pause_requires_running;
          Alcotest.test_case "resume requires paused" `Quick
            test_resume_requires_paused;
          Alcotest.test_case "double pause rejected" `Quick
            test_double_pause_rejected;
          Alcotest.test_case "pause empties queues" `Quick
            test_pause_empties_queues;
          Alcotest.test_case "resume restores vcpus" `Quick
            test_resume_restores_vcpus;
          Alcotest.test_case "horse lands on ull queue" `Quick
            test_horse_resume_lands_on_ull_queue;
          Alcotest.test_case "vanilla spreads on normal queues" `Quick
            test_vanilla_resume_spreads_on_normal_queues;
          Alcotest.test_case "maintenance count over three pauses" `Quick
            test_maintenance_count;
          Alcotest.test_case "stop releases everything" `Quick
            test_stop_releases_everything;
        ] );
      ( "timing",
        [
          Alcotest.test_case "vanilla matches estimate" `Quick
            test_vanilla_resume_matches_estimate;
          Alcotest.test_case "horse matches estimate" `Quick
            test_horse_resume_matches_estimate;
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_consistency;
          Alcotest.test_case "steps 4+5 dominate" `Quick
            test_steps45_dominate_vanilla;
          Alcotest.test_case "strategy ordering at 36" `Quick
            test_strategy_ordering_at_36;
          Alcotest.test_case "jitter bounds" `Quick test_jitter_bounds;
          Alcotest.test_case "dispatch overhead" `Quick test_dispatch_overhead;
          Alcotest.test_case "maintenance cost" `Quick test_maintenance_cost;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "coalesced load == vanilla load" `Quick
            test_coalesced_load_equals_vanilla_effect;
          Alcotest.test_case "P²SM pause removes in placement order" `Quick
            test_psm_removal_in_placement_order;
          Alcotest.test_case "vanilla pause removes in placement order" `Quick
            test_vanilla_removal_in_placement_order;
          Alcotest.test_case "two paused sandboxes share queue" `Quick
            test_two_paused_sandboxes_share_queue;
          Alcotest.test_case "pause/resume cycles" `Quick
            test_pause_resume_cycles_stay_consistent;
          Alcotest.test_case "memory footprint" `Quick
            test_memory_footprint_while_paused;
          Alcotest.test_case "memory footprint follows churn" `Quick
            test_memory_footprint_follows_churn;
        ] );
      ( "boot",
        [
          Alcotest.test_case "total is cold anchor" `Quick
            test_boot_total_is_cold_anchor;
          Alcotest.test_case "resume-after skips prefix" `Quick
            test_boot_resume_after_skips_prefix;
          Alcotest.test_case "skipped phases" `Quick test_boot_skipped_phases;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "memory model" `Quick test_memory_model;
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "mode latency ordering" `Quick
            test_restore_mode_latency_ordering;
          Alcotest.test_case "fault costs" `Quick test_fault_costs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_lifecycles; prop_snapshot_restores_contents ] );
    ]
