(* Tests for horse_sched: vCPUs, run queues (ordering, upkeep of the
   attached P²SM plans, P²SM merge integration), load tracking,
   credit2 accounting and the scheduler's placement policies. *)

module Vcpu = Horse_sched.Vcpu
module Runqueue = Horse_sched.Runqueue
module Load = Horse_sched.Load_tracking
module Credit2 = Horse_sched.Credit2
module Scheduler = Horse_sched.Scheduler
module Topology = Horse_cpu.Topology
module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Time = Horse_sim.Time_ns

let mk_vcpu ?(sandbox = 0) ?(index = 0) ?credit () =
  Vcpu.create ~sandbox ~index ?credit ()

(* ------------------------------------------------------------------ *)
(* Vcpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_vcpu_basics () =
  let v = mk_vcpu ~sandbox:3 ~index:1 () in
  Alcotest.(check int) "sandbox" 3 (Vcpu.sandbox v);
  Alcotest.(check int) "index" 1 (Vcpu.index v);
  Alcotest.(check int) "default credit" Vcpu.default_credit (Vcpu.credit v);
  Alcotest.(check bool) "offline" true (Vcpu.state v = Vcpu.Offline)

let test_vcpu_credit_ops () =
  let v = mk_vcpu ~credit:100 () in
  Vcpu.burn_credit v 30;
  Alcotest.(check int) "burned" 70 (Vcpu.credit v);
  Vcpu.burn_credit v 100;
  Alcotest.(check int) "negative allowed" (-30) (Vcpu.credit v);
  Vcpu.set_credit v 500;
  Alcotest.(check int) "set" 500 (Vcpu.credit v)

let test_vcpu_ordering () =
  let a = mk_vcpu ~credit:10 () and b = mk_vcpu ~credit:20 () in
  Alcotest.(check bool) "least credit first" true (Vcpu.compare_credit a b < 0)

(* ------------------------------------------------------------------ *)
(* Runqueue                                                            *)
(* ------------------------------------------------------------------ *)

let mk_queue ?kind () = Runqueue.create ?kind ~cpu:0 ~id:0 ()

let test_runqueue_sorted_by_credit () =
  let q = mk_queue () in
  let low = mk_vcpu ~index:0 ~credit:5 ()
  and mid = mk_vcpu ~index:1 ~credit:10 ()
  and high = mk_vcpu ~index:2 ~credit:20 () in
  ignore (Runqueue.enqueue q high);
  ignore (Runqueue.enqueue q low);
  ignore (Runqueue.enqueue q mid);
  Alcotest.(check int) "length" 3 (Runqueue.length q);
  Alcotest.(check (list int)) "credit order" [ 5; 10; 20 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue q)));
  Alcotest.(check bool) "queued state" true (Vcpu.state low = Vcpu.Queued)

let test_runqueue_dequeue () =
  let q = mk_queue () in
  let v = mk_vcpu () in
  let node, _ = Runqueue.enqueue q v in
  let pos = Runqueue.dequeue q node in
  Alcotest.(check int) "pos" 0 pos;
  Alcotest.(check int) "empty" 0 (Runqueue.length q);
  Alcotest.(check bool) "offline" true (Vcpu.state v = Vcpu.Offline)

let test_runqueue_timeslices () =
  let normal = mk_queue () and ull = mk_queue ~kind:Runqueue.Ull () in
  Alcotest.(check int) "ull 1us" 1_000
    (Time.span_to_ns (Runqueue.timeslice ull));
  Alcotest.(check int) "normal 10ms" 10_000_000
    (Time.span_to_ns (Runqueue.timeslice normal))

let test_runqueue_set_kind_guard () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ()));
  Alcotest.check_raises "non-empty"
    (Invalid_argument "Runqueue.set_kind: queue not empty") (fun () ->
      Runqueue.set_kind q Runqueue.Ull)

(* A plan for a paused set of [credits] against [q], attached to it
   with the maintenance counter [events]. *)
let attach_plan ?(sandbox = 1) q ~events credits =
  let source = Al.create (Runqueue.arena q) in
  List.iteri
    (fun index credit ->
      ignore (Al.insert_sorted source (mk_vcpu ~sandbox ~index ~credit ())))
    credits;
  let plan = Psm.Plan.build ~source ~target:(Runqueue.queue q) in
  Runqueue.attach q ~events plan;
  (source, plan)

let fresh_plan q (source, plan) =
  Psm.Plan.is_consistent plan ~target:(Runqueue.queue q) ~source

let test_runqueue_notifications () =
  let q = mk_queue () in
  let events = ref 0 in
  let paused = attach_plan q ~events [ 7; 12 ] in
  let v1 = mk_vcpu ~index:0 ~credit:10 () in
  let v2 = mk_vcpu ~index:1 ~credit:5 () in
  let n1, _ = Runqueue.enqueue q v1 in
  ignore (Runqueue.enqueue q v2);
  ignore (Runqueue.dequeue q n1);
  Alcotest.(check int) "one update per mutation" 3 !events;
  Alcotest.(check bool) "plan fresh" true (fresh_plan q paused);
  Runqueue.detach q (snd paused);
  Runqueue.detach q (snd paused);
  ignore (Runqueue.enqueue q (mk_vcpu ~index:2 ()));
  Alcotest.(check int) "no update after detach" 3 !events;
  Alcotest.(check int) "attached" 0 (Runqueue.attached q)

let test_runqueue_pop_front_notifies () =
  let q = mk_queue () in
  let events = ref 0 in
  let paused = attach_plan q ~events [ 0; 3 ] in
  ignore (Runqueue.enqueue q (mk_vcpu ~credit:1 ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:2 ()));
  let v = Option.get (Runqueue.pop_front q) in
  Alcotest.(check int) "least credit popped" 1 (Vcpu.credit v);
  Alcotest.(check int) "two inserts and one pop" 3 !events;
  Alcotest.(check bool) "plan fresh" true (fresh_plan q paused)

let test_runqueue_apply_merge () =
  (* a full P²SM round-trip against a queue with a paused bystander *)
  let q = mk_queue ~kind:Runqueue.Ull () in
  List.iter
    (fun (i, c) -> ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:9 ~index:i ~credit:c ())))
    [ (0, 10); (1, 30) ];
  let events = ref 0 in
  let bystander = attach_plan ~sandbox:2 q ~events [ 6; 20; 35; 50 ] in
  let source, plan = attach_plan q ~events [ 5; 7; 20; 40 ] in
  Alcotest.(check int) "both attached" 2 (Runqueue.attached q);
  let stats, nodes = Runqueue.apply_merge q ~plan ~source in
  Alcotest.(check int) "merging plan detached" 1 (Runqueue.attached q);
  Alcotest.(check int) "4 spliced" 4 stats.Psm.Plan.spliced;
  Alcotest.(check int) "4 nodes returned" 4 (Array.length nodes);
  Alcotest.(check (list int)) "final order" [ 5; 7; 10; 20; 30; 40 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue q)));
  Alcotest.(check int) "one update per spliced vCPU" 4 !events;
  Alcotest.(check bool) "bystander fresh" true (fresh_plan q bystander);
  Alcotest.(check bool) "spliced vcpus queued" true
    (Array.for_all
       (fun n -> Vcpu.state (Al.value (Runqueue.queue q) n) = Vcpu.Queued)
       nodes)

(* Two plans attached at different times through the same churn: each
   stays fresh, the counter grows by the plans attached at each
   mutation, and a rerun of the seed reproduces the plans' keys and
   the count. *)
let churn_with_two_plans seed =
  let st = Random.State.make [| seed |] in
  let q = mk_queue ~kind:Runqueue.Ull () in
  let events = ref 0 and expected = ref 0 in
  let a = attach_plan q ~events [ 10; 40; 70 ] in
  let b = ref None in
  let nodes = ref [] in
  for i = 0 to 199 do
    if i = 50 then b := Some (attach_plan ~sandbox:2 q ~events [ 25; 55 ]);
    let plans = if i < 50 then 1 else 2 in
    match Random.State.int st 3 with
    | 0 | 1 ->
      let n, _ =
        Runqueue.enqueue q
          (mk_vcpu ~sandbox:i ~credit:(Random.State.int st 100) ())
      in
      nodes := n :: !nodes;
      expected := !expected + plans
    | _ -> (
      match !nodes with
      | [] -> ()
      | n :: rest ->
        nodes := rest;
        ignore (Runqueue.dequeue q n);
        expected := !expected + plans)
  done;
  let b = Option.get !b in
  ( fresh_plan q a && fresh_plan q b,
    (!events, !expected),
    (Psm.Plan.keys (snd a), Psm.Plan.keys (snd b)) )

let test_attach_determinism seed () =
  let fresh, (events, expected), keys = churn_with_two_plans seed in
  Alcotest.(check bool) "both plans fresh" true fresh;
  Alcotest.(check int) "counter = plans attached per mutation" expected events;
  let _, (events', _), keys' = churn_with_two_plans seed in
  Alcotest.(check bool) "identical across reruns" true
    (events = events' && keys = keys')

let test_runqueue_merge_wrong_queue_rejected () =
  let q = mk_queue () and other = Runqueue.create ~cpu:1 ~id:1 () in
  let source = Al.create (Runqueue.arena other) in
  let plan = Psm.Plan.build ~source ~target:(Runqueue.queue other) in
  Alcotest.check_raises "wrong queue"
    (Invalid_argument "Psm.Plan.execute: not the lists the plan was built over")
    (fun () -> ignore (Runqueue.apply_merge q ~plan ~source))

(* ------------------------------------------------------------------ *)
(* Load tracking                                                       *)
(* ------------------------------------------------------------------ *)

let test_load_enqueue_decay () =
  let l = Load.create () in
  Alcotest.(check (float 0.0)) "initial" 0.0 (Load.load l);
  Load.on_enqueue l;
  let after_one = Load.load l in
  Alcotest.(check bool) "positive" true (after_one > 0.0);
  Load.decay l ~periods:32;
  Alcotest.(check (float 1e-9)) "halved after 32 periods" (after_one /. 2.0)
    (Load.load l)

let test_load_coalesced_equals_iterated () =
  let a = Load.create () and b = Load.create () in
  for _ = 1 to 36 do
    Load.on_enqueue a
  done;
  let pelt = Horse_coalesce.Coalesce.Affine.pelt in
  Load.on_enqueue_coalesced b
    (Horse_coalesce.Coalesce.Precomputed.make
       ~alpha:pelt.Horse_coalesce.Coalesce.Affine.alpha
       ~beta:pelt.Horse_coalesce.Coalesce.Affine.beta ~n:36);
  Alcotest.(check (float 1e-6)) "same load" (Load.load a) (Load.load b);
  Alcotest.(check int) "36 lock writes vanilla" 36 (Load.updates a);
  Alcotest.(check int) "1 lock write coalesced" 1 (Load.updates b)

let test_load_utilisation_clamped () =
  let l = Load.create () in
  Alcotest.(check (float 0.0)) "zero" 0.0 (Load.utilisation l);
  for _ = 1 to 10_000 do
    Load.on_enqueue l
  done;
  Alcotest.(check (float 1e-9)) "saturates at 1" 1.0 (Load.utilisation l)

let test_load_dequeue_floor () =
  let l = Load.create () in
  Load.on_dequeue l;
  Alcotest.(check (float 0.0)) "never negative" 0.0 (Load.load l)

(* ------------------------------------------------------------------ *)
(* Credit2                                                             *)
(* ------------------------------------------------------------------ *)

let test_credit2_pick_least () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ~index:0 ~credit:50 ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:10 ()));
  let v = Option.get (Credit2.pick_next q) in
  Alcotest.(check int) "least credit" 10 (Vcpu.credit v);
  Alcotest.(check bool) "running" true (Vcpu.state v = Vcpu.Running)

let test_credit2_reset_when_exhausted () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ~index:0 ~credit:(-5) ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:(-20) ()));
  Alcotest.(check bool) "needs reset" true (Credit2.needs_reset q);
  let v = Option.get (Credit2.pick_next q) in
  Alcotest.(check bool) "topped up" true (Vcpu.credit v > 0);
  (* the most-starved vCPU still runs first after the uniform top-up *)
  Alcotest.(check int) "still least" (Vcpu.default_credit - 20) (Vcpu.credit v)

let test_credit2_charge () =
  let v = mk_vcpu ~credit:1000 () in
  Credit2.charge v ~ran_for:(Time.span_us 100.0);
  Alcotest.(check int) "burned 100us" 900 (Vcpu.credit v);
  Credit2.charge v ~ran_for:(Time.span_ns 10);
  Alcotest.(check int) "at least 1" 899 (Vcpu.credit v)

let test_credit2_empty () =
  let q = mk_queue () in
  Alcotest.(check bool) "no pick" true (Credit2.pick_next q = None);
  Alcotest.(check bool) "no reset" false (Credit2.needs_reset q)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

let test_scheduler_create () =
  let s = Scheduler.create ~topology:small_topology () in
  Alcotest.(check int) "8 queues" 8 (Scheduler.cpu_count s);
  Alcotest.(check int) "1 ull" 1 (List.length (Scheduler.ull_runqueues s));
  Alcotest.(check bool) "last cpu reserved" true
    (Runqueue.is_ull (Scheduler.runqueue s ~cpu:7));
  Alcotest.(check bool) "first cpu normal" false
    (Runqueue.is_ull (Scheduler.runqueue s ~cpu:0))

let test_scheduler_ull_count_validation () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Scheduler.create: bad ull_count") (fun () ->
      ignore (Scheduler.create ~ull_count:9 ~topology:small_topology ()))

let test_scheduler_select_normal_spreads () =
  let s = Scheduler.create ~topology:small_topology () in
  let q1 = Scheduler.select_normal s in
  ignore (Runqueue.enqueue q1 (mk_vcpu ()));
  Horse_sched.Load_tracking.on_enqueue (Runqueue.load q1);
  let q2 = Scheduler.select_normal s in
  Alcotest.(check bool) "avoids loaded queue" true
    (Runqueue.id q1 <> Runqueue.id q2);
  Alcotest.(check bool) "never ull" false (Runqueue.is_ull q2)

let empty_plan q =
  Psm.Plan.build ~source:(Al.create (Runqueue.arena q))
    ~target:(Runqueue.queue q)

let test_scheduler_ull_balance () =
  let s = Scheduler.create ~ull_count:2 ~topology:small_topology () in
  let events = ref 0 in
  let q1 = Scheduler.select_ull_for_pause s in
  let p1 = empty_plan q1 in
  Runqueue.attach q1 ~events p1;
  let q2 = Scheduler.select_ull_for_pause s in
  Alcotest.(check bool) "balances" true (Runqueue.id q1 <> Runqueue.id q2);
  Runqueue.attach q2 ~events (empty_plan q2);
  Runqueue.detach q1 p1;
  let q3 = Scheduler.select_ull_for_pause s in
  Alcotest.(check int) "prefers emptier" (Runqueue.id q1) (Runqueue.id q3)

let test_scheduler_detach_guard () =
  let s = Scheduler.create ~topology:small_topology () in
  let q = Scheduler.select_ull_for_pause s in
  let events = ref 0 in
  let p1 = empty_plan q and p2 = empty_plan q in
  Runqueue.detach q p1;
  Alcotest.(check int) "never attached: no-op" 0 (Runqueue.attached q);
  Runqueue.attach q ~events p1;
  Runqueue.attach q ~events p2;
  Runqueue.detach q p1;
  Runqueue.detach q p1;
  Alcotest.(check int) "double detach counts once" 1 (Runqueue.attached q);
  Alcotest.check_raises "one counter per queue"
    (Invalid_argument "Runqueue.attach: another maintenance counter")
    (fun () -> Runqueue.attach q ~events:(ref 0) (empty_plan q))

let test_scheduler_add_ull () =
  let s = Scheduler.create ~topology:small_topology () in
  let q = Scheduler.add_ull_runqueue s in
  Alcotest.(check int) "2 ull queues" 2 (List.length (Scheduler.ull_runqueues s));
  Alcotest.(check bool) "converted" true (Runqueue.is_ull q);
  Alcotest.(check int) "highest free id picked" 6 (Runqueue.id q)

let test_scheduler_total_queued () =
  let s = Scheduler.create ~topology:small_topology () in
  Alcotest.(check int) "empty" 0 (Scheduler.total_queued s);
  ignore (Runqueue.enqueue (Scheduler.runqueue s ~cpu:0) (mk_vcpu ()));
  ignore (Runqueue.enqueue (Scheduler.runqueue s ~cpu:1) (mk_vcpu ~index:1 ()));
  Alcotest.(check int) "two" 2 (Scheduler.total_queued s)

(* ------------------------------------------------------------------ *)
(* CPU executor                                                        *)
(* ------------------------------------------------------------------ *)

module Executor = Horse_sched.Cpu_executor
module Engine = Horse_sim.Engine

let executor_fixture () =
  let engine = Engine.create ~seed:17 () in
  let scheduler =
    Scheduler.create ~ull_count:1
      ~topology:(Topology.create ~sockets:1 ~cores_per_socket:4 ())
      ()
  in
  let ex =
    Executor.create_with_context_switch ~engine ~scheduler
      ~context_switch:(Time.span_ns 100) ()
  in
  (engine, scheduler, ex)

let test_executor_runs_one_task () =
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:0 in
  let done_at = ref None in
  Executor.submit ex ~queue ~vcpu:(mk_vcpu ()) ~work:(Time.span_us 5.0)
    ~on_done:(fun at -> done_at := Some at);
  Alcotest.(check int) "one outstanding" 1 (Executor.outstanding ex);
  Engine.run engine;
  (* 5us of work in one 10ms-slice bite + one context switch *)
  Alcotest.(check (option int)) "completion time" (Some 5_100)
    (Option.map Time.to_ns !done_at);
  Alcotest.(check int) "drained" 0 (Executor.outstanding ex)

let test_executor_timeslice_rotation () =
  (* §4.1.3's point: on the 1us-timeslice ull queue, a sub-us task
     behind a long task completes after at most one slice; on a
     normal 10ms-slice queue it waits out the incumbent. *)
  let latency_on kind =
    let engine, scheduler, ex = executor_fixture () in
    let cpu = match kind with Runqueue.Ull -> 3 | Runqueue.Normal -> 0 in
    let queue = Scheduler.runqueue scheduler ~cpu in
    (* long incumbent: 200us of work, enqueued first *)
    Executor.submit ex ~queue ~vcpu:(mk_vcpu ~sandbox:1 ())
      ~work:(Time.span_us 200.0) ~on_done:(fun _ -> ());
    (* the uLL task arrives 2us later *)
    let ull_done = ref None in
    ignore
      (Engine.schedule engine ~after:(Time.span_us 2.0) (fun _ ->
           Executor.submit ex ~queue
             ~vcpu:(mk_vcpu ~sandbox:2 ~credit:1 ())
             ~work:(Time.span_ns 700)
             ~on_done:(fun at -> ull_done := Some (Time.to_ns at))));
    Engine.run engine;
    Option.get !ull_done
  in
  let on_ull = latency_on Runqueue.Ull in
  let on_normal = latency_on Runqueue.Normal in
  (* ull queue: done within a few microseconds; normal queue: waits
     out the incumbent's 200us *)
  Alcotest.(check bool)
    (Printf.sprintf "ull fast (%dns)" on_ull)
    true (on_ull < 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "normal slow (%dns)" on_normal)
    true (on_normal > 200_000);
  Alcotest.(check bool) "order of magnitude apart" true
    (on_normal / on_ull > 10)

let test_executor_least_credit_priority () =
  (* the paper's run-queue order (least remaining credit first) gives
     strict priority: a vCPU that has run keeps winning the queue, so
     equal submissions complete sequentially, not round-robin *)
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:3 (* ull: 1us slices *) in
  let finished = ref [] in
  List.iter
    (fun id ->
      Executor.submit ex ~queue ~vcpu:(mk_vcpu ~sandbox:id ())
        ~work:(Time.span_us 5.0)
        ~on_done:(fun at -> finished := (id, Time.to_ns at) :: !finished))
    [ 1; 2 ];
  Engine.run engine;
  match List.rev !finished with
  | [ (first, t1); (second, t2) ] ->
    Alcotest.(check int) "first submitted finishes first" 1 first;
    Alcotest.(check int) "second follows" 2 second;
    (* 5 slices of (1us + 100ns switch) each *)
    Alcotest.(check int) "first at 5.5us" 5_500 t1;
    Alcotest.(check int) "second at 11us" 11_000 t2
  | _ -> Alcotest.fail "expected two completions"

let test_executor_validation () =
  let _, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:0 in
  let vcpu = mk_vcpu () in
  Alcotest.check_raises "zero work"
    (Invalid_argument "Cpu_executor.submit: work must be positive") (fun () ->
      Executor.submit ex ~queue ~vcpu ~work:Time.span_zero ~on_done:ignore);
  Executor.submit ex ~queue ~vcpu ~work:(Time.span_us 1.0) ~on_done:ignore;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Cpu_executor.submit: vCPU already has outstanding work")
    (fun () ->
      Executor.submit ex ~queue ~vcpu ~work:(Time.span_us 1.0) ~on_done:ignore)

let test_executor_feeds_psm_plans () =
  (* work churning an ull queue must keep the paused plans fresh *)
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:3 in
  let events = ref 0 in
  let paused = attach_plan queue ~events [ 0; Vcpu.default_credit ] in
  Executor.submit ex ~queue ~vcpu:(mk_vcpu ()) ~work:(Time.span_us 3.0)
    ~on_done:(fun _ -> ());
  Engine.run engine;
  (* 3 slices: 1 initial enqueue + 2 re-enqueues + 3 pops = 6 events *)
  Alcotest.(check int) "updates flowed" 6 !events;
  Alcotest.(check bool) "plan fresh" true (fresh_plan queue paused)

(* ------------------------------------------------------------------ *)
(* PELT                                                                *)
(* ------------------------------------------------------------------ *)

module Pelt = Horse_sched.Pelt

let test_pelt_decay_halves_at_32 () =
  (* kernel-faithful: the shift gives the exact half, then the 0.32
     fixed-point multiply by y^0 = 0xffffffff truncates one ulp *)
  Alcotest.(check int) "halving (one truncation ulp)" 499
    (Pelt.decay_load 1000 ~periods:32);
  Alcotest.(check int) "quartering" 249 (Pelt.decay_load 1000 ~periods:64);
  Alcotest.(check int) "identity" 1000 (Pelt.decay_load 1000 ~periods:0);
  Alcotest.(check int) "deep decay to zero" 0
    (Pelt.decay_load Pelt.load_avg_max ~periods:4000)

let test_pelt_decay_monotone () =
  let prev = ref max_int in
  for k = 0 to 120 do
    let v = Pelt.decay_load 40_000 ~periods:k in
    Alcotest.(check bool) "non-increasing" true (v <= !prev);
    prev := v
  done

let test_pelt_table_bounds () =
  Alcotest.(check int32) "y^0 = ~1.0" 0xffffffffl (Pelt.decay_multiplier 0);
  (* y^16 = sqrt(1/2) ~ 0.7071 in 0.32 fixed point *)
  Alcotest.(check int32) "y^16" 0xb504f333l (Pelt.decay_multiplier 16);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pelt.decay_multiplier: k outside [0,31]") (fun () ->
      ignore (Pelt.decay_multiplier 32))

(* The kernel's decay is what [Load_tracking]'s affine step
   [L(x) = αx + β] abstracts: [k] periods of decay with no new
   runnable time are [x·αᵏ], α = y = 2^(-1/32).  The kernel's two
   floors (the per-32-period shift and the 0.32 multiply) keep it
   within 2 load units of that; 1.9998 is the largest gap seen over
   2M draws. *)
let prop_pelt_decay_matches_affine =
  let alpha = Horse_coalesce.Coalesce.Affine.pelt.Horse_coalesce.Coalesce.Affine.alpha in
  QCheck2.Test.make ~name:"PELT decay matches the affine step" ~count:2000
    QCheck2.Gen.(pair (0 -- Pelt.load_avg_max) (0 -- 1199))
    (fun (v, k) ->
      Float.abs
        (float_of_int (Pelt.decay_load v ~periods:k)
        -. (float_of_int v *. (alpha ** float_of_int k)))
      <= 2.001)

let prop_pelt_decay_split =
  QCheck2.Test.make
    ~name:"decay(v, a+b) ~= decay(decay(v, a), b) within rounding" ~count:300
    QCheck2.Gen.(triple (0 -- Pelt.load_avg_max) (0 -- 100) (0 -- 100))
    (fun (v, a, b) ->
      let joint = Pelt.decay_load v ~periods:(a + b) in
      let split = Pelt.decay_load (Pelt.decay_load v ~periods:a) ~periods:b in
      (* each truncating step loses at most a few ulps *)
      abs (joint - split) <= 4 + (v / 10_000))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_runqueue_always_sorted =
  QCheck2.Test.make ~name:"run queue stays credit-sorted under churn" ~count:200
    QCheck2.Gen.(list_size (1 -- 60) (0 -- 1000))
    (fun credits ->
      let q = mk_queue () in
      let nodes =
        List.mapi
          (fun index credit ->
            fst (Runqueue.enqueue q (mk_vcpu ~index ~credit ())))
          credits
      in
      (* remove every third node, then check the sort invariant *)
      List.iteri
        (fun i node -> if i mod 3 = 0 then ignore (Runqueue.dequeue q node))
        nodes;
      Al.is_sorted (Runqueue.queue q))

(* k paused plans attached to one queue, kept fresh only by the
   queue's own upkeep, while a random script churns the queue and
   merges some plans into it.  Every remaining plan must stay equal to
   a from-scratch rebuild, every merge must equal the reference merge,
   vCPU for vCPU (so FIFO order among equal credits counts), and the
   counter must grow by the plans attached at each mutation. *)
type rq_op = Enqueue of int | Dequeue of int | Pop | Merge of int

let rq_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun c -> Enqueue c) (0 -- 50));
        (3, map (fun i -> Dequeue i) (0 -- 1000));
        (1, pure Pop);
        (1, map (fun j -> Merge j) (0 -- 7));
      ])

let prop_many_attached =
  QCheck2.Test.make
    ~name:"k attached plans stay fresh under queue churn and merges"
    ~count:200
    QCheck2.Gen.(
      triple
        (list_size (0 -- 20) (0 -- 50))
        (list_size (1 -- 8) (list_size (0 -- 6) (0 -- 50)))
        (list_size (0 -- 40) rq_op_gen))
    (fun (queue_credits, sources, script) ->
      let q = mk_queue ~kind:Runqueue.Ull () in
      let queue = Runqueue.queue q in
      List.iteri
        (fun index credit ->
          ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:100 ~index ~credit ())))
        queue_credits;
      let events = ref 0 and expected = ref 0 in
      let plans =
        Array.of_list
          (List.mapi
             (fun sandbox credits ->
               Some (attach_plan ~sandbox q ~events credits))
             sources)
      in
      let mutated by = expected := !expected + (by * Runqueue.attached q) in
      let ok = ref true in
      let merge j =
        match plans.(j) with
        | None -> ()
        | Some (source, plan) ->
          plans.(j) <- None;
          let expected_queue =
            Horse_psm.Reference.merge_values ~compare:Vcpu.compare_credit
              (Al.to_list source) (Al.to_list queue)
          in
          let spliced = Al.length source in
          ok :=
            !ok
            && Psm.Plan.is_consistent plan ~target:queue ~source
            &&
            (ignore (Runqueue.apply_merge q ~plan ~source);
             List.for_all2 ( == ) expected_queue (Al.to_list queue));
          mutated spliced
      in
      List.iteri
        (fun step op ->
          match op with
          | Enqueue credit ->
            ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:200 ~index:step ~credit ()));
            mutated 1
          | Dequeue i when Runqueue.length q > 0 ->
            ignore (Runqueue.dequeue q (Al.nth queue (i mod Runqueue.length q)));
            mutated 1
          | Dequeue _ -> ()
          | Pop -> if Runqueue.pop_front q <> None then mutated 1
          | Merge j -> merge (j mod Array.length plans))
        script;
      Array.iteri (fun j _ -> merge j) plans;
      !ok && Runqueue.attached q = 0 && !events = !expected
      && Al.is_sorted queue)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_runqueue_always_sorted;
      prop_many_attached;
      prop_pelt_decay_split;
      prop_pelt_decay_matches_affine;
    ]

let () =
  Alcotest.run "horse_sched"
    [
      ( "vcpu",
        [
          Alcotest.test_case "basics" `Quick test_vcpu_basics;
          Alcotest.test_case "credit ops" `Quick test_vcpu_credit_ops;
          Alcotest.test_case "ordering" `Quick test_vcpu_ordering;
        ] );
      ( "runqueue",
        [
          Alcotest.test_case "sorted by credit" `Quick
            test_runqueue_sorted_by_credit;
          Alcotest.test_case "dequeue" `Quick test_runqueue_dequeue;
          Alcotest.test_case "timeslices" `Quick test_runqueue_timeslices;
          Alcotest.test_case "set_kind guard" `Quick test_runqueue_set_kind_guard;
          Alcotest.test_case "notifications" `Quick test_runqueue_notifications;
          Alcotest.test_case "pop_front notifies" `Quick
            test_runqueue_pop_front_notifies;
          Alcotest.test_case "apply_merge" `Quick test_runqueue_apply_merge;
          Alcotest.test_case "merge guards queue identity" `Quick
            test_runqueue_merge_wrong_queue_rejected;
          Alcotest.test_case "deterministic notify, seed 1" `Quick
            (test_attach_determinism 1);
          Alcotest.test_case "deterministic notify, seed 42" `Quick
            (test_attach_determinism 42);
          Alcotest.test_case "deterministic notify, seed 1337" `Quick
            (test_attach_determinism 1337);
        ] );
      ( "load",
        [
          Alcotest.test_case "enqueue + decay" `Quick test_load_enqueue_decay;
          Alcotest.test_case "coalesced == iterated" `Quick
            test_load_coalesced_equals_iterated;
          Alcotest.test_case "utilisation clamps" `Quick
            test_load_utilisation_clamped;
          Alcotest.test_case "dequeue floor" `Quick test_load_dequeue_floor;
        ] );
      ( "credit2",
        [
          Alcotest.test_case "pick least" `Quick test_credit2_pick_least;
          Alcotest.test_case "reset on exhaustion" `Quick
            test_credit2_reset_when_exhausted;
          Alcotest.test_case "charge" `Quick test_credit2_charge;
          Alcotest.test_case "empty queue" `Quick test_credit2_empty;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs one task" `Quick test_executor_runs_one_task;
          Alcotest.test_case "timeslice rotation" `Quick
            test_executor_timeslice_rotation;
          Alcotest.test_case "least-credit priority" `Quick
            test_executor_least_credit_priority;
          Alcotest.test_case "validation" `Quick test_executor_validation;
          Alcotest.test_case "feeds attached P2SM plans" `Quick
            test_executor_feeds_psm_plans;
        ] );
      ( "pelt",
        [
          Alcotest.test_case "decay halves at 32" `Quick
            test_pelt_decay_halves_at_32;
          Alcotest.test_case "decay monotone" `Quick test_pelt_decay_monotone;
          Alcotest.test_case "table bounds" `Quick test_pelt_table_bounds;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "create" `Quick test_scheduler_create;
          Alcotest.test_case "ull_count validation" `Quick
            test_scheduler_ull_count_validation;
          Alcotest.test_case "select_normal spreads" `Quick
            test_scheduler_select_normal_spreads;
          Alcotest.test_case "ull balance" `Quick test_scheduler_ull_balance;
          Alcotest.test_case "detach guard" `Quick test_scheduler_detach_guard;
          Alcotest.test_case "add ull queue" `Quick test_scheduler_add_ull;
          Alcotest.test_case "total queued" `Quick test_scheduler_total_queued;
        ] );
      ("properties", props);
    ]
