(* Wall-clock microbenchmarks of the real implementations: the event
   queue, the arena run queue, the router's decide path, the P²SM
   splice against the vanilla per-element merge, the coalesced load
   update against the iterated one, a VMM pause + resume cycle, a
   resume storm against a fleet of paused bystanders, and the three
   workload categories' real functions.  Each row reports one
   implementation's absolute value with its unit, or a ratio of two
   rows.

   Usage:  micro.exe [--quick]

   [budgets] is the gate: each entry caps one row (value <= budget),
   and the run exits non-zero naming every row over its budget.  The
   word budgets are exact counts, identical in the dev and release
   profiles; the other budgets are host-independent ratios, each with
   its reason beside it.  `dune runtest` runs `micro.exe --quick`;
   `make perf` runs the full-length trials.

   Methodology: every benchmark runs on a persistent structure in
   rounds (schedule-a-batch / drain-a-batch for the queues) after one
   untimed warm-up round, so the arrays have reached steady state and
   no row is billed its cold-start growth.  Timings are the minimum
   over trials (the stable floor); word counts come from one untimed
   pass and need no minimum.  The run-queue trials of all sizes are
   interleaved, so a ratio between two sizes compares passes that saw
   the same host load.  The merges consume their inputs and the resume
   storm its fleet, so those are built untimed per run instead; see
   [time_merges] and [resume_storm]. *)

(* Ceilings for the gated rows, in words per operation or as a ratio
   of two rows. *)
let budgets =
  [
    ("eq-near:words-per-event", 5.0);
    ("eq-far:words-per-event", 5.0);
    ("rq-mutation:words-per-mutation", 3.0);
    (* the 64-sandbox fleet's mean, 154.42 words since a sandbox's
       placement is two arrays written in place: lower it as the
       pause/resume path sheds allocations *)
    ("vmm:words-per-pause-resume", 154.5);
    ("router:decide-push-warm-first:words-per-decide", 2.0);
    ("router:decide-pull:words-per-decide", 6.0);
    ("router:decide-core:words-per-decide", 16.0);
    (* the queue grows 16x; a per-element walk would grow ~16x *)
    ("rq-dequeue:growth-64-to-1024", 16.0);
    (* the target grows 32x: half the growth a per-element walk would
       show.  The merge is one order-buffer pass that moves each
       target element from the first splice key on (here nearly all
       of them) with one read and two stores, against a walk's
       compare and pointer chase per element, plus the cache
       footprint *)
    ("psm-splice:growth-128-to-4096", 16.0);
    (* one multiply-add in place of 36 iterated steps; measured 0.04 *)
    ("load-coalesced:over-iterated-36", 0.25);
    (* a resume pays nothing per paused bystander: its plan is
       recomputed once, against a queue that holds only the vCPUs
       resumed before it (2 per resume, so a late resume searches a
       longer queue); 1.07-1.30x measured, so this is about 2x that *)
    ("resume-storm:first-over-last-decile", 2.5);
    (* the [Filter_matches] box of the outcome; the count itself is
       taken in place *)
    ("workload:cat3:words-per-run", 2.0);
  ]

module Time_ns = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Report = Horse.Report
module Eq = Horse_sim.Event_queue
module Category = Horse_workload.Category

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Every word allocated, wherever it lands: minor + major - promoted.
   A block above [Max_young_wosize] goes straight to the major heap and
   never shows in the minor count.  The minor count is [Gc.minor_words],
   which is exact; the counters' minor field lags until the next minor
   collection (the repository benchmark forces one before reading it). *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let words_of f =
  let w0 = alloc_words () in
  f ();
  alloc_words () -. w0

(* what [words_of] bills for reading the counters themselves *)
let counter_words = words_of ignore

type cost = { ns_per_op : float; words_per_op : float }

(* One untimed warm-up round, one untimed pass of [rounds] rounds
   counting words, then [trials] timed passes; [ops] operations per
   round. *)
let measure ~ops ~rounds ~trials round =
  let pass () =
    for _ = 1 to rounds do
      round ()
    done
  in
  round ();
  let words = words_of pass -. counter_words in
  let best_ns = ref infinity in
  for _ = 1 to trials do
    let t0 = now_ns () in
    pass ();
    best_ns := Float.min !best_ns (now_ns () -. t0)
  done;
  let ops = float_of_int (ops * rounds) in
  { ns_per_op = !best_ns /. ops; words_per_op = words /. ops }

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let offsets ~seed ~batch ~horizon =
  let rng = Rng.create ~seed in
  Array.init batch (fun _ -> Rng.int rng horizon)

let rec drain q = match Eq.pop q with Some _ -> drain q | None -> ()

(* [horizon] is the span a batch's timestamps are drawn from: near
   (2048 ns for 1024 events) makes equal timestamps common, so the
   heap's sequence tie-break does work; far (10 ms) makes them almost
   all distinct. *)
let eq_schedule_pop ~batch ~rounds ~trials ~horizon =
  let offs = offsets ~seed:7 ~batch ~horizon in
  let q = Eq.create () in
  let base = ref 0 in
  measure ~ops:batch ~rounds ~trials (fun () ->
      let b = !base in
      for i = 0 to batch - 1 do
        ignore (Eq.schedule q ~at:(Time_ns.of_ns (b + offs.(i))) i)
      done;
      drain q;
      base := b + horizon)

(* schedule a batch, cancel all of it — no live pops, so the cancel
   cost (a heap sift through the handle's slot) is isolated. *)
let eq_cancel ~batch ~rounds ~trials ~horizon =
  let offs = offsets ~seed:11 ~batch ~horizon in
  let q = Eq.create () in
  let handles = Array.make batch None in
  let base = ref 0 in
  measure ~ops:batch ~rounds ~trials (fun () ->
      let b = !base in
      for i = 0 to batch - 1 do
        handles.(i) <- Some (Eq.schedule q ~at:(Time_ns.of_ns (b + offs.(i))) i)
      done;
      Array.iter (Option.iter (fun h -> ignore (Eq.cancel q h))) handles;
      drain q;
      base := b + horizon)

(* ------------------------------------------------------------------ *)
(* Run queue                                                           *)
(* ------------------------------------------------------------------ *)

module Vcpu = Horse_sched.Vcpu
module Runqueue = Horse_sched.Runqueue

type rq_cost = { enq_ns : float; deq_ns : float; words_per_mut : float }

(* Distinct random credits so inserts land all over the queue and
   dequeues-by-node hit interior positions, like a resume storm does. *)
let rq_vcpus n =
  let rng = Rng.create ~seed:13 in
  Array.init n (fun i ->
      Vcpu.create ~sandbox:0 ~index:i ~credit:(Rng.int rng 1_000_000) ())

module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm

(* A ull_runqueue with [plans] sandboxes HORSE-paused against it: each
   attached plan is a real P²SM plan of 4 vCPUs with random credits,
   attached by the VMM's own pause, so every mutation counts their
   upkeep. *)
let paused_queue ~plans =
  let scheduler =
    Horse_sched.Scheduler.create ~ull_count:1
      ~topology:Horse_cpu.Topology.r650_smt ()
  in
  let vmm =
    Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Horse_sim.Metrics.create ()) ()
  in
  let rng = Rng.create ~seed:17 in
  for id = 1 to plans do
    let sb = Sandbox.create ~id ~vcpus:4 ~memory_mb:128 ~ull:true () in
    Array.iter
      (fun v -> Vcpu.set_credit v (Rng.int rng 1_000_000))
      (Sandbox.vcpus sb);
    ignore (Vmm.boot vmm sb);
    ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb)
  done;
  List.hd (Horse_sched.Scheduler.ull_runqueues scheduler)

(* Steady-state churn on a persistent queue of [n] vCPUs: each round
   dequeues every node then re-enqueues every vCPU.  The words come
   from one untimed pass; [trial] times one more pass, returning its
   dequeue and enqueue halves in ns. *)
type churn = { n : int; words : float; trial : unit -> float * float }

let rq_churn q ~n ~rounds =
  let vcpus = rq_vcpus n in
  let nodes = Array.map (fun v -> fst (Runqueue.enqueue q v)) vcpus in
  let dequeue_all () =
    for i = 0 to n - 1 do
      ignore (Runqueue.dequeue q nodes.(i))
    done
  and enqueue_all () =
    for i = 0 to n - 1 do
      nodes.(i) <- fst (Runqueue.enqueue q vcpus.(i))
    done
  in
  let words =
    words_of (fun () ->
        for _ = 1 to rounds do
          dequeue_all ();
          enqueue_all ()
        done)
    -. counter_words
  in
  let trial () =
    let e = ref 0.0 and d = ref 0.0 in
    for _ = 1 to rounds do
      let t0 = now_ns () in
      dequeue_all ();
      let t1 = now_ns () in
      enqueue_all ();
      let t2 = now_ns () in
      d := !d +. (t1 -. t0);
      e := !e +. (t2 -. t1)
    done;
    (!d, !e)
  in
  { n; words; trial }

(* [trials] timed passes of every churn, interleaved: trial k of each
   runs before trial k+1 of any, so every churn samples the same load
   phases of a busy host.  Each keeps its fastest pass (by total). *)
let time_churns ~rounds ~trials churns =
  let best = Array.map (fun _ -> (infinity, 0.0, 0.0)) churns in
  for _ = 1 to trials do
    Array.iteri
      (fun i c ->
        let d, e = c.trial () in
        let total, _, _ = best.(i) in
        if d +. e < total then best.(i) <- (d +. e, d, e))
      churns
  done;
  Array.mapi
    (fun i c ->
      let _, d, e = best.(i) in
      let ops = float_of_int (c.n * rounds) in
      {
        enq_ns = e /. ops;
        deq_ns = d /. ops;
        words_per_mut = c.words /. (2.0 *. ops);
      })
    churns

(* ------------------------------------------------------------------ *)
(* Router decide path: policy decisions against the mirror view        *)
(* ------------------------------------------------------------------ *)

module Cluster = Horse_faas.Cluster

(* A synthetic mirror view shaped like the router's: flat per-server
   arrays for live/warm/busy, all servers healthy. *)
let mirror_view ~servers =
  let live = Array.init servers (fun i -> i * 5 mod 7) in
  let warm = Array.init servers (fun i -> 1 + (i * 3 mod 4)) in
  let busy = Array.init servers (fun i -> i * 11 mod 32) in
  {
    Cluster.Policy.v_healthy = Array.make servers true;
    v_live = live;
    v_warm = warm;
    v_busy = busy;
    v_total_vcpus = 144;
    v_pending = (fun () -> 0);
  }

(* ns and words per decision on a steady-state router: [batch] decides
   per round against an unchanging view.  The pull policy spends a
   claim token per [Assign], so each decide is paired with a completion
   notification minting one back — that pair is pull's actual
   per-trigger hot path; push and core are pure reads. *)
let decide_cost policy ~servers ~batch ~rounds ~trials =
  let inst = Cluster.Policy.instantiate policy ~servers in
  let view = mirror_view ~servers in
  let notify = Cluster.Policy.name policy = "pull" in
  let sink = ref 0 in
  measure ~ops:batch ~rounds ~trials (fun () ->
      for i = 0 to batch - 1 do
        (match inst.Cluster.Policy.decide view ~vcpus:2 ~needs_pool:true with
        | Cluster.Policy.Assign s -> sink := !sink + s
        | Cluster.Policy.Enqueue -> incr sink);
        if notify then
          sink :=
            !sink
            + List.length
                (inst.Cluster.Policy.on_completion view ~server:(i mod servers))
      done)

(* ------------------------------------------------------------------ *)
(* Merges: the P²SM splice vs the vanilla per-element insertion        *)
(* ------------------------------------------------------------------ *)

module Al = Horse_psm.Arena_list
module Ll = Horse_psm.Linked_list
module Psm = Horse_psm.Psm
module Reference = Horse_psm.Reference

(* the merged sandbox's vCPU count: the paper's largest, 36 *)
let merge_source = 36

let sorted_ints rng n =
  List.sort Int.compare (List.init n (fun _ -> Rng.int rng 1_000_000))

(* Both merges consume their inputs, so each run gets an instance of
   its own, built untimed beforehand; every run is timed alone and the
   median is kept.  The two target sizes take turns run by run, so
   their ratio compares runs that saw the same host load.  Returns the
   medians into 128 and into 4096 target elements. *)
let time_merges ~batch ~build ~run =
  let rng = Rng.create ~seed:17 in
  let instances target_len =
    Array.init batch (fun _ ->
        build (sorted_ints rng merge_source) (sorted_ints rng target_len))
  in
  let small = instances 128 in
  let large = instances 4096 in
  let ns_small = Array.make batch 0.0 and ns_large = Array.make batch 0.0 in
  let time ns instances i =
    let t0 = now_ns () in
    run instances.(i);
    ns.(i) <- now_ns () -. t0
  in
  for i = 0 to batch - 1 do
    time ns_small small i;
    time ns_large large i
  done;
  let median ns =
    Array.sort Float.compare ns;
    ns.(batch / 2)
  in
  (median ns_small, median ns_large)

let psm_splice ~batch =
  time_merges ~batch
    ~build:(fun a b ->
      let arena =
        Al.create_arena
          ~capacity:(List.length a + List.length b)
          ~compare:Int.compare ()
      in
      let source = Al.of_sorted_list arena a
      and target = Al.of_sorted_list arena b in
      let plan = Psm.Plan.build ~source ~target in
      (* the precompute belongs to the pause, not to the timed splice *)
      ignore (Psm.Plan.key_count plan);
      (source, target, plan))
    ~run:(fun (source, target, plan) ->
      ignore (Psm.Plan.execute plan ~target ~source))

let sequential_merge ~batch =
  time_merges ~batch
    ~build:(fun a b ->
      ( Ll.of_sorted_list ~compare:Int.compare a,
        Ll.of_sorted_list ~compare:Int.compare b ))
    ~run:(fun (source, target) ->
      ignore (Reference.insert_each ~source ~target))

(* ------------------------------------------------------------------ *)
(* Load update: one coalesced step vs n iterated ones                  *)
(* ------------------------------------------------------------------ *)

module Coalesce = Horse_coalesce.Coalesce

(* [f] over [batch] distinct inputs per round, each result folded into
   a live accumulator so no call is dead code. *)
let load_sink = ref 0.0

let load_cost f ~batch ~rounds ~trials =
  (measure ~ops:batch ~rounds ~trials (fun () ->
       let acc = ref 0.0 in
       for i = 1 to batch do
         acc := !acc +. f (float_of_int i)
       done;
       load_sink := !acc))
    .ns_per_op

(* ------------------------------------------------------------------ *)
(* VMM: one HORSE pause + resume cycle                                 *)
(* ------------------------------------------------------------------ *)

(* [fleet] sandboxes of 1..8 vCPUs with random credits, HORSE-paused
   on one hypervisor; each round resumes then re-pauses every one, so
   the ull_runqueues hold the same steady mix every round.  One op is
   one sandbox's resume plus its pause. *)
let vmm_cycle ~fleet ~rounds ~trials =
  let scheduler =
    Horse_sched.Scheduler.create ~topology:Horse_cpu.Topology.r650_smt ()
  in
  let vmm =
    Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Horse_sim.Metrics.create ()) ()
  in
  let rng = Rng.create ~seed:19 in
  let sandboxes =
    Array.init fleet (fun i ->
        let sb =
          Sandbox.create ~id:(i + 1) ~vcpus:((i mod 8) + 1) ~memory_mb:128
            ~ull:true ()
        in
        Array.iter
          (fun v -> Vcpu.set_credit v (Rng.int rng 1_000_000))
          (Sandbox.vcpus sb);
        ignore (Vmm.boot vmm sb);
        ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
        sb)
  in
  measure ~ops:fleet ~rounds ~trials (fun () ->
      Array.iter
        (fun sb ->
          ignore (Vmm.resume vmm sb);
          ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
        sandboxes)

(* ------------------------------------------------------------------ *)
(* Resume storm: what a resume pays for its paused bystanders          *)
(* ------------------------------------------------------------------ *)

(* [n] 2-vCPU uLL sandboxes HORSE-paused against one ull_runqueue, then
   resumed back to back: the k-th resume still has [n - k - 1] paused
   bystanders, which cost it nothing but a larger counter increment,
   and merges into a queue of the [2k] vCPUs resumed before it.
   Returns the mean wall ns per resume of the first and of the last
   decile. *)
let resume_storm ~n =
  let scheduler =
    Horse_sched.Scheduler.create ~topology:Horse_cpu.Topology.r650 ()
  in
  let vmm =
    Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Horse_sim.Metrics.create ()) ()
  in
  let sandboxes =
    Array.init n (fun i ->
        Sandbox.create ~id:(i + 1) ~vcpus:2 ~memory_mb:128 ~ull:true ())
  in
  Array.iter (fun sb -> ignore (Vmm.boot vmm sb)) sandboxes;
  Array.iter
    (fun sb -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
    sandboxes;
  let wall = Array.make n 0.0 in
  Array.iteri
    (fun i sb ->
      let t0 = now_ns () in
      ignore (Vmm.resume vmm sb);
      wall.(i) <- now_ns () -. t0)
    sandboxes;
  let decile = n / 10 in
  let mean lo =
    Array.fold_left ( +. ) 0.0 (Array.sub wall lo decile) /. float_of_int decile
  in
  (mean 0, mean (n - decile))

(* ------------------------------------------------------------------ *)

type unit_ = Ns | Words | Growth

let show unit_ v =
  match unit_ with
  | Ns -> Report.ns v
  | Words -> Printf.sprintf "%.3fw" v
  | Growth -> Report.ratio v

let () =
  let quick =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--quick" ] -> true
    | arg :: _ ->
      Printf.eprintf "usage: micro.exe [--quick] (got %S)\n" arg;
      exit 1
  in
  let trials = if quick then 3 else 7 in
  let rounds = if quick then 20 else 100 in
  let batch = 1024 in
  let near = 2048 in
  let far = 10_000_000 in
  let eq name horizon =
    let c = eq_schedule_pop ~batch ~rounds ~trials ~horizon in
    [
      (Printf.sprintf "eq-%s:ns-per-event" name, Ns, c.ns_per_op);
      (Printf.sprintf "eq-%s:words-per-event" name, Words, c.words_per_op);
    ]
  in
  let cancel =
    let c = eq_cancel ~batch ~rounds ~trials ~horizon:far in
    [ ("eq-cancel:ns-per-op", Ns, c.ns_per_op) ]
  in
  let rq =
    let n = 256 and fan = 64 in
    let costs =
      time_churns ~rounds ~trials
        [|
          rq_churn (Runqueue.create ~cpu:0 ~id:0 ()) ~n ~rounds;
          rq_churn (paused_queue ~plans:fan) ~n ~rounds;
          rq_churn (Runqueue.create ~cpu:0 ~id:0 ()) ~n:64 ~rounds;
          rq_churn (Runqueue.create ~cpu:0 ~id:0 ()) ~n:1024 ~rounds;
        |]
    in
    let c0 = costs.(0) and psm = costs.(1) in
    let small = costs.(2) and large = costs.(3) in
    [
      ("rq-enqueue:ns-per-op", Ns, c0.enq_ns);
      ("rq-dequeue:ns-per-op", Ns, c0.deq_ns);
      (* the same churn with [fan] plans attached *)
      ("rq-mutation:words-per-mutation", Words, psm.words_per_mut);
      (* flatness: how much dequeue-by-node slows down when the queue
         grows 16x; a per-element walk would grow ~16x *)
      ("rq-dequeue:growth-64-to-1024", Growth, large.deq_ns /. small.deq_ns);
    ]
  in
  let vmm =
    let c = vmm_cycle ~fleet:64 ~rounds ~trials in
    [
      ("vmm:ns-per-pause-resume", Ns, c.ns_per_op);
      ("vmm:words-per-pause-resume", Words, c.words_per_op);
    ]
  in
  let router =
    List.concat_map
      (fun policy ->
        let label = Cluster.Policy.name policy in
        let c = decide_cost policy ~servers:8 ~batch ~rounds ~trials in
        [
          (Printf.sprintf "router:decide-%s:ns-per-decide" label, Ns, c.ns_per_op);
          ( Printf.sprintf "router:decide-%s:words-per-decide" label,
            Words,
            c.words_per_op );
        ])
      (Cluster.Policy.builtins ())
  in
  let merges =
    let batch = if quick then 31 else 101 in
    List.concat_map
      (fun (label, (small, large)) ->
        [
          (Printf.sprintf "%s:ns-36-into-128" label, Ns, small);
          (Printf.sprintf "%s:ns-36-into-4096" label, Ns, large);
          (Printf.sprintf "%s:growth-128-to-4096" label, Growth, large /. small);
        ])
      [
        ("psm-splice", psm_splice ~batch);
        ("psm-sequential", sequential_merge ~batch);
      ]
  in
  let load =
    let pelt = Coalesce.Affine.pelt in
    let pre =
      Coalesce.Precomputed.make ~alpha:pelt.alpha ~beta:pelt.beta
        ~n:merge_source
    in
    let iterated =
      load_cost ~batch ~rounds ~trials
        (Coalesce.Affine.iterate pelt merge_source)
    and coalesced =
      load_cost ~batch ~rounds ~trials (Coalesce.Precomputed.apply pre)
    in
    [
      ("load-iterated:ns-per-36-updates", Ns, iterated);
      ("load-coalesced:ns-per-update", Ns, coalesced);
      ("load-coalesced:over-iterated-36", Growth, coalesced /. iterated);
    ]
  in
  let storm =
    (* the same fleet in both modes, so one budget serves both; each
       decile keeps its fastest trial *)
    let first, last =
      List.fold_left
        (fun (f, l) (f', l') -> (Float.min f f', Float.min l l'))
        (infinity, infinity)
        (List.init trials (fun _ -> resume_storm ~n:200))
    in
    [
      ("resume-storm:ns-first-decile", Ns, first);
      ("resume-storm:ns-last-decile", Ns, last);
      ("resume-storm:first-over-last-decile", Growth, first /. last);
    ]
  in
  let workloads =
    List.concat_map
      (fun category ->
        let c =
          measure ~ops:16 ~rounds ~trials (fun () ->
              for _ = 1 to 16 do
                ignore (Sys.opaque_identity (Category.run_real category))
              done)
        in
        let name = Category.name category in
        [
          (Printf.sprintf "workload:%s:ns-per-run" name, Ns, c.ns_per_op);
          (Printf.sprintf "workload:%s:words-per-run" name, Words, c.words_per_op);
        ])
      Category.all
  in
  let rows =
    eq "near" near @ eq "far" far @ cancel @ rq @ router @ merges
    @ load @ vmm @ storm @ workloads
  in
  let failures =
    List.filter_map
      (fun (name, budget) ->
        match List.find_opt (fun (n, _, _) -> n = name) rows with
        | None -> Some (Printf.sprintf "budgeted row %s was not measured" name)
        | Some (_, _, value) when value > budget ->
          Some (Printf.sprintf "%s = %g over budget %g" name value budget)
        | Some _ -> None)
      budgets
  in
  Report.print
    ~caption:
      "Hot paths of the production structures: flat event queue \
       (4-ary heap), arena run queue, router decide per builtin \
       policy; P²SM splice vs sequential merge of 36 vCPUs, \
       coalesced vs 36 iterated load updates, a VMM pause + resume \
       cycle, a 200-sandbox resume storm, the real workload \
       functions.  Budgeted rows must stay \
       at or under their budget."
    ~header:[ "benchmark"; "value"; "budget" ]
    (List.map
       (fun (name, unit_, value) ->
         [
           name;
           show unit_ value;
           (match List.assoc_opt name budgets with
           | Some budget -> "<= " ^ show unit_ budget
           | None -> "");
         ])
       rows);
  List.iter (Printf.eprintf "micro: %s\n") failures;
  if failures <> [] then exit 1
