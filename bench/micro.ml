(* Hot-path microbenchmarks of the production structures: the event
   queue, the pool dispatch path, the arena run queue and the router's
   decide path.  Each row reports one implementation's absolute value
   with its unit.

   Usage:  micro.exe [--quick]

   [budgets] is the gate: each entry caps one row (value <= budget),
   and the run exits non-zero naming every row over its budget.  The
   word budgets are exact counts, identical in the dev and release
   profiles; the growth budget is the queue-size ratio itself, the
   growth a per-element walk would show.  `dune runtest` runs
   `micro.exe --quick`; `make perf` runs the full-length trials.

   Methodology: every benchmark runs on a persistent structure in
   rounds (schedule-a-batch / drain-a-batch for the queues) after one
   untimed warm-up round, so the arrays have reached steady state and
   no row is billed its cold-start growth.  Timings are the minimum
   over trials (the stable floor); word counts come from one untimed
   pass and need no minimum. *)

(* Ceilings for the gated rows: the values measured when the budgets
   were set, in words per operation (or a growth factor). *)
let budgets =
  [
    ("eq-near:words-per-event", 5.2);
    ("eq-far:words-per-event", 5.0);
    ("rq-mutation:words-per-mutation", 3.0);
    ("router:decide-push-warm-first:words-per-decide", 2.0);
    ("router:decide-pull:words-per-decide", 6.0);
    ("router:decide-core:words-per-decide", 16.0);
    ("rq-dequeue:growth-64-to-1024", 16.0);
  ]

module Time_ns = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Report = Horse.Report
module Pool = Horse_parallel.Pool
module Eq = Horse_sim.Event_queue

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

(* [horizon] decides which structure the queue exercises: spans under
   its 4096ns near-window hit the ring, larger ones the 4-ary heap. *)
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
   cost (ring tombstone / heap sift) is isolated. *)
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
(* Pool dispatch latency                                               *)
(* ------------------------------------------------------------------ *)

(* Trivial tasks, so the measured time IS the dispatch machinery:
   deque push + wake-up + steal + completion accounting, per task. *)
let pool_dispatch ~jobs ~chunk ~ntasks ~trials =
  let pool = Pool.shared ~jobs () in
  let tasks = List.init ntasks (fun i () -> i) in
  (measure ~ops:ntasks ~rounds:1 ~trials (fun () ->
       ignore (Pool.run_list ~chunk pool tasks)))
    .ns_per_op

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

(* Keep subscriber callbacks honest: fold every notified position into
   a live accumulator so nothing is dead-code-eliminated. *)
let rq_sink = ref 0

(* Steady-state churn on a persistent queue: each round dequeues every
   node then re-enqueues every vCPU, the two halves timed separately.
   One run gives enqueue ns, dequeue-by-node ns, and words per
   mutation. *)
let rq_churn ~n ~subs ~rounds ~trials =
  let q = Runqueue.create ~cpu:0 ~id:0 () in
  for _ = 1 to subs do
    ignore
      (Runqueue.subscribe q (fun _event ~pos ~node:_ ->
           rq_sink := !rq_sink + pos))
  done;
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
  let best = ref infinity in
  let enq_ns = ref 0.0 and deq_ns = ref 0.0 in
  for _ = 1 to trials do
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
    if !e +. !d < !best then begin
      best := !e +. !d;
      enq_ns := !e;
      deq_ns := !d
    end
  done;
  let ops = float_of_int (n * rounds) in
  {
    enq_ns = !enq_ns /. ops;
    deq_ns = !deq_ns /. ops;
    words_per_mut = words /. (2.0 *. ops);
  }

(* ------------------------------------------------------------------ *)
(* Router decide path: policy decisions against the mirror view        *)
(* ------------------------------------------------------------------ *)

module Cluster = Horse_faas.Cluster

(* A synthetic mirror view shaped like the router's: flat per-server
   arrays for live/warm/busy, all servers healthy, and the O(1) cached
   least-loaded answer the sharded router's [Load_index] provides. *)
let mirror_view ~servers =
  let live = Array.init servers (fun i -> i * 5 mod 7) in
  let warm = Array.init servers (fun i -> 1 + (i * 3 mod 4)) in
  let busy = Array.init servers (fun i -> i * 11 mod 32) in
  let least =
    let best = ref 0 in
    Array.iteri (fun s l -> if l < live.(!best) then best := s) live;
    Some !best
  in
  {
    Cluster.Policy.v_healthy = Array.make servers true;
    v_live = live;
    v_warm = warm;
    v_busy = busy;
    v_total_vcpus = 144;
    v_pending = (fun () -> 0);
    v_least_loaded = (fun () -> least);
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
  let near = 2048 (* inside the queue's 4096ns ring window *) in
  let far = 10_000_000 (* far beyond it: the 4-ary heap path *) in
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
  let pool =
    let jobs = 4 and ntasks = if quick then 512 else 4096 in
    List.map
      (fun chunk ->
        ( Printf.sprintf "pool:dispatch-chunk%d:ns-per-task" chunk,
          Ns,
          pool_dispatch ~jobs ~chunk ~ntasks ~trials ))
      [ 1; 32 ]
  in
  let rq =
    let n = 256 and fan = 64 in
    let c0 = rq_churn ~n ~subs:0 ~rounds ~trials in
    let c64 = rq_churn ~n ~subs:fan ~rounds ~trials in
    (* fan-out cost: what each extra subscriber adds to a mutation *)
    let per_sub =
      Float.max 0.01
        ((c64.enq_ns +. c64.deq_ns -. c0.enq_ns -. c0.deq_ns)
        /. float_of_int fan)
    in
    (* flatness: how much dequeue-by-node slows down when the queue
       grows 16x; a per-element walk would grow ~16x *)
    let small = rq_churn ~n:64 ~subs:0 ~rounds ~trials in
    let large = rq_churn ~n:1024 ~subs:0 ~rounds ~trials in
    [
      ("rq-enqueue:ns-per-op", Ns, c0.enq_ns);
      ("rq-dequeue:ns-per-op", Ns, c0.deq_ns);
      ("rq-notify:ns-per-sub", Ns, per_sub);
      ("rq-mutation:words-per-mutation", Words, c64.words_per_mut);
      ("rq-dequeue:growth-64-to-1024", Growth, large.deq_ns /. small.deq_ns);
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
  let rows = eq "near" near @ eq "far" far @ cancel @ pool @ rq @ router in
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
       (ring + 4-ary heap), pool dispatch at chunk 1 and 32, arena run \
       queue, router decide per builtin policy.  Budgeted rows must stay \
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
