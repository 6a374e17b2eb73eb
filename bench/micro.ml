(* Hot-path microbenchmarks: ns/op and words/op for the event core and
   the pool dispatch path.

   Usage:  micro.exe [--quick] [--json FILE]

   Each benchmark is reported as a (baseline, optimised) pair in the
   horse-bench/1 schema — the baseline lands in [wall_seq_s], the
   optimised implementation in [wall_par_s], so the schema's "speedup"
   field reads as "times better than the baseline":

   - [micro:eq-*]    flat Event_queue vs the boxed-cell
                     Event_queue_reference, ns per event
   - [alloc:eq-*]    the same pair, minor-heap words per event
                     (`make bench-check` requires >= 2x here)
   - [micro:pool:*]  shared-pool dispatch, ns per trivial task,
                     chunk 1 vs chunk 32
   - [micro:rq-*]    arena-backed Runqueue vs a reconstruction of the
                     boxed run queue it replaced (Linked_list +
                     Hashtbl subscribers + per-mutation change
                     record): enqueue/dequeue ns and notify fan-out
                     ns per subscriber
   - [alloc:rq-*]    the same pair, minor words per queue mutation
                     (gated >= 2x)
   - [flat:rq-*]     dequeue-by-node latency growth from n=64 to
                     n=1024, baseline growth over arena growth (gated
                     >= 2x: the arena queue must scale at least twice
                     as flat as the walking baseline)

   Methodology: every queue benchmark runs on a persistent queue in
   schedule-a-batch / drain-a-batch rounds with one untimed warm-up
   round, so the arrays have reached steady state and neither
   implementation is billed its cold-start growth.  Timings are the
   minimum over trials (the stable floor); allocation counts are exact
   [Gc.minor_words] deltas, which don't need a minimum. *)

module Time_ns = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Report = Horse.Report
module Pool = Horse_parallel.Pool

let quick = ref false

let json_path : string option ref = ref None

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Event queue: flat vs reference                                      *)
(* ------------------------------------------------------------------ *)

(* The operations both implementations share, so one bench body can
   drive either. *)
module type QUEUE = sig
  type 'a t

  type handle

  val create : unit -> 'a t

  val schedule : 'a t -> at:Time_ns.t -> 'a -> handle

  val cancel : 'a t -> handle -> bool

  val pop : 'a t -> (Time_ns.t * 'a) option
end

module Flat : QUEUE = Horse_sim.Event_queue

module Boxed : QUEUE = Horse_sim.Event_queue_reference

type cost = { ns_per_op : float; words_per_op : float }

(* [horizon] decides which structure the flat queue exercises: spans
   under its 4096ns near-window hit the timer-wheel ring, larger ones
   the 4-ary heap. *)
let eq_schedule_pop (module Q : QUEUE) ~batch ~rounds ~trials ~horizon =
  let offs =
    let rng = Rng.create ~seed:7 in
    Array.init batch (fun _ -> Rng.int rng horizon)
  in
  let q = Q.create () in
  let base = ref 0 in
  let round () =
    let b = !base in
    for i = 0 to batch - 1 do
      ignore (Q.schedule q ~at:(Time_ns.of_ns (b + offs.(i))) i)
    done;
    let rec drain () = match Q.pop q with Some _ -> drain () | None -> () in
    drain ();
    base := b + horizon
  in
  round () (* warm-up: grow arrays to steady state *);
  let best_ns = ref infinity in
  let words = ref 0.0 in
  for trial = 1 to trials do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to rounds do
      round ()
    done;
    let dt = now_ns () -. t0 in
    if dt < !best_ns then best_ns := dt;
    if trial = 1 then words := Gc.minor_words () -. w0
  done;
  let ops = float_of_int (batch * rounds) in
  { ns_per_op = !best_ns /. ops; words_per_op = !words /. ops }

(* schedule a batch, cancel all of it — no pops, so cancel cost is
   isolated (ring tombstone / heap sift for the flat queue, tombstone
   flag for the boxed one). *)
let eq_cancel (module Q : QUEUE) ~batch ~rounds ~trials ~horizon =
  let offs =
    let rng = Rng.create ~seed:11 in
    Array.init batch (fun _ -> Rng.int rng horizon)
  in
  let q = Q.create () in
  let handles = Array.make batch None in
  let base = ref 0 in
  let round () =
    let b = !base in
    for i = 0 to batch - 1 do
      handles.(i) <- Some (Q.schedule q ~at:(Time_ns.of_ns (b + offs.(i))) i)
    done;
    for i = 0 to batch - 1 do
      match handles.(i) with
      | Some h -> ignore (Q.cancel q h)
      | None -> ()
    done;
    (* the boxed queue only reclaims tombstones at pop time *)
    let rec drain () = match Q.pop q with Some _ -> drain () | None -> () in
    drain ();
    base := b + horizon
  in
  round ();
  let best_ns = ref infinity in
  for _ = 1 to trials do
    let t0 = now_ns () in
    for _ = 1 to rounds do
      round ()
    done;
    let dt = now_ns () -. t0 in
    if dt < !best_ns then best_ns := dt
  done;
  { ns_per_op = !best_ns /. float_of_int (batch * rounds); words_per_op = 0.0 }

(* ------------------------------------------------------------------ *)
(* Pool dispatch latency                                               *)
(* ------------------------------------------------------------------ *)

(* Trivial tasks, so the measured time IS the dispatch machinery:
   deque push + wake-up + steal + completion accounting, per task. *)
let pool_dispatch ~jobs ~chunk ~ntasks ~trials =
  let pool = Pool.shared ~jobs () in
  let tasks = List.init ntasks (fun i () -> i) in
  ignore (Pool.run_list ~chunk pool tasks) (* warm-up *);
  let best_ns = ref infinity in
  for _ = 1 to trials do
    let t0 = now_ns () in
    ignore (Pool.run_list ~chunk pool tasks);
    let dt = now_ns () -. t0 in
    if dt < !best_ns then best_ns := dt
  done;
  !best_ns /. float_of_int ntasks

(* ------------------------------------------------------------------ *)
(* Run queue: arena substrate vs the boxed design it replaced          *)
(* ------------------------------------------------------------------ *)

module Vcpu = Horse_sched.Vcpu
module Runqueue = Horse_sched.Runqueue

(* Reconstruction of the pre-arena run queue, kept here as the
   baseline: a boxed sorted linked list, a [Hashtbl] of subscriber
   callbacks, and a change record allocated for every mutation. *)
module Boxed_rq = struct
  module Ll = Horse_psm.Linked_list

  type change =
    | Inserted of { pos : int; node : Vcpu.t Ll.node }
    | Removed of { pos : int }

  type t = {
    queue : Vcpu.t Ll.t;
    subs : (int, change -> unit) Hashtbl.t;
    mutable next_sub : int;
  }

  let create () =
    {
      queue = Ll.create ~compare:Vcpu.compare_credit ();
      subs = Hashtbl.create 8;
      next_sub = 0;
    }

  let notify t change = Hashtbl.iter (fun _ f -> f change) t.subs

  let subscribe t f =
    let id = t.next_sub in
    t.next_sub <- id + 1;
    Hashtbl.replace t.subs id f

  let enqueue t vcpu =
    let node, steps = Ll.insert_sorted t.queue vcpu in
    Vcpu.set_state vcpu Vcpu.Queued;
    notify t (Inserted { pos = steps; node });
    node

  let dequeue t node =
    let vcpu = Ll.value node in
    let pos = Ll.remove_node t.queue node in
    Vcpu.set_state vcpu Vcpu.Offline;
    notify t (Removed { pos });
    pos
end

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
   node (timed separately) then re-enqueues every vCPU.  One run gives
   enqueue ns, dequeue-by-node ns, and minor words per mutation. *)
let rq_churn_boxed ~n ~subs ~rounds ~trials =
  let q = Boxed_rq.create () in
  for _ = 1 to subs do
    Boxed_rq.subscribe q (fun change ->
        rq_sink :=
          !rq_sink
          +
          match change with
          | Boxed_rq.Inserted { pos; _ } -> pos
          | Boxed_rq.Removed { pos } -> pos)
  done;
  let vcpus = rq_vcpus n in
  let nodes = Array.map (Boxed_rq.enqueue q) vcpus (* warm-up fill *) in
  let best = ref infinity in
  let enq_ns = ref 0.0 and deq_ns = ref 0.0 and words = ref 0.0 in
  for trial = 1 to trials do
    let e = ref 0.0 and d = ref 0.0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      let t0 = now_ns () in
      for i = 0 to n - 1 do
        ignore (Boxed_rq.dequeue q nodes.(i))
      done;
      let t1 = now_ns () in
      for i = 0 to n - 1 do
        nodes.(i) <- Boxed_rq.enqueue q vcpus.(i)
      done;
      let t2 = now_ns () in
      d := !d +. (t1 -. t0);
      e := !e +. (t2 -. t1)
    done;
    if trial = 1 then words := Gc.minor_words () -. w0;
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
    words_per_mut = !words /. (2.0 *. ops);
  }

let rq_churn_arena ~n ~subs ~rounds ~trials =
  let q = Runqueue.create ~cpu:0 ~id:0 () in
  for _ = 1 to subs do
    ignore
      (Runqueue.subscribe q (fun _event ~pos ~node:_ ->
           rq_sink := !rq_sink + pos))
  done;
  let vcpus = rq_vcpus n in
  let nodes = Array.map (fun v -> fst (Runqueue.enqueue q v)) vcpus in
  let best = ref infinity in
  let enq_ns = ref 0.0 and deq_ns = ref 0.0 and words = ref 0.0 in
  for trial = 1 to trials do
    let e = ref 0.0 and d = ref 0.0 in
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      let t0 = now_ns () in
      for i = 0 to n - 1 do
        ignore (Runqueue.dequeue q nodes.(i))
      done;
      let t1 = now_ns () in
      for i = 0 to n - 1 do
        nodes.(i) <- fst (Runqueue.enqueue q vcpus.(i))
      done;
      let t2 = now_ns () in
      d := !d +. (t1 -. t0);
      e := !e +. (t2 -. t1)
    done;
    if trial = 1 then words := Gc.minor_words () -. w0;
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
    words_per_mut = !words /. (2.0 *. ops);
  }

(* ------------------------------------------------------------------ *)
(* Router decide path: policy decisions against the mirror view        *)
(* ------------------------------------------------------------------ *)

module Cluster = Horse_faas.Cluster

(* A synthetic mirror view shaped like the router's: flat per-server
   arrays for live/warm/busy, all servers healthy.  [least] selects
   the [v_least_loaded] implementation — the linear executable spec
   (what [decide] costs without the load index) or the O(1) cached
   answer the sharded router's [Load_index] provides. *)
let mirror_view ~servers ~least =
  let live = Array.init servers (fun i -> i * 5 mod 7) in
  let warm = Array.init servers (fun i -> 1 + (i * 3 mod 4)) in
  let busy = Array.init servers (fun i -> i * 11 mod 32) in
  let linear () =
    let best = ref (-1) in
    for s = 0 to servers - 1 do
      if !best < 0 || live.(s) < live.(!best) then best := s
    done;
    if !best < 0 then None else Some !best
  in
  let least_loaded =
    match least with
    | `Linear -> linear
    | `Indexed ->
      let cached = linear () in
      fun () -> cached
  in
  {
    Cluster.Policy.v_healthy = Array.make servers true;
    v_live = live;
    v_warm = warm;
    v_busy = busy;
    v_total_vcpus = 144;
    v_pending = (fun () -> 0);
    v_least_loaded = least_loaded;
  }

(* ns and minor words per decision on a steady-state router: [batch]
   decides per round against an unchanging view.  The pull policy
   spends a claim token per [Assign], so each decide is paired with a
   completion notification minting one back — that pair is pull's
   actual per-trigger hot path; push and core are pure reads. *)
let decide_cost policy ~servers ~least ~batch ~rounds ~trials =
  let inst = Cluster.Policy.instantiate policy ~servers in
  let view = mirror_view ~servers ~least in
  let notify = Cluster.Policy.name policy = "pull" in
  let sink = ref 0 in
  let round () =
    for i = 0 to batch - 1 do
      (match inst.Cluster.Policy.decide view ~vcpus:2 ~needs_pool:true with
      | Cluster.Policy.Assign s -> sink := !sink + s
      | Cluster.Policy.Enqueue -> incr sink);
      if notify then
        sink :=
          !sink
          + List.length
              (inst.Cluster.Policy.on_completion view ~server:(i mod servers))
    done
  in
  round () (* warm-up *);
  let best_ns = ref infinity in
  let words = ref 0.0 in
  for trial = 1 to trials do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for _ = 1 to rounds do
      round ()
    done;
    let dt = now_ns () -. t0 in
    if dt < !best_ns then best_ns := dt;
    if trial = 1 then words := Gc.minor_words () -. w0
  done;
  let ops = float_of_int (batch * rounds) in
  { ns_per_op = !best_ns /. ops; words_per_op = !words /. ops }

(* ------------------------------------------------------------------ *)

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: micro.exe [--quick] [--json FILE] (got %S)\n" arg;
      exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let trials = if !quick then 3 else 7 in
  let rounds = if !quick then 20 else 100 in
  let batch = 1024 in
  let near = 2048 (* inside the flat queue's 4096ns ring window *) in
  let far = 10_000_000 (* far beyond it: the 4-ary heap path *) in
  let pair name ~baseline ~flat =
    {
      Report.t_name = name;
      t_jobs = 1;
      t_wall_seq_s = baseline;
      t_wall_par_s = flat;
      t_meta = [];
    }
  in
  let eq name horizon =
    let boxed =
      eq_schedule_pop (module Boxed) ~batch ~rounds ~trials ~horizon
    in
    let flat = eq_schedule_pop (module Flat) ~batch ~rounds ~trials ~horizon in
    [
      pair
        (Printf.sprintf "micro:eq-%s:ns-per-event" name)
        ~baseline:boxed.ns_per_op ~flat:flat.ns_per_op;
      pair
        (Printf.sprintf "alloc:eq-%s:words-per-event" name)
        ~baseline:boxed.words_per_op ~flat:flat.words_per_op;
    ]
  in
  let cancels =
    let boxed =
      eq_cancel (module Boxed) ~batch ~rounds ~trials ~horizon:far
    in
    let flat = eq_cancel (module Flat) ~batch ~rounds ~trials ~horizon:far in
    [
      pair "micro:eq-cancel:ns-per-op" ~baseline:boxed.ns_per_op
        ~flat:flat.ns_per_op;
    ]
  in
  let pool =
    let jobs = 4 and ntasks = if !quick then 512 else 4096 in
    let fine = pool_dispatch ~jobs ~chunk:1 ~ntasks ~trials in
    let coarse = pool_dispatch ~jobs ~chunk:32 ~ntasks ~trials in
    [ pair "micro:pool:dispatch-ns-per-task" ~baseline:fine ~flat:coarse ]
  in
  let rq =
    let n = 256 and fan = 64 in
    let b0 = rq_churn_boxed ~n ~subs:0 ~rounds ~trials in
    let f0 = rq_churn_arena ~n ~subs:0 ~rounds ~trials in
    let b8 = rq_churn_boxed ~n ~subs:fan ~rounds ~trials in
    let f8 = rq_churn_arena ~n ~subs:fan ~rounds ~trials in
    (* fan-out cost: what each extra subscriber adds to a mutation *)
    let per_sub c8 c0 =
      Float.max 0.01
        ((c8.enq_ns +. c8.deq_ns -. c0.enq_ns -. c0.deq_ns)
        /. float_of_int fan)
    in
    (* flatness: how much dequeue-by-node slows down when the queue
       grows 16x.  A walking baseline degrades ~linearly; the arena's
       growth must stay at least 2x flatter. *)
    let b_small = rq_churn_boxed ~n:64 ~subs:0 ~rounds ~trials in
    let b_large = rq_churn_boxed ~n:1024 ~subs:0 ~rounds ~trials in
    let f_small = rq_churn_arena ~n:64 ~subs:0 ~rounds ~trials in
    let f_large = rq_churn_arena ~n:1024 ~subs:0 ~rounds ~trials in
    [
      pair "micro:rq-enqueue:ns-per-op" ~baseline:b0.enq_ns ~flat:f0.enq_ns;
      pair "micro:rq-dequeue:ns-per-op" ~baseline:b0.deq_ns ~flat:f0.deq_ns;
      pair "micro:rq-notify:ns-per-sub" ~baseline:(per_sub b8 b0)
        ~flat:(per_sub f8 f0);
      pair "alloc:rq-mutation:words-per-mutation" ~baseline:b8.words_per_mut
        ~flat:f8.words_per_mut;
      pair "flat:rq-dequeue:growth-64-to-1024"
        ~baseline:(b_large.deq_ns /. b_small.deq_ns)
        ~flat:(f_large.deq_ns /. f_small.deq_ns);
    ]
  in
  let router =
    let servers = 8 in
    List.concat_map
      (fun policy ->
        let label = Cluster.Policy.name policy in
        let linear =
          decide_cost policy ~servers ~least:`Linear ~batch ~rounds ~trials
        in
        let indexed =
          decide_cost policy ~servers ~least:`Indexed ~batch ~rounds ~trials
        in
        [
          pair
            (Printf.sprintf "micro:router:decide-%s:ns-per-decide" label)
            ~baseline:linear.ns_per_op ~flat:indexed.ns_per_op;
          pair
            (Printf.sprintf "micro:router:decide-%s:words-per-decide" label)
            ~baseline:linear.words_per_op ~flat:indexed.words_per_op;
        ])
      (Cluster.Policy.builtins ())
  in
  let timings = eq "near" near @ eq "far" far @ cancels @ pool @ rq @ router in
  Report.print
    ~caption:
      "Event core: flat arena+ring+4-ary-heap queue vs the boxed-cell \
       reference; pool: per-task dispatch cost, chunk 1 vs 32; run \
       queue: arena Runqueue vs the boxed list+Hashtbl design.  \
       'baseline/new' is ns (or minor words, or a growth factor) per \
       operation."
    ~header:[ "benchmark"; "baseline"; "new"; "improvement" ]
    (List.map
       (fun t ->
         let prefixed p =
           String.length t.Report.t_name >= String.length p
           && String.sub t.Report.t_name 0 (String.length p) = p
         in
         let words =
           let n = t.Report.t_name and sub = ":words" in
           let nl = String.length n and sl = String.length sub in
           let rec at i = i + sl <= nl && (String.sub n i sl = sub || at (i + 1)) in
           at 0
         in
         let fmt v =
           if prefixed "alloc" || words then Printf.sprintf "%.1fw" v
           else if prefixed "flat" then Printf.sprintf "%.2fx" v
           else Report.ns v
         in
         [
           t.Report.t_name;
           fmt t.Report.t_wall_seq_s;
           fmt t.Report.t_wall_par_s;
           Report.ratio (Report.speedup t);
         ])
       timings);
  match !json_path with
  | None -> ()
  | Some path -> Report.write_json ~path ~jobs:1 timings
