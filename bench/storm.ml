(* resume_storm: the paper's worst case at macro scale, in wall-clock.

   Usage:  storm.exe [--quick]

   A fleet of uLL sandboxes is booted and paused with the Horse
   strategy, so every paused sandbox subscribes its P²SM maintenance
   callback to the single reserved ull_runqueue.  Three things are
   measured, all in real time (not the simulator's virtual clock):

   - churn: enqueue/dequeue of probe vCPUs on the ull_runqueue while
     0, 100 and N sandboxes are subscribed.  The per-mutation cost
     must grow only by the per-subscriber callback (a few ns:
     note_target_insert / note_remove on flat arrays, nothing
     allocated), never by a walk.

   - the storm itself: all N sandboxes resume back-to-back onto the
     same queue.  Each resume is timed individually; comparing the
     first decile (almost N subscribers still attached) with the last
     (almost none) shows how much of a resume depends on the number
     of bystanders.  The virtual-time merge cost from the cost-model
     breakdown is reported alongside: it is driven by the plan's
     precomputed walk counts, so it must be flat by construction.

   - cluster storm: the same trigger storm at cluster scale on the
     sharded engine — one warm-trigger burst over a multi-server
     cluster ({!Horse.Scenario}), run once sequentially (shards = 1)
     and once sharded.  The rows must be bit-identical
     ({!Horse.Scenario.identical}; the run aborts if not); only the
     run-phase wall-clock may differ, and both are reported.

   The whole trigger path is budgeted end to end, in absolute words/op
   and ops/s, by the storm workload of the repository benchmark.
   `dune runtest` runs `storm.exe --quick`, so the cluster-storm
   identity gate runs at tier 1. *)

module Metrics = Horse_sim.Metrics
module Rng = Horse_sim.Rng
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Vcpu = Horse_sched.Vcpu
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Report = Horse.Report

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Probe churn: [rounds] of enqueue-64-then-dequeue-64 on [queue],
   minimum total over [trials]; returns ns per mutation. *)
let churn_ns queue ~rounds ~trials =
  let batch = 64 in
  let rng = Rng.create ~seed:23 in
  let probes =
    Array.init batch (fun i ->
        Vcpu.create ~sandbox:(-1) ~index:i ~credit:(Rng.int rng 1_000_000) ())
  in
  let nodes = Array.make batch Horse_psm.Arena_list.nil in
  let round () =
    for i = 0 to batch - 1 do
      nodes.(i) <- fst (Runqueue.enqueue queue probes.(i))
    done;
    for i = 0 to batch - 1 do
      ignore (Runqueue.dequeue queue nodes.(i))
    done
  in
  round () (* warm-up *);
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = now_ns () in
    for _ = 1 to rounds do
      round ()
    done;
    let dt = now_ns () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int (2 * batch * rounds)

let () =
  let quick =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> false
    | [ "--quick" ] -> true
    | arg :: _ ->
      Printf.eprintf "usage: storm.exe [--quick] (got %S)\n" arg;
      exit 1
  in
  let n = if quick then 200 else 1000 in
  let mid = min 100 n in
  let trials = if quick then 3 else 5 in
  let rounds = if quick then 20 else 50 in
  let scheduler = Scheduler.create ~topology:Topology.r650 () in
  let metrics = Metrics.create () in
  let vmm = Vmm.create ~jitter:0.0 ~scheduler ~metrics () in
  let queue =
    match Scheduler.ull_runqueues scheduler with
    | q :: _ -> q
    | [] -> assert false
  in
  let sandboxes =
    Array.init n (fun i ->
        Sandbox.create ~id:(i + 1) ~vcpus:2 ~memory_mb:128 ~ull:true ())
  in
  Array.iter (fun sb -> ignore (Vmm.boot vmm sb)) sandboxes;
  (* churn with a growing subscriber population *)
  let churn0 = churn_ns queue ~rounds ~trials in
  for i = 0 to mid - 1 do
    ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sandboxes.(i))
  done;
  let churn_mid = churn_ns queue ~rounds ~trials in
  for i = mid to n - 1 do
    ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sandboxes.(i))
  done;
  let churn_full = churn_ns queue ~rounds ~trials in
  let per_sub = (churn_full -. churn0) /. float_of_int n in
  (* the storm: resume everyone, timing each resume *)
  let wall = Array.make n 0.0 in
  let virt = Array.make n 0.0 in
  let t_storm0 = now_ns () in
  Array.iteri
    (fun i sb ->
      let t0 = now_ns () in
      let r = Vmm.resume vmm sb in
      wall.(i) <- now_ns () -. t0;
      virt.(i) <- Vmm.breakdown_total_ns r.Vmm.breakdown)
    sandboxes;
  let storm_wall = now_ns () -. t_storm0 in
  let mean a lo hi =
    let s = ref 0.0 in
    for i = lo to hi - 1 do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo)
  in
  let decile = max 1 (n / 10) in
  let maintenance = Metrics.counter metrics "psm.maintenance_events" in
  Report.print
    ~caption:
      (Printf.sprintf
         "resume_storm: %d paused uLL sandboxes (2 vCPUs each) on one \
          ull_runqueue.  Churn rows: wall ns per queue mutation as the \
          subscriber population grows — the growth is the per-subscriber \
          callback, not a walk.  Storm rows: wall ns per resume in the \
          first vs last decile (%d vs ~0 bystander subscribers), plus \
          the flat virtual-time cost the calibrated model assigns."
         n n)
    ~header:[ "measurement"; "value" ]
    [
      [ "churn ns/mutation, 0 subscribers"; Report.ns churn0 ];
      [
        Printf.sprintf "churn ns/mutation, %d subscribers" mid;
        Report.ns churn_mid;
      ];
      [
        Printf.sprintf "churn ns/mutation, %d subscribers" n;
        Report.ns churn_full;
      ];
      [ "notify marginal ns/subscriber"; Report.ns (Float.max 0.0 per_sub) ];
      [
        Printf.sprintf "resume wall ns, first %d (most subscribers)" decile;
        Report.ns (mean wall 0 decile);
      ];
      [
        Printf.sprintf "resume wall ns, last %d (fewest subscribers)" decile;
        Report.ns (mean wall (n - decile) n);
      ];
      [ "resume wall ns, overall mean"; Report.ns (mean wall 0 n) ];
      [ "resume virtual ns, overall mean"; Report.ns (mean virt 0 n) ];
      [
        "storm total / resumes per second";
        Printf.sprintf "%s / %.0f" (Report.ns storm_wall)
          (float_of_int n /. (storm_wall /. 1e9));
      ];
      [ "maintenance callbacks delivered"; string_of_int maintenance ];
      [
        "final ull_runqueue length";
        string_of_int (Runqueue.length queue);
      ];
    ];
  (* ---------------------------------------------------------------- *)
  (* Cluster storm on the sharded engine                               *)
  (* ---------------------------------------------------------------- *)
  let module Scenario = Horse.Scenario in
  let servers, sandboxes, triggers =
    if quick then (4, 2_000, 500) else (8, 16_000, 4_000)
  in
  let shards = max 4 (Horse_parallel.Pool.default_jobs ()) in
  let storm =
    {
      Scenario.default with
      servers;
      sandboxes;
      arrivals = Scenario.Uniform triggers;
    }
  in
  let walls = ref [] in
  let run s =
    let row, wall = Scenario.run_timed s in
    walls := wall :: !walls;
    row
  in
  let sequential =
    match
      Scenario.identical ~run [ storm; { storm with shards } ]
    with
    | Ok rows -> List.hd rows
    | Error msg ->
      prerr_endline ("cluster storm: " ^ msg);
      exit 1
  in
  let wall_par, wall_seq =
    match !walls with [ p; s ] -> (p *. 1e9, s *. 1e9) | _ -> assert false
  in
  Report.print
    ~caption:
      (Printf.sprintf
         "cluster storm: %d warm triggers over %d parked HORSE sandboxes \
          on %d servers, sequential vs %d-shard engine.  Rows verified \
          bit-identical; wall-clock is the only difference."
         triggers sandboxes servers shards)
    ~header:[ "measurement"; "value" ]
    [
      [ "completed"; string_of_int sequential.completed ];
      [ "rejected"; string_of_int sequential.rejected ];
      [ "p99 latency"; Report.ns (sequential.service.p99_us *. 1e3) ];
      [ "epochs"; string_of_int sequential.sync.epochs ];
      [ "cross-shard messages"; string_of_int sequential.messages ];
      [ "run wall, shards=1"; Report.ns wall_seq ];
      [ Printf.sprintf "run wall, shards=%d" shards; Report.ns wall_par ];
      [
        "speedup";
        Report.ratio (if wall_par > 0.0 then wall_seq /. wall_par else 1.0);
      ];
    ]
