(* resume_storm: the paper's worst case at macro scale, in wall-clock.

   Usage:  storm.exe [--quick] [--json FILE]

   A fleet of uLL sandboxes is booted and paused with the Horse
   strategy, so every paused sandbox subscribes its P²SM maintenance
   callback to the single reserved ull_runqueue.  Four things are
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

   - trigger-path machinery: the one piece of the trigger path the
     simulation does not dilute — arrival closure vs batch row, boxed
     record + list cons vs arena row + packed log int, exact Sample vs
     streaming Quantile — through the real production types, as
     [storm:path:words-per-trigger].  (The whole trigger path end to
     end is measured in absolute words/op and ops/s by the storm
     workload of the repository benchmark.)

   `make bench-check` gates the path pair at >= 2x.  `dune runtest`
   runs `storm.exe --quick`, so the cluster-storm identity gate and
   the path p50 agreement check run at tier 1. *)

module Time = Horse_sim.Time_ns
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
  let quick = ref false in
  let json_path : string option ref = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "usage: storm.exe [--quick] [--json FILE] (got %S)\n" arg;
      exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
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
    ];
  (* ---------------------------------------------------------------- *)
  (* Trigger-path machinery in isolation                               *)
  (* ---------------------------------------------------------------- *)
  (* A whole simulated trigger is dominated by the simulation itself
     (the vmm resume, scheduler and P2SM maintenance allocate several
     hundred words per trigger whichever way triggers are carried), so
     this measures just the machinery the two styles disagree on,
     through the real production types and the same synthetic latency
     stream:
     boxed retains an arrival closure per trigger, then a boxed record
     tagged and consed per completion, with exact Sample percentiles
     over the reversed list — the pre-arena idiom; flat writes a batch
     row (3 int columns) per trigger, an arena row (7 int columns)
     plus a packed completion-log int per completion, and streams
     every latency into a fixed-size Quantile.  Both sides must agree
     on p50 (up to the P2 estimator) or the bench aborts. *)
  (* total words allocated, wherever they land: the arena's big column
     doublings go straight to the major heap and must be billed too *)
  let alloc_words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let measure f =
    Gc.full_major ();
    let w0 = alloc_words () in
    let result = f () in
    (result, alloc_words () -. w0)
  in
  let module Platform = Horse_faas.Platform in
  let module Arena = Horse_faas.Trigger_records in
  let module Batch = Horse_trace.Batch in
  let module Stats = Horse_sim.Stats in
  let path_n = if quick then 200_000 else 1_000_000 in
  let lat_ns k = 1_000 + ((k * 7919) mod 1_009) in
  let warm = Platform.Warm Sandbox.Horse in
  let fn_name = "ull" in
  let boxed_p50, boxed_path_w =
    measure (fun () ->
        let deliver at l completed =
          let triggered_at = Time.of_ns at in
          let zero = Time.span_ns 0 in
          let r =
            {
              Platform.function_name = fn_name;
              mode = warm;
              triggered_at;
              init = zero;
              exec = Time.span_ns l;
              preemption = zero;
              completed_at = Time.add triggered_at (Time.span_ns l);
            }
          in
          completed := (0, r) :: !completed
        in
        let arrivals =
          Array.init path_n (fun k ->
              let at = 10 * k and l = lat_ns k in
              fun completed -> deliver at l completed)
        in
        let completed = ref [] in
        Array.iter (fun arrive -> arrive completed) arrivals;
        let s = Stats.Sample.create () in
        List.iter
          (fun (_, r) ->
            Stats.Sample.add s
              (float_of_int (Time.span_to_ns (Platform.record_total r))
              /. 1e3))
          (List.rev !completed);
        Stats.Sample.percentile s 50.0)
  in
  let flat_p50, flat_path_w =
    measure (fun () ->
        let batch = Batch.create ~capacity:path_n () in
        for k = 0 to path_n - 1 do
          Batch.add batch ~at:(Time.span_ns (10 * k)) ~fn_id:0
            ~payload:(lat_ns k)
        done;
        let arena = Arena.create ~capacity:path_n () in
        let log = ref (Array.make 1024 0) in
        let log_len = ref 0 in
        let q = Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] () in
        for k = 0 to Batch.length batch - 1 do
          let l = Batch.payload batch k in
          let triggered_at = Time.of_ns (Batch.time_ns batch k) in
          let zero = Time.span_ns 0 in
          let h =
            Arena.append arena ~fn_id:(Batch.fn_id batch k) ~mode:0
              ~triggered_at ~init:zero ~exec:(Time.span_ns l)
              ~preemption:zero
              ~completed_at:(Time.add triggered_at (Time.span_ns l))
          in
          let slot = Arena.slot arena h in
          if !log_len = Array.length !log then begin
            let bigger = Array.make (2 * !log_len) 0 in
            Array.blit !log 0 bigger 0 !log_len;
            log := bigger
          end;
          !log.(!log_len) <- slot lsl 1;
          incr log_len;
          Stats.Quantile.add q
            (float_of_int (Arena.total_ns arena slot) /. 1e3)
        done;
        Stats.Quantile.percentile q 50.0)
  in
  let rel_diff =
    if boxed_p50 = 0.0 then Float.abs flat_p50
    else Float.abs (boxed_p50 -. flat_p50) /. boxed_p50
  in
  if rel_diff > 0.05 then begin
    Printf.eprintf
      "storm path: exact Sample p50 %.3fus and streaming Quantile p50 \
       %.3fus diverged — the two aggregation paths disagree\n"
      boxed_p50 flat_p50;
    exit 1
  end;
  let pn = float_of_int path_n in
  Report.print
    ~caption:
      (Printf.sprintf
         "trigger-path machinery, %d triggers: the per-trigger words \
          each style allocates on top of the shared simulation \
          (arrival representation, completion record, completion log, \
          latency aggregation).  p50 agreed within %.2f%%."
         path_n (100.0 *. rel_diff))
    ~header:[ "measurement"; "boxed"; "flat"; "improvement" ]
    [
      [
        "path words/trigger";
        Printf.sprintf "%.1fw" (boxed_path_w /. pn);
        Printf.sprintf "%.1fw" (flat_path_w /. pn);
        Report.ratio
          (if flat_path_w > 0.0 then boxed_path_w /. flat_path_w else 1.0);
      ];
      [
        "p50 latency";
        Report.ns (boxed_p50 *. 1e3);
        Report.ns (flat_p50 *. 1e3);
        "";
      ];
    ];
  match !json_path with
  | None -> ()
  | Some path ->
    Report.write_json ~path ~jobs:1
      [
        {
          Report.t_name = "storm:path:words-per-trigger";
          t_jobs = 1;
          t_wall_seq_s = boxed_path_w /. pn;
          t_wall_par_s = flat_path_w /. pn;
          t_meta = [];
        };
      ]
