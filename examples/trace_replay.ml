(* Trace replay: drive the platform with an Azure-shaped workload.

     dune exec examples/trace_replay.exe [minutes]

   Generates a synthetic trace with the Azure dataset's statistical
   shape (heavy-tailed function popularity, Poisson minutes, diurnal
   cycle), registers one function per trace row, and replays a window
   under the platform's keep-alive policy.  Prints the cold/warm
   split and latency percentiles per function class — the
   "warm starts are not enough" story of §2 in numbers. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Stats = Horse_sim.Stats
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Azure = Horse_trace.Azure
module Synthetic = Horse_trace.Synthetic
module Arrivals = Horse_trace.Arrivals
module Category = Horse_workload.Category
module Report = Horse.Report

let () =
  let minutes =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let engine = Engine.create ~seed:3 () in
  let platform =
    Platform.create ~engine ~keep_alive:(Time.span_s 60.0) ~seed:3 ()
  in
  (* a representative mix: a few hot functions, some medium, many
     rarely-invoked — the skew the Azure dataset exhibits *)
  let trace_rng = Rng.create ~seed:99 in
  let rows =
    List.mapi
      (fun id rate ->
        Synthetic.generate_row ~rng:trace_rng ~id ~mean_rate_per_min:rate)
      [ 40.0; 25.0; 8.0; 5.0; 3.0; 2.0; 0.8; 0.5; 0.3; 0.2; 0.1; 0.05 ]
  in
  let rng = Rng.create ~seed:100 in

  (* register one uLL function per row; a third of them enjoy
     provisioned concurrency with HORSE *)
  List.iteri
    (fun i row ->
      let category =
        match i mod 3 with 0 -> Category.Cat1 | 1 -> Category.Cat2 | _ -> Category.Cat3
      in
      Platform.register platform
        (Function_def.create ~name:row.Azure.func ~vcpus:1 ~memory_mb:512
           ~exec:(Function_def.Ull category) ());
      if i mod 3 = 0 then
        Platform.provision platform ~name:row.Azure.func ~count:2
          ~strategy:Sandbox.Horse)
    rows;

  (* schedule the window's arrivals; functions without a warm sandbox
     fall back to a cold start, as a real platform would *)
  let duration = Time.span_s (float_of_int (60 * minutes)) in
  let scheduled = ref 0 in
  List.iter
    (fun row ->
      let name = row.Azure.func in
      let fn_id = Platform.fn_id platform ~name in
      List.iter
        (fun offset ->
          incr scheduled;
          ignore
            (Engine.schedule engine ~after:offset (fun _ ->
                 let mode =
                   if Platform.pool_size platform ~fn_id > 0 then
                     Platform.Warm Sandbox.Horse
                   else Platform.Cold
                 in
                 (* provisioned pools were paused with HORSE; ad-hoc
                    (post-cold) pool entries with the vanilla path *)
                 let mode =
                   match mode with
                   | Platform.Warm _ when not (List.mem name
                       (List.filteri (fun i _ -> i mod 3 = 0) rows
                       |> List.map (fun r -> r.Azure.func))) ->
                     Platform.Warm Sandbox.Vanilla
                   | m -> m
                 in
                 Platform.trigger platform ~fn_id ~mode ())))
        (Arrivals.chunk ~rng row ~start_minute:540 ~duration))
    rows;
  Engine.run engine;

  (* aggregate by start mode *)
  let by_mode = Hashtbl.create 8 in
  Platform.iter_records platform (fun slot ->
      let r = Platform.record_of_slot platform slot in
      let key = Platform.mode_name r.Platform.mode in
      let sample =
        match Hashtbl.find_opt by_mode key with
        | Some s -> s
        | None ->
          let s = Stats.Sample.create () in
          Hashtbl.add by_mode key s;
          s
      in
      Stats.Sample.add sample
        (float_of_int (Time.span_to_ns (Platform.record_total r))));
  let table =
    Hashtbl.fold
      (fun mode sample acc ->
        [
          mode;
          string_of_int (Stats.Sample.count sample);
          Report.ns (Stats.Sample.percentile sample 50.0);
          Report.ns (Stats.Sample.percentile sample 99.0);
        ]
        :: acc)
      by_mode []
    |> List.sort compare
  in
  Printf.printf "replayed %d invocations over %d minute(s) from %d functions\n"
    !scheduled minutes (List.length rows);
  Report.print
    ~caption:"End-to-end latency by start mode (median / p99)"
    ~header:[ "start mode"; "count"; "p50"; "p99" ]
    table;
  let m = Platform.metrics platform in
  Printf.printf
    "\ncold boots: %d, horse resumes: %d, vanilla resumes: %d, keep-alive \
     expiries: %d\n"
    (Horse_sim.Metrics.counter m "vmm.boots")
    (Horse_sim.Metrics.counter m "vmm.resumes.horse")
    (Horse_sim.Metrics.counter m "vmm.resumes.vanil")
    (Horse_sim.Metrics.counter m "platform.keepalive_expiries")
