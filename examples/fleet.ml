(* Fleet: provisioned concurrency across a multi-server deployment.

     dune exec examples/fleet.exe

   Four simulated servers behind one router.  An ML-inference-style
   function has HORSE-provisioned sandboxes spread over the fleet; a
   Poisson arrival process drives it.  Compare the push policies:
   warm-first, least-loaded and round-robin.  The servers run
   [Recovery.default], so a trigger that lands on a dry pool falls
   back to a snapshot restore — its init time shows it in the tail —
   and then parks a fresh sandbox, so the pools grow to fit the load.
   Round-robin ignores both load and pools and pays the most
   fallbacks. *)

module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Stats = Horse_sim.Stats
module Metrics = Horse_sim.Metrics
module Engine = Horse_sim.Engine
module Cluster = Horse_faas.Cluster
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Arrivals = Horse_trace.Arrivals
module Report = Horse.Report

let run policy =
  let cluster =
    Cluster.create_sharded ~servers:4 ~policy ~seed:8
      ~recovery:Platform.Recovery.default ()
  in
  (* a ~2ms function: long enough that several invocations are in
     flight, so a blind router can hit a server whose sandboxes are all
     busy *)
  Cluster.register cluster
    (Function_def.create ~name:"infer" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Fixed (Time.span_ms 2.0)) ~ull:true ());
  (* 8 warm sandboxes over 4 servers *)
  Cluster.provision cluster ~name:"infer" ~total:8 ~strategy:Sandbox.Horse;
  let rng = Rng.create ~seed:9 in
  let arrivals =
    Arrivals.poisson_process ~rng ~rate_per_s:2000.0 ~duration:(Time.span_s 1.0)
  in
  let fn_id = Cluster.fn_id cluster ~name:"infer" in
  let inits = Stats.Sample.create () in
  let engine = Cluster.engine cluster in
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             ignore
               (Cluster.trigger cluster ~fn_id
                  ~mode:(Platform.Warm Sandbox.Horse)
                  ~on_complete:(fun server slot ->
                    let record =
                      Platform.record_of_slot
                        (Cluster.server cluster server)
                        slot
                    in
                    Stats.Sample.add inits
                      (float_of_int (Time.span_to_ns record.Platform.init)))
                  ()))))
    arrivals;
  Cluster.run cluster;
  let fallbacks = ref 0 in
  for i = 0 to Cluster.server_count cluster - 1 do
    List.iter
      (fun (name, v) ->
        if String.starts_with ~prefix:"platform.fallbacks." name then
          fallbacks := !fallbacks + v)
      (Metrics.counters (Platform.metrics (Cluster.server cluster i)))
  done;
  let spread =
    Cluster.triggers_per_server cluster
    |> Array.to_list
    |> List.map string_of_int
    |> String.concat "/"
  in
  [
    Cluster.policy_name cluster;
    string_of_int (List.length arrivals);
    string_of_int (Cluster.record_count cluster);
    string_of_int !fallbacks;
    Report.ns (Stats.Sample.percentile inits 50.0);
    Report.ns (Stats.Sample.percentile inits 99.9);
    spread;
  ]

let () =
  Report.print
    ~caption:
      "2000 triggers/s of a ~2ms function over a 4-server fleet, 8 \
       HORSE-provisioned sandboxes: every dry start falls back to a \
       restore (the init tail) and parks a fresh sandbox"
    ~header:
      [ "policy"; "triggers"; "completed"; "fallbacks"; "init p50";
        "init p99.9";
        "per-server triggers" ]
    (List.map run
       Cluster.Policy.
         [ push (); push_least_loaded (); push_round_robin () ])
