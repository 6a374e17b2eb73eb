(* horse-cli: command-line front end to the HORSE reproduction.

     dune exec bin/horse_cli.exe -- resume --vcpus 36 --strategy horse
     dune exec bin/horse_cli.exe -- sweep --profile xen
     dune exec bin/horse_cli.exe -- trace-gen --functions 50 > trace.csv
     dune exec bin/horse_cli.exe -- trace-stats trace.csv
     dune exec bin/horse_cli.exe -- workload cat2
     dune exec bin/horse_cli.exe -- cluster --routers 4 --shards 2 *)

module E = Horse.Experiments
module Scenario = Horse.Scenario
module Report = Horse.Report
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Category = Horse_workload.Category
module Azure = Horse_trace.Azure
module Synthetic = Horse_trace.Synthetic

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared argument parsers                                             *)
(* ------------------------------------------------------------------ *)

let profile_arg =
  let profile_conv =
    Arg.enum [ ("firecracker", E.Firecracker); ("xen", E.Xen) ]
  in
  Arg.(
    value
    & opt profile_conv E.Firecracker
    & info [ "profile" ] ~docv:"PROFILE"
        ~doc:"Virtualization cost profile: firecracker or xen.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic random seed.")

let jobs_arg =
  let positive_int =
    Arg.conv
      ( (fun s ->
          match Arg.conv_parser Arg.int s with
          | Ok n when n >= 1 -> Ok n
          | Ok _ -> Error (`Msg "expected a positive integer")
          | Error _ as e -> e),
        Arg.conv_printer Arg.int )
  in
  Arg.(
    value
    & opt positive_int (Horse_parallel.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Fan the experiment's independent tasks over $(docv) domains \
           (default: recommended_domain_count - 1).  Results are \
           bit-identical for every N; only the wall-clock changes.")

let strategy_conv =
  Arg.enum
    [
      ("vanilla", Sandbox.Vanilla);
      ("ppsm", Sandbox.Ppsm);
      ("coal", Sandbox.Coal);
      ("horse", Sandbox.Horse);
    ]

(* ------------------------------------------------------------------ *)
(* resume: one pause/resume round-trip with its breakdown              *)
(* ------------------------------------------------------------------ *)

let resume_cmd =
  let run profile seed vcpus strategy verbose =
    if verbose then Horse_sim.Logging.setup ~level:Logs.Debug ();
    let scheduler = Scheduler.create ~topology:Topology.r650 () in
    let vmm =
      Vmm.create
        ~cost:(Scenario.cost_of_profile profile)
        ~jitter:0.0 ~seed ~scheduler ~metrics:(Metrics.create ()) ()
    in
    let sb = Sandbox.create ~id:0 ~vcpus ~memory_mb:512 ~ull:true () in
    ignore (Vmm.boot vmm sb);
    let pause_span = Vmm.pause vmm ~strategy sb in
    let r = Vmm.resume vmm sb in
    let b = r.Vmm.breakdown in
    Report.print
      ~caption:
        (Printf.sprintf "%s resume of a %d-vCPU sandbox (%s profile)"
           (Sandbox.strategy_name strategy)
           vcpus (Scenario.profile_name profile))
      ~header:[ "step"; "time" ]
      [
        [ "pause (preparation)"; Report.span pause_span ];
        [ "1 parse"; Report.ns b.Vmm.parse_ns ];
        [ "2 lock"; Report.ns b.Vmm.lock_ns ];
        [ "3 sanity"; Report.ns b.Vmm.sanity_ns ];
        [ "4 sorted merge"; Report.ns b.Vmm.merge_ns ];
        [ "5 load update"; Report.ns b.Vmm.load_ns ];
        [ "6 unlock+state"; Report.ns b.Vmm.finalize_ns ];
        [ "resume total"; Report.span r.Vmm.total ];
      ]
  in
  let vcpus =
    Arg.(
      value & opt int 36
      & info [ "vcpus" ] ~docv:"N" ~doc:"vCPUs allocated to the sandbox.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv Sandbox.Horse
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:"Resume strategy: vanilla, ppsm, coal or horse.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug-log VMM events.")
  in
  Cmd.v
    (Cmd.info "resume" ~doc:"Time one sandbox resume, step by step.")
    Term.(const run $ profile_arg $ seed_arg $ vcpus $ strategy $ verbose)

(* ------------------------------------------------------------------ *)
(* sweep: figure-3 style strategy sweep                                *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let run profile seed jobs =
    let rows = E.fig3 ~profile ~seed ~jobs () in
    Report.print
      ~caption:
        (Printf.sprintf "Resume time per strategy (%s profile)"
           (Scenario.profile_name profile))
      ~header:[ "vcpus"; "vanil"; "coal"; "ppsm"; "horse"; "speedup" ]
      (List.map
         (fun (r : E.fig3_row) ->
           [
             string_of_int r.E.vcpus;
             Report.ns r.E.vanil_ns;
             Report.ns r.E.coal_ns;
             Report.ns r.E.ppsm_ns;
             Report.ns r.E.horse_ns;
             Report.ratio (r.E.vanil_ns /. r.E.horse_ns);
           ])
         rows)
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep vCPU counts across all four strategies.")
    Term.(const run $ profile_arg $ seed_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* trace-gen / trace-stats                                             *)
(* ------------------------------------------------------------------ *)

let trace_gen_cmd =
  let run seed functions =
    print_endline Azure.header_line;
    List.iter
      (fun row -> print_endline (Azure.to_line row))
      (Synthetic.generate_rows ~seed ~functions)
  in
  let functions =
    Arg.(
      value & opt int 20
      & info [ "functions" ] ~docv:"N" ~doc:"Number of functions to generate.")
  in
  Cmd.v
    (Cmd.info "trace-gen"
       ~doc:"Emit a synthetic Azure-dataset-format trace on stdout.")
    Term.(const run $ seed_arg $ functions)

let trace_stats_cmd =
  let run path =
    let rows = Azure.load_file path in
    let totals = List.map Azure.total_invocations rows in
    let sum = List.fold_left ( + ) 0 totals in
    let sorted = List.sort (fun a b -> Int.compare b a) totals in
    let top10 =
      List.filteri (fun i _ -> i < max 1 (List.length sorted / 10)) sorted
      |> List.fold_left ( + ) 0
    in
    Report.print
      ~caption:(Printf.sprintf "Trace statistics for %s" path)
      ~header:[ "metric"; "value" ]
      [
        [ "functions"; string_of_int (List.length rows) ];
        [ "total invocations"; string_of_int sum ];
        [ "busiest function"; string_of_int (List.hd sorted) ];
        [ "top-decile share";
          (if sum = 0 then "n/a"
           else Report.pct (100.0 *. float_of_int top10 /. float_of_int sum)) ];
      ]
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.csv" ~doc:"Azure-format trace file.")
  in
  Cmd.v
    (Cmd.info "trace-stats" ~doc:"Summarise an Azure-format trace file.")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* workload: run the real function implementations                     *)
(* ------------------------------------------------------------------ *)

let workload_cmd =
  let run category =
    let outcome =
      match Category.run_real category with
      | Category.Firewall_decision d ->
        Printf.sprintf "firewall verdict: %s"
          (match d with
          | Horse_workload.Firewall.Allow -> "ALLOW"
          | Horse_workload.Firewall.Deny -> "DENY")
      | Category.Nat_result (Some h) ->
        Format.asprintf "NAT rewrote to %a" Horse_workload.Packet.pp h
      | Category.Nat_result None -> "NAT: no rule matched"
      | Category.Filter_matches n ->
        Printf.sprintf "filter matched %d of %d elements" n
          Horse_workload.Array_filter.standard_size
    in
    Printf.printf "%s (%s)\n%s\n"
      (Category.name category)
      (Category.description category)
      outcome
  in
  let category =
    Arg.(
      required
      & pos 0
          (some
             (Arg.enum
                [ ("cat1", Category.Cat1); ("cat2", Category.Cat2);
                  ("cat3", Category.Cat3) ]))
          None
      & info [] ~docv:"CATEGORY" ~doc:"cat1 (firewall), cat2 (NAT), cat3 (filter).")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Execute one of the real uLL workloads once.")
    Term.(const run $ category)

(* ------------------------------------------------------------------ *)
(* serve: drive the Firecracker-style API from stdin                   *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run profile seed =
    let module Api = Horse_vmm.Api in
    let module Json = Horse_vmm.Json in
    let scheduler = Scheduler.create ~topology:Topology.r650 () in
    let vmm =
      Vmm.create
        ~cost:(Scenario.cost_of_profile profile)
        ~seed ~scheduler ~metrics:(Metrics.create ()) ()
    in
    let server = Api.Server.create ~vmm () in
    prerr_endline
      "horse-cli serve: reading \"METHOD /path [json-body]\" lines from        stdin (EOF to quit)";
    let parse_line line =
      match String.index_opt line ' ' with
      | None -> None
      | Some i -> (
        let meth_text = String.sub line 0 i in
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        let path, body =
          match String.index_opt rest ' ' with
          | None -> (rest, "")
          | Some j ->
            ( String.sub rest 0 j,
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
            )
        in
        match String.uppercase_ascii meth_text with
        | "GET" -> Some { Api.meth = Api.Get; path; body }
        | "PUT" -> Some { Api.meth = Api.Put; path; body }
        | "PATCH" -> Some { Api.meth = Api.Patch; path; body }
        | _ -> None)
    in
    try
      while true do
        let line = String.trim (input_line stdin) in
        if line <> "" then
          match parse_line line with
          | None -> Printf.printf "400 {\"fault_message\":\"bad request line\"}\n%!"
          | Some request ->
            let response = Api.Server.handle server request in
            Printf.printf "%d %s\n%!" response.Api.status
              (Json.to_string response.Api.body)
      done
    with End_of_file -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive the Firecracker-style management API with requests read           from stdin.")
    Term.(const run $ profile_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* cluster: the partitioned router plane                               *)
(* ------------------------------------------------------------------ *)

let cluster_cmd =
  let positive_int =
    Arg.conv
      ( (fun s ->
          match Arg.conv_parser Arg.int s with
          | Ok n when n >= 1 -> Ok n
          | Ok _ -> Error (`Msg "expected a positive integer")
          | Error _ as e -> e),
        Arg.conv_printer Arg.int )
  in
  let routers_arg =
    let bounded =
      Arg.conv
        ( (fun s ->
            match Arg.conv_parser Arg.int s with
            | Ok n when n >= 1 && n <= 8 -> Ok n
            | Ok _ -> Error (`Msg "expected an integer in 1..8")
            | Error _ as e -> e),
          Arg.conv_printer Arg.int )
    in
    Arg.(
      value & opt bounded 4
      & info [ "routers" ] ~docv:"R"
          ~doc:
            "Router shards in the control plane (1..8, at most one per \
             server).  Functions map to routers by a deterministic hash of \
             their dense id; the sweep runs every point up to $(docv).  \
             R=1 reproduces the classic single-router plane exactly.")
  in
  let shards_arg =
    Arg.(
      value & opt positive_int 1
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Execution tasks for the sharded engine.  Rows are \
             bit-identical for every S; only the wall-clock changes.")
  in
  let triggers_arg =
    Arg.(
      value & opt positive_int 20_000
      & info [ "triggers" ] ~docv:"N"
          ~doc:"Warm triggers in the bursty storm.")
  in
  let run profile seed routers shards triggers =
    let points =
      List.sort_uniq compare
        (List.filter (fun r -> r <= routers) [ 1; 2; 4; 8; routers ])
    in
    let storm =
      { (E.router_storm ~seed ~routers ~triggers ()) with profile; shards }
    in
    let rows =
      List.map
        (fun routers -> (routers, Scenario.run { storm with routers }))
        points
    in
    Report.print
      ~caption:
        (Printf.sprintf
           "Partitioned router plane (%s profile, seed %d): %d bursty \
            triggers over 32 functions, function-affine routing, spill \
            ring on dry or blacked-out groups"
           (Scenario.profile_name profile) seed triggers)
      ~header:
        [ "routers"; "servers"; "completed"; "rejected"; "spills"; "p50";
          "p99"; "epochs"; "messages" ]
      (List.map
         (fun (routers, (r : Scenario.row)) ->
           [
             string_of_int routers;
             string_of_int storm.servers;
             string_of_int r.completed;
             string_of_int r.rejected;
             string_of_int r.spills;
             Report.ns (r.service.p50_us *. 1e3);
             Report.ns (r.service.p99_us *. 1e3);
             string_of_int r.sync.epochs;
             string_of_int r.messages;
           ])
         rows)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run the function-affine multi-router control plane across router \
          counts.")
    Term.(
      const run $ profile_arg $ seed_arg $ routers_arg $ shards_arg
      $ triggers_arg)

(* ------------------------------------------------------------------ *)
(* summary                                                             *)
(* ------------------------------------------------------------------ *)

let summary_cmd =
  let run profile seed jobs =
    let s = E.summary ~profile ~seed ~jobs () in
    Report.print
      ~caption:
        (Printf.sprintf "Headline claims (%s profile)"
           (Scenario.profile_name profile))
      ~header:[ "claim"; "measured" ]
      [
        [ "warm resume speedup"; Report.ratio s.E.resume_speedup ];
        [ "HORSE resume time"; Report.ns s.E.horse_resume_ns ];
        [ "init overhead vs warm"; Report.ratio s.E.init_overhead_vs_warm ];
        [ "init overhead vs restore"; Report.ratio s.E.init_overhead_vs_restore ];
        [ "init overhead vs cold"; Report.ratio s.E.init_overhead_vs_cold ];
      ]
  in
  Cmd.v
    (Cmd.info "summary" ~doc:"Print the headline paper-vs-measured summary.")
    Term.(const run $ profile_arg $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "horse-cli" ~version:"1.0.0"
      ~doc:"HORSE (Middleware '24) reproduction toolkit."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            resume_cmd; sweep_cmd; trace_gen_cmd; trace_stats_cmd;
            workload_cmd; cluster_cmd; summary_cmd; serve_cmd;
          ]))
