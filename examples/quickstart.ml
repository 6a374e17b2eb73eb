(* Quickstart: boot a FaaS platform, register a function and compare
   the four ways of starting it.

     dune exec examples/quickstart.exe

   The walk-through mirrors the paper's story: a cold start costs
   ~1.5 s, a snapshot restore ~1.3 ms, a vanilla warm start ~1.1 µs —
   and the HORSE fast path resumes the same sandbox in ~150 ns. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category
module Report = Horse.Report

let () =
  (* 1. A simulated server: 72 CPUs, Firecracker-style hypervisor,
     one run queue reserved for ultra-low-latency sandboxes. *)
  let engine = Engine.create ~seed:1 () in
  let platform = Platform.create ~engine () in

  (* 2. Register a function: the paper's Category-2 NAT workload
     (~1.5 µs of execution per request). *)
  Platform.register platform
    (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());

  (* 3. Provision warm (paused) sandboxes — one kept with the vanilla
     pause path, one with the HORSE pause path (P²SM structures +
     coalescing constants precomputed). *)
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Vanilla;
  Platform.provision platform ~name:"nat" ~count:1 ~strategy:Sandbox.Horse;

  (* 4. Trigger the function under each start mode and collect the
     sandbox-readiness time (init) and total latency. *)
  let fn_id = Platform.fn_id platform ~name:"nat" in
  let results = ref [] in
  let run mode =
    Platform.trigger platform ~fn_id ~mode
      ~on_complete:(fun slot ->
        let record = Platform.record_of_slot platform slot in
        results :=
          ( Platform.mode_name mode,
            record.Platform.init,
            Platform.record_total record )
          :: !results)
      ();
    Engine.run engine
  in
  run Platform.Cold;
  run Platform.Restore;
  run (Platform.Warm Sandbox.Vanilla);
  run (Platform.Warm Sandbox.Horse);

  Report.print
    ~caption:"Starting a ~1.5us NAT function on the simulated platform"
    ~header:[ "start mode"; "sandbox init"; "total latency" ]
    (List.rev_map
       (fun (mode, init, total) ->
         [ mode; Report.span init; Report.span total ])
       !results);

  (* 5. The function body is real OCaml, not a stub: *)
  match Category.run_real Category.Cat2 with
  | Category.Nat_result (Some header) ->
    Format.printf "@.NAT rewrote the canned request to: %a@."
      Horse_workload.Packet.pp header
  | Category.Nat_result None ->
    print_endline "NAT: no rule matched (unexpected for the canned input)"
  | Category.Firewall_decision _ | Category.Filter_matches _ ->
    assert false
