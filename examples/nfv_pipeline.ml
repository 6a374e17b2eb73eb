(* NFV pipeline: the paper's motivating use case (§1-§2).

     dune exec examples/nfv_pipeline.exe

   A packet stream traverses a stateless firewall (Category 1) and a
   NAT (Category 2), each hosted as a uLL function in its own
   HORSE-provisioned sandbox.  The functions are the real OCaml
   implementations from [horse_workload]; the platform accounts the
   per-trigger sandbox-resume cost that HORSE minimises. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category
module Firewall = Horse_workload.Firewall
module Nat = Horse_workload.Nat
module Packet = Horse_workload.Packet
module Report = Horse.Report

(* The network functions themselves: compiled rule sets. *)
let firewall =
  Firewall.create
    ~rules:
      [
        Firewall.rule_of_cidr "10.0.0.0/8" ();
        Firewall.rule_of_cidr "192.168.0.0/16" ~dst_port:443 ();
        Firewall.rule_of_cidr "203.0.113.0/24" ~protocol:Packet.Tcp ();
      ]

let nat =
  let t = Nat.create () in
  Nat.add_rule t ~match_dst:"198.51.100.80" ~match_port:80
    ~rewrite_dst:"10.0.1.10" ~rewrite_port:8080;
  Nat.add_rule t ~match_dst:"198.51.100.80" ~match_port:443
    ~rewrite_dst:"10.0.1.11" ~rewrite_port:8443;
  t

let traffic =
  [
    Packet.make ~src:"10.1.2.3" ~dst:"198.51.100.80" ~dst_port:80 ();
    Packet.make ~src:"172.20.0.9" ~dst:"198.51.100.80" ~dst_port:80 ();
    Packet.make ~src:"192.168.7.7" ~dst:"198.51.100.80" ~dst_port:443 ();
    Packet.make ~src:"203.0.113.50" ~dst:"198.51.100.80" ~dst_port:443 ();
    Packet.make ~src:"8.8.8.8" ~dst:"198.51.100.80" ~dst_port:80 ();
    Packet.make ~src:"10.9.9.9" ~dst:"198.51.100.80" ~dst_port:8080 ();
  ]

let () =
  let engine = Engine.create ~seed:2 () in
  let platform = Platform.create ~engine () in
  Platform.register platform
    (Function_def.create ~name:"firewall" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat1) ());
  Platform.register platform
    (Function_def.create ~name:"nat" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat2) ());
  (* both functions always have a hot sandbox — provisioned
     concurrency with the HORSE pause path *)
  Platform.provision platform ~name:"firewall" ~count:2
    ~strategy:Sandbox.Horse;
  Platform.provision platform ~name:"nat" ~count:2 ~strategy:Sandbox.Horse;

  let firewall_id = Platform.fn_id platform ~name:"firewall"
  and nat_id = Platform.fn_id platform ~name:"nat" in
  let init_of slot = (Platform.record_of_slot platform slot).Platform.init in
  let rows = ref [] in
  let process packet =
    (* stage 1: firewall decides; its sandbox is resumed via HORSE *)
    Platform.trigger platform ~fn_id:firewall_id
      ~mode:(Platform.Warm Sandbox.Horse)
      ~on_complete:(fun fw_slot ->
        match Firewall.evaluate firewall packet with
        | Firewall.Deny ->
          rows :=
            [
              Format.asprintf "%a" Packet.pp packet;
              "DENY";
              "-";
              Report.span (init_of fw_slot);
              "-";
            ]
            :: !rows
        | Firewall.Allow ->
          (* stage 2: NAT rewrites; separate sandbox, same fast path *)
          Platform.trigger platform ~fn_id:nat_id
            ~mode:(Platform.Warm Sandbox.Horse)
            ~on_complete:(fun nat_slot ->
              let rewritten =
                match Nat.translate nat packet with
                | Some h -> Format.asprintf "%a" Packet.pp h
                | None -> "(untranslated)"
              in
              rows :=
                [
                  Format.asprintf "%a" Packet.pp packet;
                  "ALLOW";
                  rewritten;
                  Report.span (init_of fw_slot);
                  Report.span (init_of nat_slot);
                ]
                :: !rows)
            ())
      ()
  in
  (* packets arrive 50 µs apart *)
  List.iteri
    (fun i packet ->
      ignore
        (Engine.schedule engine
           ~after:(Time.span_us (float_of_int i *. 50.0))
           (fun _ -> process packet)))
    traffic;
  Engine.run engine;
  Report.print
    ~caption:
      "NFV pipeline: firewall -> NAT, each stage in a HORSE-resumed \
       sandbox (init columns are the per-trigger sandbox-ready times)"
    ~header:[ "packet"; "verdict"; "rewritten to"; "fw init"; "nat init" ]
    (List.rev !rows);
  let metrics = Platform.metrics platform in
  Printf.printf "\nHORSE resumes performed: %d; cold starts: 0\n"
    (Horse_sim.Metrics.counter metrics "vmm.resumes.horse")
