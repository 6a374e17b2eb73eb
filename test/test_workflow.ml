(* Workflow DAG tests: the fusion planner, the completion-driven
   stepper, and the oracle-equivalence suite — every generated DAG
   runs fused, unfused and node-at-a-time sequential, and all three
   must agree with the pure value oracle; record streams must be
   bit-identical across shard counts and value-identical across
   scheduling policies. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Workflow = Horse_faas.Workflow
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category
module Batch = Horse_trace.Batch

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

(* A palette of uLL functions the generated DAGs draw from: node [i]
   runs palette function [i mod 4], so any two runs of the same shape
   invoke the same functions in the same places. *)
let palette =
  [|
    ("wfn-a", Category.Cat1);
    ("wfn-b", Category.Cat2);
    ("wfn-c", Category.Cat3);
    ("wfn-d", Category.Cat2);
  |]

let register_palette cluster =
  Array.iter
    (fun (name, cat) ->
      Cluster.register cluster
        (Function_def.create ~name ~vcpus:1 ~memory_mb:128
           ~exec:(Function_def.Ull cat) ()))
    palette

let fn_of_node i = fst palette.(i mod Array.length palette)

let graph_of_shape (shape : Harness.Dag.shape) =
  let b = Workflow.Builder.create () in
  for i = 0 to shape.Harness.Dag.nodes - 1 do
    let deps =
      List.filter_map
        (fun (s, d) -> if d = i then Some s else None)
        shape.Harness.Dag.edges
    in
    ignore
      (Workflow.Builder.add b ~name:(fn_of_node i)
         ~mode:(Platform.Warm Sandbox.Horse) ~deps)
  done;
  Workflow.Builder.build b

(* One cluster run of [graph]: returns the manager after [instances]
   workflow starts have drained. *)
let run_sharded ?(fuse = false) ?policy ?(servers = 2) ?(shards = 1)
    ?(seed = 11) ?(instances = 3)
    ?(placement = Time.span_us 50.0) graph =
  let cluster =
    Cluster.create_sharded ~servers ?policy ~topology:small_topology ~seed
      ~placement ~shards ()
  in
  register_palette cluster;
  let wf = Workflow.create ~fuse ~cluster () in
  let id = Workflow.register wf ~name:"g" graph in
  Workflow.provision wf ~wf_id:id ~per_unit:8;
  for _ = 1 to instances do
    ignore (Workflow.start wf ~wf_id:id ())
  done;
  Workflow.run wf;
  wf

(* The full observable record stream, completion order. *)
let stream wf =
  List.init (Workflow.Records.count wf) (fun i ->
      ( Workflow.Records.instance wf i,
        Workflow.Records.node wf i,
        Workflow.Records.value wf i,
        Workflow.Records.server wf i,
        Workflow.Records.triggered_ns wf i,
        Workflow.Records.init_ns wf i,
        Workflow.Records.exec_ns wf i,
        Workflow.Records.preemption_ns wf i,
        Workflow.Records.completed_ns wf i ))

(* (instance, node) -> value, order-independent. *)
let value_map wf =
  List.sort compare
    (List.init (Workflow.Records.count wf) (fun i ->
         ( Workflow.Records.instance wf i,
           Workflow.Records.node wf i,
           Workflow.Records.value wf i )))

let check_identity_rows wf =
  let bad = ref None in
  for i = 0 to Workflow.Records.count wf - 1 do
    let total =
      Workflow.Records.init_ns wf i
      + Workflow.Records.exec_ns wf i
      + Workflow.Records.preemption_ns wf i
    in
    let width =
      Workflow.Records.completed_ns wf i - Workflow.Records.triggered_ns wf i
    in
    if total <> width && !bad = None then
      bad :=
        Some
          (Printf.sprintf
             "row %d (node %d): completed-triggered = %d but init+exec+preempt \
              = %d"
             i
             (Workflow.Records.node wf i)
             width total)
  done;
  !bad

(* Node-at-a-time sequential execution: each node triggered alone, in
   topological (= index) order, once the previous node's completion
   has reached the router.  The per-node latency identity must hold
   for every record. *)
let run_sequential ?(seed = 11) graph =
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed ()
  in
  register_palette cluster;
  Array.iter
    (fun (name, _) ->
      Cluster.provision cluster ~name ~total:4 ~strategy:Sandbox.Horse)
    palette;
  let rows = ref [] in
  let rec fire i =
    if i < Workflow.node_count graph then
      match
        Cluster.trigger cluster
          ~fn_id:(Cluster.fn_id cluster ~name:(Workflow.node_name graph i))
          ~mode:(Workflow.node_mode graph i)
          ~on_complete:(fun server slot ->
            let r =
              Platform.record_of_slot (Cluster.server cluster server) slot
            in
            rows := (i, r) :: !rows;
            fire (i + 1))
          ()
      with
      | Cluster.Accepted _ | Cluster.Queued | Cluster.Forwarded _ -> ()
      | Cluster.Rejected _ -> Alcotest.fail "sequential trigger rejected"
  in
  fire 0;
  Cluster.run cluster;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Oracle equivalence over generated DAGs                              *)
(* ------------------------------------------------------------------ *)

let check_against_oracle label wf graph instances =
  if Workflow.instances_completed wf <> instances then
    Some
      (Printf.sprintf "%s: %d of %d instances completed" label
         (Workflow.instances_completed wf)
         instances)
  else begin
    let n = Workflow.node_count graph in
    if Workflow.Records.count wf <> instances * n then
      Some
        (Printf.sprintf "%s: %d records for %d instances x %d nodes" label
           (Workflow.Records.count wf) instances n)
    else begin
      let bad = ref None in
      for inst = 0 to instances - 1 do
        (* the default instance seed is the instance id *)
        let expect = Workflow.oracle_values graph ~seed:inst in
        for v = 0 to n - 1 do
          let got = Workflow.value wf ~instance:inst ~node:v in
          if got <> expect.(v) && !bad = None then
            bad :=
              Some
                (Printf.sprintf "%s: instance %d node %d: value %d, oracle %d"
                   label inst v got expect.(v))
        done
      done;
      match !bad with Some _ as b -> b | None -> check_identity_rows wf
    end
  end

let test_oracle_equivalence () =
  let policies = Cluster.Policy.builtins () in
  Harness.Dag.check ~name:"workflow oracle equivalence" (fun shape ->
      let graph = graph_of_shape shape in
      let instances = 3 in
      (* the sequential oracle run: every node alone, identity held *)
      let seq = run_sequential graph in
      let seq_bad =
        List.find_map
          (fun (i, (r : Platform.record)) ->
            let width = Time.span_to_ns (Time.diff r.completed_at r.triggered_at) in
            let total = Time.span_to_ns (Platform.record_total r) in
            if width <> total then
              Some
                (Printf.sprintf
                   "sequential node %d: completed-triggered %d <> \
                    init+exec+preempt %d"
                   i width total)
            else None)
          seq
      in
      if List.length seq <> Workflow.node_count graph then
        Some "sequential run lost a node"
      else if seq_bad <> None then seq_bad
      else
        List.find_map
          (fun policy ->
            let unfused = run_sharded ~policy ~instances graph in
            let fused = run_sharded ~fuse:true ~policy ~instances graph in
            match
              check_against_oracle
                ("unfused/" ^ Cluster.Policy.name policy)
                unfused graph instances
            with
            | Some _ as w -> w
            | None -> (
              match
                check_against_oracle
                  ("fused/" ^ Cluster.Policy.name policy)
                  fused graph instances
              with
              | Some _ as w -> w
              | None ->
                if value_map unfused <> value_map fused then
                  Some
                    (Cluster.Policy.name policy
                    ^ ": fused and unfused value maps differ")
                else None))
          policies)

(* The full matrix gate: for each policy, the workflow record stream
   must be byte-identical across shard counts 1/2/4; across policies,
   the (instance, node, value) map must agree with the oracle. *)
let test_shard_policy_identity () =
  let graph =
    graph_of_shape
      {
        Harness.Dag.nodes = 6;
        edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (4, 5) ];
      }
  in
  let instances = 4 in
  List.iter
    (fun fuse ->
      List.iter
        (fun policy ->
          let reference =
            stream (run_sharded ~fuse ~policy ~shards:1 ~instances graph)
          in
          List.iter
            (fun shards ->
              let s =
                stream (run_sharded ~fuse ~policy ~shards ~instances graph)
              in
              Alcotest.(check bool)
                (Printf.sprintf "stream identical at shards=%d (%s, fuse=%b)"
                   shards
                   (Cluster.Policy.name policy)
                   fuse)
                true (s = reference))
            [ 2; 4 ];
          let expect =
            List.sort compare
              (List.concat_map
                 (fun inst ->
                   let values = Workflow.oracle_values graph ~seed:inst in
                   List.init (Workflow.node_count graph) (fun v ->
                       (inst, v, values.(v))))
                 (List.init instances (fun i -> i)))
          in
          let wf = run_sharded ~fuse ~policy ~shards:1 ~instances graph in
          Alcotest.(check bool)
            (Printf.sprintf "values match oracle (%s, fuse=%b)"
               (Cluster.Policy.name policy)
               fuse)
            true
            (value_map wf = expect))
        (Cluster.Policy.builtins ()))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Fusion planner                                                      *)
(* ------------------------------------------------------------------ *)

let nfv_cluster () =
  let cluster =
    Cluster.create_sharded ~servers:2 ~topology:small_topology ~seed:7 ()
  in
  List.iter (Cluster.register cluster) (Workflow.nfv_defs ());
  List.iter (Cluster.register cluster) (Workflow.thumbnail_defs ());
  cluster

let test_planner_fuses_nfv_chain () =
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
  Alcotest.(check int) "one fused unit" 1 (Workflow.unit_count wf ~wf_id:id);
  Alcotest.(check (list (list int)))
    "members" [ [ 0; 1; 2 ] ]
    (Workflow.unit_members wf ~wf_id:id);
  (* the fused function exists on the cluster, uLL, max of members *)
  let fused_id = Cluster.fn_id cluster ~name:"__fused:nfv:0" in
  let def =
    Function_def.Registry.def
      (Platform.registry (Cluster.server cluster 0))
      fused_id
  in
  Alcotest.(check bool) "fused is ull" true def.Function_def.ull;
  Alcotest.(check int) "fused vcpus" 1 def.Function_def.vcpus

let test_planner_leaves_non_ull_alone () =
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let id =
    Workflow.register wf ~name:"thumb" (Workflow.thumbnail_store ())
  in
  Alcotest.(check int) "no fusion" 2 (Workflow.unit_count wf ~wf_id:id);
  Alcotest.(check (list (list int)))
    "members" [ [ 0 ]; [ 1 ] ]
    (Workflow.unit_members wf ~wf_id:id)

let test_planner_mixed_chain () =
  (* ull, ull, thumbnail, ull: only the leading pair fuses *)
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let graph =
    Workflow.chain
      [
        ("nfv-firewall", Platform.Warm Sandbox.Horse);
        ("nfv-nat", Platform.Warm Sandbox.Horse);
        ("thumb-store", Platform.Warm Sandbox.Vanilla);
        ("nfv-filter", Platform.Warm Sandbox.Horse);
      ]
  in
  let id = Workflow.register wf ~name:"mixed" graph in
  Alcotest.(check (list (list int)))
    "fused prefix only"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ] ]
    (Workflow.unit_members wf ~wf_id:id)

let test_planner_respects_branches () =
  (* a diamond of uLL nodes has no interior chain: nothing fuses *)
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let b = Workflow.Builder.create () in
  let mode = Platform.Warm Sandbox.Horse in
  let n0 = Workflow.Builder.add b ~name:"nfv-firewall" ~mode ~deps:[] in
  let n1 = Workflow.Builder.add b ~name:"nfv-nat" ~mode ~deps:[ n0 ] in
  let n2 = Workflow.Builder.add b ~name:"nfv-filter" ~mode ~deps:[ n0 ] in
  let _ = Workflow.Builder.add b ~name:"nfv-nat2" ~mode ~deps:[ n1; n2 ] in
  Cluster.register cluster
    (Function_def.create ~name:"nfv-nat2" ~vcpus:1 ~memory_mb:128
       ~exec:(Function_def.Ull Category.Cat2) ());
  let id = Workflow.register wf ~name:"diamond" (Workflow.Builder.build b) in
  Alcotest.(check int) "four units" 4 (Workflow.unit_count wf ~wf_id:id)

let test_fused_single_resume () =
  (* a fused NFV instance costs one warm trigger; unfused costs three *)
  let count_warm cluster =
    Horse_sim.Metrics.counter
      (Platform.metrics (Cluster.server cluster 0))
      "platform.triggers.warm-horse"
    + Horse_sim.Metrics.counter
        (Platform.metrics (Cluster.server cluster 1))
        "platform.triggers.warm-horse"
  in
  let run fuse =
    let cluster = nfv_cluster () in
    let wf = Workflow.create ~fuse ~cluster () in
    let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
    Workflow.provision wf ~wf_id:id ~per_unit:4;
    ignore (Workflow.start wf ~wf_id:id ());
    Workflow.run wf;
    Alcotest.(check int) "completed" 1 (Workflow.instances_completed wf);
    (count_warm cluster, wf)
  in
  let fused_triggers, fused = run true in
  let unfused_triggers, unfused = run false in
  Alcotest.(check int) "fused: one resume" 1 fused_triggers;
  Alcotest.(check int) "unfused: three resumes" 3 unfused_triggers;
  Alcotest.(check bool) "same values" true
    (value_map fused = value_map unfused)

(* ------------------------------------------------------------------ *)
(* Stepper timing                                                      *)
(* ------------------------------------------------------------------ *)

let test_chain_latency_identity () =
  let placement = Time.span_us 50.0 in
  let graph = graph_of_shape { Harness.Dag.nodes = 4; edges = [ (0, 1); (1, 2); (2, 3) ] } in
  let wf = run_sharded ~instances:1 ~placement graph in
  Alcotest.(check int) "records" 4 (Workflow.Records.count wf);
  (match check_identity_rows wf with
  | Some why -> Alcotest.fail why
  | None -> ());
  let row node =
    let rec find i =
      if Workflow.Records.node wf i = node then i else find (i + 1)
    in
    find 0
  in
  (* the end-to-end latency is the sum of per-node totals along the
     (only) path, plus one notify-and-place round trip per edge *)
  let total = ref (3 * 2 * Time.span_to_ns placement) in
  for i = 0 to 3 do
    total :=
      !total
      + Workflow.Records.init_ns wf i
      + Workflow.Records.exec_ns wf i
      + Workflow.Records.preemption_ns wf i
  done;
  Alcotest.(check int) "critical path sums"
    (Workflow.Records.completed_ns wf (row 3)
    - Workflow.Records.triggered_ns wf (row 0))
    !total

(* A node row stores no timings of its own: its timing columns are
   the hop's platform row.  For chains of 3 and 6, fused and unfused,
   the last member of every unit reads exactly the rows
   [Cluster.iter_records] yields (compared as multisets), and every
   interior fused member reads as zero-width at its unit's
   completion. *)
let test_rows_are_platform_rows () =
  List.iter
    (fun (len, fuse) ->
      let label = Printf.sprintf "len %d, fuse=%b" len fuse in
      let graph =
        graph_of_shape
          {
            Harness.Dag.nodes = len;
            edges = List.init (len - 1) (fun i -> (i, i + 1));
          }
      in
      let wf = run_sharded ~fuse ~instances:4 graph in
      let cluster = Workflow.cluster wf in
      let platform_rows = ref [] in
      Cluster.iter_records cluster (fun server slot ->
          let a = Platform.trigger_records (Cluster.server cluster server) in
          let ns = Time.to_ns and span = Time.span_to_ns in
          platform_rows :=
            ( server,
              ns (Horse_faas.Trigger_records.triggered_at a slot),
              span (Horse_faas.Trigger_records.init a slot),
              span (Horse_faas.Trigger_records.exec a slot),
              span (Horse_faas.Trigger_records.preemption a slot),
              ns (Horse_faas.Trigger_records.completed_at a slot) )
            :: !platform_rows);
      (* each node's unit's last member *)
      let last_of = Array.make len 0 in
      List.iter
        (fun members ->
          let last = List.nth members (List.length members - 1) in
          List.iter (fun m -> last_of.(m) <- last) members)
        (Workflow.unit_members wf ~wf_id:0);
      Alcotest.(check int)
        (label ^ ": units") (if fuse then 1 else len)
        (Workflow.unit_count wf ~wf_id:0);
      let module R = Workflow.Records in
      let rows = List.init (R.count wf) (fun i -> i) in
      let completed_of ~inst ~node =
        R.completed_ns wf
          (List.find
             (fun i -> R.instance wf i = inst && R.node wf i = node)
             rows)
      in
      let unit_rows =
        List.filter_map
          (fun i ->
            let node = R.node wf i in
            if last_of.(node) = node then
              Some
                ( R.server wf i,
                  R.triggered_ns wf i,
                  R.init_ns wf i,
                  R.exec_ns wf i,
                  R.preemption_ns wf i,
                  R.completed_ns wf i )
            else begin
              let at =
                completed_of ~inst:(R.instance wf i) ~node:last_of.(node)
              in
              Alcotest.(check (list int))
                (Printf.sprintf "%s: interior row %d zero-width at completion"
                   label i)
                [ at; 0; 0; 0; at ]
                [
                  R.triggered_ns wf i;
                  R.init_ns wf i;
                  R.exec_ns wf i;
                  R.preemption_ns wf i;
                  R.completed_ns wf i;
                ];
              None
            end)
          rows
      in
      Alcotest.(check int) (label ^ ": rows") (4 * len) (R.count wf);
      Alcotest.(check bool)
        (label ^ ": unit rows = platform rows (multiset)")
        true
        (List.sort compare unit_rows = List.sort compare !platform_rows))
    [ (3, false); (3, true); (6, false); (6, true) ]

let test_chain_hops_sharded () =
  (* on a sharded cluster every inter-node step pays exactly one
     completion notification plus one placement: 2 x placement *)
  let placement = Time.span_us 50.0 in
  let graph = graph_of_shape { Harness.Dag.nodes = 3; edges = [ (0, 1); (1, 2) ] } in
  let wf = run_sharded ~instances:1 ~placement graph in
  Alcotest.(check int) "records" 3 (Workflow.Records.count wf);
  let row node =
    let rec find i =
      if Workflow.Records.node wf i = node then i else find (i + 1)
    in
    find 0
  in
  let hop = 2 * Time.span_to_ns placement in
  for v = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "hop %d->%d is 2x placement" v (v + 1))
      (Workflow.Records.completed_ns wf (row v) + hop)
      (Workflow.Records.triggered_ns wf (row (v + 1)))
  done

(* ------------------------------------------------------------------ *)
(* Partitioned router plane                                            *)
(* ------------------------------------------------------------------ *)

(* Four 3-node warm uLL chains, rotated through the palette so the
   four root functions spread over the router hash. *)
let chain_names i =
  List.init 3 (fun k -> fst palette.((i + k) mod Array.length palette))

let router_graphs () =
  List.init 4 (fun i ->
      Workflow.chain
        (List.map
           (fun n -> (n, Platform.Warm Sandbox.Horse))
           (chain_names i)))

let multi_router_manager ?(fuse = false) ~shards () =
  let cluster =
    Cluster.create_sharded ~servers:4 ~topology:small_topology ~seed:11
      ~routers:2 ~shards ()
  in
  register_palette cluster;
  let wf = Workflow.create ~fuse ~cluster () in
  let ids =
    List.mapi
      (fun i g -> Workflow.register wf ~name:(Printf.sprintf "c%d" i) g)
      (router_graphs ())
  in
  List.iter (fun id -> Workflow.provision wf ~wf_id:id ~per_unit:4) ids;
  (cluster, wf, ids)

let test_multi_router_plane () =
  (* four chains over a 2-router plane: each is homed on its root's
     router, every dispatch stays in the home group (pinned triggers
     never spill), values match the pure oracle, and the stream is
     bit-identical across execution shards, fused and unfused *)
  let run ?fuse ~shards () =
    let cluster, wf, ids = multi_router_manager ?fuse ~shards () in
    let expect = Hashtbl.create 16 in
    List.iteri
      (fun k (id, g) ->
        let inst = Workflow.start wf ~wf_id:id ~seed:(1000 + k) () in
        Hashtbl.replace expect inst (id, g, 1000 + k))
      (List.concat_map
         (fun p -> [ p; p ])
         (List.combine ids (router_graphs ())));
    Workflow.run wf;
    (cluster, wf, ids, expect)
  in
  let cluster, wf, ids, expect = run ~shards:1 () in
  List.iteri
    (fun i id ->
      let root = List.hd (chain_names i) in
      Alcotest.(check int)
        (Printf.sprintf "c%d homed on its root's router" i)
        (Cluster.router_of_fn cluster
           ~fn_id:(Cluster.fn_id cluster ~name:root))
        (Workflow.wf_router wf ~wf_id:id))
    ids;
  let homes = List.map (fun id -> Workflow.wf_router wf ~wf_id:id) ids in
  Alcotest.(check bool) "both routers have homes" true
    (List.mem 0 homes && List.mem 1 homes);
  Alcotest.(check int) "all instances completed" 8
    (Workflow.instances_completed wf);
  Alcotest.(check int) "no failures" 0 (Workflow.instances_failed wf);
  for i = 0 to Workflow.Records.count wf - 1 do
    let inst = Workflow.Records.instance wf i in
    let id, _, _ = Hashtbl.find expect inst in
    Alcotest.(check int) "record produced in the home group"
      (Workflow.wf_router wf ~wf_id:id)
      (Cluster.router_of_server cluster (Workflow.Records.server wf i))
  done;
  Hashtbl.iter
    (fun inst (_, g, seed) ->
      let values = Workflow.oracle_values g ~seed in
      Array.iteri
        (fun v expect_v ->
          Alcotest.(check int)
            (Printf.sprintf "instance %d node %d" inst v)
            expect_v
            (Workflow.value wf ~instance:inst ~node:v))
        values)
    expect;
  (match check_identity_rows wf with
  | Some why -> Alcotest.fail why
  | None -> ());
  List.iter
    (fun fuse ->
      let _, reference, _, _ = run ~fuse ~shards:1 () in
      let reference = stream reference in
      List.iter
        (fun shards ->
          let _, w, _, _ = run ~fuse ~shards () in
          Alcotest.(check bool)
            (Printf.sprintf
               "routers=2 stream identical at shards=%d (fuse=%b)" shards fuse)
            true
            (stream w = reference))
        [ 2; 4 ])
    [ false; true ]

let test_multi_router_batch () =
  (* batch ingestion on a 2-router plane: rows are sliced per home
     router and armed on its engine; the run is deterministic and
     shard-invariant, and every row starts and completes *)
  let run shards =
    let _, wf, _ = multi_router_manager ~shards () in
    let b = Batch.create () in
    for k = 0 to 19 do
      Batch.add b
        ~at:(Time.span_us (float_of_int (k * 7)))
        ~fn_id:(k mod 4) ~payload:(500 + k)
    done;
    Workflow.schedule_batch ~window:4 wf b;
    Workflow.run wf;
    wf
  in
  let a = run 1 in
  Alcotest.(check int) "all started" 20 (Workflow.instances_started a);
  Alcotest.(check int) "all completed" 20 (Workflow.instances_completed a);
  (match check_identity_rows a with
  | Some why -> Alcotest.fail why
  | None -> ());
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "batch stream identical at shards=%d" shards)
        true
        (stream (run shards) = stream a))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Failure semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_rejected_unit_fails_instance () =
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed:3 ()
  in
  register_palette cluster;
  let wf = Workflow.create ~cluster () in
  let graph = graph_of_shape { Harness.Dag.nodes = 2; edges = [ (0, 1) ] } in
  let id = Workflow.register wf ~name:"g" graph in
  (* the only server is down: the router rejects the first dispatch *)
  Cluster.mark_down cluster 0;
  ignore (Workflow.start wf ~wf_id:id ());
  Workflow.run wf;
  Alcotest.(check int) "failed" 1 (Workflow.instances_failed wf);
  Alcotest.(check int) "not completed" 0 (Workflow.instances_completed wf);
  Alcotest.(check int) "no records" 0 (Workflow.Records.count wf)

(* ------------------------------------------------------------------ *)
(* Batch ingestion                                                     *)
(* ------------------------------------------------------------------ *)

let test_schedule_batch_deterministic () =
  let graph = graph_of_shape { Harness.Dag.nodes = 3; edges = [ (0, 1); (1, 2) ] } in
  let mk () =
    let cluster =
      Cluster.create_sharded ~servers:2 ~topology:small_topology ~seed:5 ()
    in
    register_palette cluster;
    let wf = Workflow.create ~cluster () in
    let id = Workflow.register wf ~name:"g" graph in
    Workflow.provision wf ~wf_id:id ~per_unit:8;
    (wf, id)
  in
  let batch wf_id =
    let b = Batch.create () in
    List.iter
      (fun us -> Batch.add b ~at:(Time.span_us us) ~fn_id:wf_id ~payload:0)
      [ 5.0; 1.0; 9.0; 1.0 ];
    Batch.sort b;
    (* stamp explicit instance seeds onto rows 0 and 2 *)
    Batch.stamp_payloads b (fun i -> if i mod 2 = 0 then 100 + i else 0);
    b
  in
  let run () =
    let wf, id = mk () in
    Workflow.schedule_batch ~window:2 wf (batch id);
    Workflow.run wf;
    wf
  in
  let a = run () in
  let b = run () in
  Alcotest.(check int) "all started" 4 (Workflow.instances_started a);
  Alcotest.(check int) "all completed" 4 (Workflow.instances_completed a);
  Alcotest.(check bool) "two ingestions identical" true (stream a = stream b);
  (* stamped seeds are honoured: arrival row 0 became instance 0 with
     seed 100, row 2 instance 2 with seed 102; unstamped rows default
     to their instance id *)
  List.iteri
    (fun inst seed ->
      let expect = Workflow.oracle_values graph ~seed in
      for v = 0 to 2 do
        Alcotest.(check int)
          (Printf.sprintf "instance %d node %d" inst v)
          expect.(v)
          (Workflow.value a ~instance:inst ~node:v)
      done)
    [ 100; 1; 102; 3 ]

let test_schedule_batch_validates () =
  let cluster =
    Cluster.create_sharded ~servers:1 ~topology:small_topology ~seed:5 ()
  in
  register_palette cluster;
  let wf = Workflow.create ~cluster () in
  let b = Batch.create () in
  Batch.add b ~at:(Time.span_us 1.0) ~fn_id:9 ~payload:0;
  Alcotest.check_raises "unknown wf id"
    (Invalid_argument "Workflow.schedule_batch: unknown workflow id 9")
    (fun () -> Workflow.schedule_batch wf b)

(* ------------------------------------------------------------------ *)
(* Builder validation                                                  *)
(* ------------------------------------------------------------------ *)

let test_builder_validation () =
  let b = Workflow.Builder.create () in
  Alcotest.check_raises "forward dep"
    (Invalid_argument "Workflow.Builder.add: dep 0 of node 0") (fun () ->
      ignore
        (Workflow.Builder.add b ~name:"x" ~mode:Platform.Cold ~deps:[ 0 ]));
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Workflow.Builder.build: empty graph") (fun () ->
      ignore (Workflow.Builder.build (Workflow.Builder.create ())))

let () =
  Alcotest.run "horse_workflow_dag"
    [
      ( "oracle",
        [
          Alcotest.test_case "generated DAGs: fused = unfused = sequential"
            `Quick test_oracle_equivalence;
          Alcotest.test_case "shards x policies identity" `Quick
            test_shard_policy_identity;
        ] );
      ( "planner",
        [
          Alcotest.test_case "NFV chain fuses to one unit" `Quick
            test_planner_fuses_nfv_chain;
          Alcotest.test_case "non-uLL chain untouched" `Quick
            test_planner_leaves_non_ull_alone;
          Alcotest.test_case "mixed chain fuses prefix only" `Quick
            test_planner_mixed_chain;
          Alcotest.test_case "diamond stays unfused" `Quick
            test_planner_respects_branches;
          Alcotest.test_case "fused segment resumes once" `Quick
            test_fused_single_resume;
        ] );
      ( "router plane",
        [
          Alcotest.test_case "chains homed per router, oracle + identity"
            `Quick test_multi_router_plane;
          Alcotest.test_case "batch ingestion sliced per router" `Quick
            test_multi_router_batch;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "chain latency identity" `Quick
            test_chain_latency_identity;
          Alcotest.test_case "node rows read the platform rows" `Quick
            test_rows_are_platform_rows;
          Alcotest.test_case "chain hops are 2x placement (sharded)" `Quick
            test_chain_hops_sharded;
          Alcotest.test_case "rejected dispatch fails the instance" `Quick
            test_rejected_unit_fails_instance;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "batch starts: deterministic + stamped seeds"
            `Quick test_schedule_batch_deterministic;
          Alcotest.test_case "batch validates workflow ids" `Quick
            test_schedule_batch_validates;
        ] );
      ( "builder",
        [ Alcotest.test_case "validation" `Quick test_builder_validation ] );
    ]
