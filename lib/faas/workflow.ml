(* Workflow DAGs over a cluster, with platform-side fusion.

   The stepper is completion-driven and lives entirely on the router
   plane: every instance is keyed to the router owning its root
   function (node 0's original function — stable whether or not the
   root fused), [start] dispatches every zero-indegree unit through
   [Cluster.trigger_id ~router], and each completion callback
   (delivered by the cluster in router order, always on the owning
   router's timeline because pinned triggers never spill) decrements
   its successors' pending counts and dispatches the ones that reach
   zero.  All mutable stepper state — instance tables, counters, the
   record arenas, the e2e streams — is partitioned per router, so no
   state is ever touched from a server shard or from another router's
   strand, and DAG traversal is bit-identical across --jobs, --shards
   and every scheduling policy for free.

   Completion values are a pure int mix over (instance seed, function
   name, node index, predecessor values in ascending node order) —
   deliberately independent of timing, placement and policy, so the
   sequential oracle, the unfused run and the fused run must all
   produce the same numbers or something is wrong with the traversal
   itself. *)

module Time = Horse_sim.Time_ns
module Engine = Horse_sim.Engine
module Stats = Horse_sim.Stats
module Sandbox = Horse_vmm.Sandbox
module Batch = Horse_trace.Batch
module Category = Horse_workload.Category
module Thumbnail = Horse_workload.Thumbnail

(* ------------------------------------------------------------------ *)
(* Graphs                                                              *)
(* ------------------------------------------------------------------ *)

type node = {
  n_name : string;
  n_mode : Platform.start_mode;
  n_deps : int array;  (* ascending, all < own index *)
  n_key : int;  (* pure hash of [n_name], feeds the value mix *)
}

type graph = {
  g_nodes : node array;
  g_succs : int array array;  (* ascending successor indices *)
}

(* A pure, platform-independent string hash (FNV-1a folded into the
   62-bit positive range) — [Hashtbl.hash] is not contractually stable
   and the oracle must agree with every execution mode forever. *)
let value_mask = (1 lsl 62) - 1

let fnv s =
  String.fold_left
    (fun h c -> (h lxor Char.code c) * 0x100000001b3 land value_mask)
    0xcbf29ce4 s

let mix h v = ((h lxor v) * 0x100000001b3 land value_mask) lxor (h lsr 31)

(* The completion value of [i] given its predecessors' values. *)
let node_value g ~seed ~values i =
  let n = g.g_nodes.(i) in
  let h = mix (mix seed n.n_key) i in
  Array.fold_left (fun h d -> mix h values.(d)) h n.n_deps

let oracle_values g ~seed =
  let n = Array.length g.g_nodes in
  let values = Array.make n 0 in
  (* edges point forward, so index order is a topological order *)
  for i = 0 to n - 1 do
    values.(i) <- node_value g ~seed ~values i
  done;
  values

module Builder = struct
  type t = { mutable rev_nodes : node list; mutable count : int }

  let create () = { rev_nodes = []; count = 0 }

  let add b ~name ~mode ~deps =
    let id = b.count in
    List.iteri
      (fun k d ->
        if d < 0 || d >= id then
          invalid_arg
            (Printf.sprintf "Workflow.Builder.add: dep %d of node %d" d id);
        if List.exists (fun d' -> d' = d) (List.filteri (fun j _ -> j < k) deps)
        then
          invalid_arg
            (Printf.sprintf "Workflow.Builder.add: duplicate dep %d" d))
      deps;
    let n_deps = Array.of_list (List.sort_uniq compare deps) in
    b.rev_nodes <-
      { n_name = name; n_mode = mode; n_deps; n_key = fnv name }
      :: b.rev_nodes;
    b.count <- id + 1;
    id

  let build b =
    if b.count = 0 then invalid_arg "Workflow.Builder.build: empty graph";
    let g_nodes = Array.of_list (List.rev b.rev_nodes) in
    let succs = Array.make (Array.length g_nodes) [] in
    Array.iteri
      (fun i n ->
        Array.iter (fun d -> succs.(d) <- i :: succs.(d)) n.n_deps)
      g_nodes;
    { g_nodes; g_succs = Array.map (fun l -> Array.of_list (List.rev l)) succs }
end

let chain nodes =
  let b = Builder.create () in
  List.iteri
    (fun i (name, mode) ->
      ignore (Builder.add b ~name ~mode ~deps:(if i = 0 then [] else [ i - 1 ])))
    nodes;
  Builder.build b

let node_count g = Array.length g.g_nodes

let check_node g i =
  if i < 0 || i >= Array.length g.g_nodes then
    invalid_arg "Workflow: node index out of range"

let node_name g i =
  check_node g i;
  g.g_nodes.(i).n_name

let node_mode g i =
  check_node g i;
  g.g_nodes.(i).n_mode

let deps g i =
  check_node g i;
  Array.to_list g.g_nodes.(i).n_deps

(* ------------------------------------------------------------------ *)
(* Composed workloads                                                  *)
(* ------------------------------------------------------------------ *)

let nfv_defs () =
  [
    Function_def.create ~name:"nfv-firewall" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Ull Category.Cat1) ();
    Function_def.create ~name:"nfv-nat" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Ull Category.Cat2) ();
    Function_def.create ~name:"nfv-filter" ~vcpus:1 ~memory_mb:128
      ~exec:(Function_def.Ull Category.Cat3) ();
  ]

let nfv_chain ?(strategy = Sandbox.Horse) () =
  chain
    [
      ("nfv-firewall", Platform.Warm strategy);
      ("nfv-nat", Platform.Warm strategy);
      ("nfv-filter", Platform.Warm strategy);
    ]

let thumbnail_defs () =
  [
    Function_def.create ~name:"thumb-generate" ~vcpus:2 ~memory_mb:512
      ~exec:
        (Function_def.Sampled
           (fun rng ->
             Thumbnail.latency_model ~variability:0.25 rng
               ~image_bytes:Thumbnail.default_image_bytes))
      ();
    Function_def.create ~name:"thumb-store" ~vcpus:1 ~memory_mb:256
      ~exec:(Function_def.Fixed (Time.span_ms 2.0))
      ();
  ]

let thumbnail_store () =
  chain
    [
      ("thumb-generate", Platform.Warm Sandbox.Vanilla);
      ("thumb-store", Platform.Warm Sandbox.Vanilla);
    ]

(* ------------------------------------------------------------------ *)
(* Planning: fusion of maximal uLL chain segments                      *)
(* ------------------------------------------------------------------ *)

type unit_ = {
  u_fn_id : int;  (* cluster fn id this unit triggers *)
  u_mode : Platform.start_mode;
  u_members : int array;  (* node indices, execution order *)
  u_deps : int array;  (* unit indices *)
  mutable u_succs : int array;
}

type wf = {
  w_name : string;
  w_graph : graph;
  w_units : unit_ array;
  w_router : int;  (* router owning node 0's original function *)
}

(* A node is fusable when its function is uLL and it starts warm: only
   then does fusing eliminate a real resume/pause pair, and only a
   pool-backed start has no per-member provisioning semantics to
   preserve. *)
let fusable cluster g i =
  let n = g.g_nodes.(i) in
  match n.n_mode with
  | Platform.Warm _ -> (
    let reg = Platform.registry (Cluster.server cluster 0) in
    match Function_def.Registry.find reg n.n_name with
    | Some id -> (Function_def.Registry.def reg id).Function_def.ull
    | None -> false)
  | Platform.Cold | Platform.Restore -> false

(* Greedily extend maximal chain segments: node [j] absorbs its unique
   successor [s] when the j->s edge is the only one on either side,
   both ends are fusable and share the start mode.  Segments are keyed
   by head node, so planning is deterministic in node order. *)
let plan_segments cluster g =
  let n = Array.length g.g_nodes in
  let segment_of = Array.make n (-1) in
  let segments = ref [] in
  for i = 0 to n - 1 do
    if segment_of.(i) < 0 && fusable cluster g i then begin
      let members = ref [ i ] in
      let rec extend j =
        if Array.length g.g_succs.(j) = 1 then begin
          let s = g.g_succs.(j).(0) in
          if
            Array.length g.g_nodes.(s).n_deps = 1
            && fusable cluster g s
            && g.g_nodes.(s).n_mode = g.g_nodes.(i).n_mode
            && segment_of.(s) < 0
          then begin
            members := s :: !members;
            extend s
          end
        end
      in
      extend i;
      let members = Array.of_list (List.rev !members) in
      if Array.length members >= 2 then begin
        Array.iter (fun m -> segment_of.(m) <- i) members;
        segments := (i, members) :: !segments
      end
    end
  done;
  (segment_of, List.rev !segments)

let fn_id_of_name cluster name =
  match Cluster.fn_id cluster ~name with
  | id -> id
  | exception Platform.Unknown_function n ->
    invalid_arg
      (Printf.sprintf "Workflow.register: function %s is not registered" n)

(* Register one fused function per segment: summed member execution
   (sampled member-by-member in chain order, so the fused draw costs
   the rng exactly what the unfused draws would), the vCPU/memory
   maximum of the members, uLL so the fused sandbox still rides the
   ull_runqueue fast path. *)
let register_fused cluster ~wf_name ~head members_defs =
  let name = Printf.sprintf "__fused:%s:%d" wf_name head in
  let vcpus =
    List.fold_left (fun a (d : Function_def.t) -> max a d.vcpus) 1 members_defs
  in
  let memory_mb =
    List.fold_left
      (fun a (d : Function_def.t) -> max a d.memory_mb)
      1 members_defs
  in
  let exec =
    Function_def.Sampled
      (fun rng ->
        List.fold_left
          (fun acc d -> Time.add_span acc (Function_def.sample_exec d rng))
          Time.span_zero members_defs)
  in
  Cluster.register cluster
    (Function_def.create ~name ~vcpus ~memory_mb ~exec ~ull:true ());
  name

let build_units cluster ~fuse ~wf_name g =
  let n = Array.length g.g_nodes in
  let segment_of, segments =
    if fuse then plan_segments cluster g else (Array.make n (-1), [])
  in
  let reg = Platform.registry (Cluster.server cluster 0) in
  (* one unit per segment head or un-fused node, in node order *)
  let unit_of_node = Array.make n (-1) in
  let rev_units = ref [] in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let head = if segment_of.(i) >= 0 then segment_of.(i) else i in
    if head = i then begin
      let members =
        match List.assoc_opt i segments with
        | Some ms -> ms
        | None -> [| i |]
      in
      let fn_id =
        if Array.length members >= 2 then begin
          let defs =
            Array.to_list
              (Array.map
                 (fun m ->
                   let id =
                     Option.get
                       (Function_def.Registry.find reg g.g_nodes.(m).n_name)
                   in
                   Function_def.Registry.def reg id)
                 members)
          in
          fn_id_of_name cluster
            (register_fused cluster ~wf_name ~head:i defs)
        end
        else fn_id_of_name cluster g.g_nodes.(i).n_name
      in
      let u =
        {
          u_fn_id = fn_id;
          u_mode = g.g_nodes.(i).n_mode;
          u_members = members;
          u_deps = [||];
          u_succs = [||];
        }
      in
      rev_units := u :: !rev_units;
      Array.iter (fun m -> unit_of_node.(m) <- !count) members;
      incr count
    end
  done;
  let units = Array.of_list (List.rev !rev_units) in
  (* unit dependencies: the head member's node deps, mapped to units
     (interior members depend only on their predecessor in-segment) *)
  let units =
    Array.map
      (fun u ->
        let head = u.u_members.(0) in
        let u_deps =
          Array.map (fun d -> unit_of_node.(d)) g.g_nodes.(head).n_deps
        in
        { u with u_deps = Array.of_list (List.sort_uniq compare (Array.to_list u_deps)) })
      units
  in
  let succs = Array.make (Array.length units) [] in
  Array.iteri
    (fun i u -> Array.iter (fun d -> succs.(d) <- i :: succs.(d)) u.u_deps)
    units;
  Array.iteri
    (fun i u -> u.u_succs <- Array.of_list (List.rev succs.(i)))
    units;
  units

(* ------------------------------------------------------------------ *)
(* The manager                                                         *)
(* ------------------------------------------------------------------ *)

type inst = {
  i_wf : int;
  i_seed : int;
  i_started_ns : int;
  i_pending : int array;  (* per unit: deps not yet completed *)
  i_values : int array;  (* per node *)
  i_done : bool array;  (* per node *)
  mutable i_remaining : int;  (* units still to complete *)
  mutable i_failed : bool;
  i_on_complete : (instance:int -> at:Time.t -> unit) option;
}

(* Node records: a trigger_records-style struct-of-arrays arena, nine
   int columns grown by doubling, addressed by slot index. *)
type records = {
  mutable r_len : int;
  mutable r_inst : int array;
  mutable r_node : int array;
  mutable r_value : int array;
  mutable r_server : int array;
  mutable r_trig : int array;
  mutable r_init : int array;
  mutable r_exec : int array;
  mutable r_preempt : int array;
  mutable r_comp : int array;
}

(* Per-router partition of the stepper's mutable state: instance
   tables are keyed by packed id [local * routers + router] (so ids
   stay dense and equal the historical global counter when
   [routers = 1]), and every array below is indexed by router. *)
type t = {
  t_cluster : Cluster.t;
  t_fuse : bool;
  mutable t_wfs : wf array;
  t_by_name : (string, int) Hashtbl.t;
  t_routers : int;
  t_insts : (int, inst) Hashtbl.t array;
  t_next_local : int array;
  t_completed : int array;
  t_failed : int array;
  t_e2e : Stats.Quantile.t array;
  t_arenas : records array;
  mutable t_merged : records option;  (* router-major view, memoized *)
  mutable t_merged_len : int;
}

let fresh_records () =
  {
    r_len = 0;
    r_inst = Array.make 64 0;
    r_node = Array.make 64 0;
    r_value = Array.make 64 0;
    r_server = Array.make 64 0;
    r_trig = Array.make 64 0;
    r_init = Array.make 64 0;
    r_exec = Array.make 64 0;
    r_preempt = Array.make 64 0;
    r_comp = Array.make 64 0;
  }

let create ?(fuse = false) ~cluster () =
  let routers = Cluster.router_count cluster in
  {
    t_cluster = cluster;
    t_fuse = fuse;
    t_wfs = [||];
    t_by_name = Hashtbl.create 8;
    t_routers = routers;
    t_insts = Array.init routers (fun _ -> Hashtbl.create 64);
    t_next_local = Array.make routers 0;
    t_completed = Array.make routers 0;
    t_failed = Array.make routers 0;
    t_e2e =
      Array.init routers (fun _ ->
          Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ());
    t_arenas = Array.init routers (fun _ -> fresh_records ());
    t_merged = None;
    t_merged_len = -1;
  }

let cluster t = t.t_cluster

let fuse t = t.t_fuse

let register t ~name g =
  if Hashtbl.mem t.t_by_name name then
    invalid_arg (Printf.sprintf "Workflow.register: %s already registered" name);
  (* validate every node's function before any fused side effects *)
  Array.iter
    (fun n -> ignore (fn_id_of_name t.t_cluster n.n_name))
    g.g_nodes;
  (* the instance's home router: node 0's *original* function, so the
     key is stable whether or not the root ends up inside a fused
     segment (the fused function's fresh id would hash elsewhere) *)
  let w_router =
    Cluster.router_of_fn t.t_cluster
      ~fn_id:(fn_id_of_name t.t_cluster g.g_nodes.(0).n_name)
  in
  let units = build_units t.t_cluster ~fuse:t.t_fuse ~wf_name:name g in
  let id = Array.length t.t_wfs in
  t.t_wfs <-
    Array.append t.t_wfs
      [| { w_name = name; w_graph = g; w_units = units; w_router } |];
  Hashtbl.replace t.t_by_name name id;
  id

let wf t id =
  if id < 0 || id >= Array.length t.t_wfs then
    invalid_arg "Workflow: unknown workflow id";
  t.t_wfs.(id)

let wf_id t ~name =
  match Hashtbl.find_opt t.t_by_name name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Workflow.wf_id: unknown workflow %s" name)

let unit_count t ~wf_id = Array.length (wf t wf_id).w_units

let unit_members t ~wf_id =
  Array.to_list
    (Array.map (fun u -> Array.to_list u.u_members) (wf t wf_id).w_units)

let provision t ~wf_id ~per_unit =
  let w = wf t wf_id in
  (* park every unit's pool in the owning router's group — dispatches
     are pinned there, so affine placement would strand the warmth of
     any function hashing to another router *)
  Array.iter
    (fun u ->
      match u.u_mode with
      | Platform.Warm strategy ->
        Cluster.provision t.t_cluster ~router:w.w_router
          ~name:(Cluster.function_name t.t_cluster ~fn_id:u.u_fn_id)
          ~total:per_unit ~strategy
      | Platform.Cold | Platform.Restore -> ())
    w.w_units

(* -- the record arena ---------------------------------------------- *)

let append_record r ~inst ~node ~value ~server ~trig ~init ~exec ~preempt
    ~comp =
  let cap = Array.length r.r_inst in
  if r.r_len = cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    r.r_inst <- grow r.r_inst;
    r.r_node <- grow r.r_node;
    r.r_value <- grow r.r_value;
    r.r_server <- grow r.r_server;
    r.r_trig <- grow r.r_trig;
    r.r_init <- grow r.r_init;
    r.r_exec <- grow r.r_exec;
    r.r_preempt <- grow r.r_preempt;
    r.r_comp <- grow r.r_comp
  end;
  let i = r.r_len in
  r.r_inst.(i) <- inst;
  r.r_node.(i) <- node;
  r.r_value.(i) <- value;
  r.r_server.(i) <- server;
  r.r_trig.(i) <- trig;
  r.r_init.(i) <- init;
  r.r_exec.(i) <- exec;
  r.r_preempt.(i) <- preempt;
  r.r_comp.(i) <- comp;
  r.r_len <- i + 1

(* -- dispatch and completion --------------------------------------- *)

let rec dispatch t inst_id inst u_id =
  let w = t.t_wfs.(inst.i_wf) in
  let u = w.w_units.(u_id) in
  (* pinned to the instance's home router: the completion callback is
     guaranteed to fire on that router's timeline (pinned triggers
     never spill), so the whole traversal stays on one strand *)
  match
    Cluster.trigger_id t.t_cluster ~router:w.w_router ~fn_id:u.u_fn_id
      ~mode:u.u_mode
      ~on_complete:(fun (server, record) ->
        unit_complete t inst_id u_id ~server record)
      ()
  with
  | Cluster.Accepted _ | Cluster.Queued | Cluster.Forwarded _ -> ()
  | Cluster.Rejected _ ->
    if not inst.i_failed then begin
      inst.i_failed <- true;
      t.t_failed.(w.w_router) <- t.t_failed.(w.w_router) + 1
    end

and unit_complete t inst_id u_id ~server (record : Platform.record) =
  let router = inst_id mod t.t_routers in
  match Hashtbl.find_opt t.t_insts.(router) inst_id with
  | None -> ()
  | Some inst ->
    let w = t.t_wfs.(inst.i_wf) in
    let g = w.w_graph in
    let u = w.w_units.(u_id) in
    let trig_ns = Time.to_ns record.Platform.triggered_at in
    let comp_ns = Time.to_ns record.Platform.completed_at in
    let last = Array.length u.u_members - 1 in
    Array.iteri
      (fun k node ->
        inst.i_values.(node) <-
          node_value g ~seed:inst.i_seed ~values:inst.i_values node;
        inst.i_done.(node) <- true;
        (* interior fused members record zero-width rows at the fused
           completion instant, so the per-row latency identity
           [comp - trig = init + exec + preemption] holds everywhere;
           the last member carries the fused record's real timings *)
        if k = last then
          append_record t.t_arenas.(router) ~inst:inst_id ~node
            ~value:inst.i_values.(node) ~server ~trig:trig_ns
            ~init:(Time.span_to_ns record.Platform.init)
            ~exec:(Time.span_to_ns record.Platform.exec)
            ~preempt:(Time.span_to_ns record.Platform.preemption)
            ~comp:comp_ns
        else
          append_record t.t_arenas.(router) ~inst:inst_id ~node
            ~value:inst.i_values.(node) ~server ~trig:comp_ns ~init:0 ~exec:0
            ~preempt:0 ~comp:comp_ns)
      u.u_members;
    inst.i_remaining <- inst.i_remaining - 1;
    if inst.i_remaining = 0 then begin
      t.t_completed.(router) <- t.t_completed.(router) + 1;
      Stats.Quantile.add t.t_e2e.(router)
        (float_of_int (comp_ns - inst.i_started_ns) /. 1e3);
      match inst.i_on_complete with
      | Some f -> f ~instance:inst_id ~at:record.Platform.completed_at
      | None -> ()
    end
    else
      Array.iter
        (fun s ->
          inst.i_pending.(s) <- inst.i_pending.(s) - 1;
          if inst.i_pending.(s) = 0 then dispatch t inst_id inst s)
        u.u_succs

let start ?seed ?on_complete t ~wf_id () =
  let w = wf t wf_id in
  let r = w.w_router in
  let local = t.t_next_local.(r) in
  t.t_next_local.(r) <- local + 1;
  let inst_id = (local * t.t_routers) + r in
  let n = Array.length w.w_graph.g_nodes in
  let inst =
    {
      i_wf = wf_id;
      i_seed = Option.value ~default:inst_id seed;
      i_started_ns =
        Time.to_ns (Engine.now (Cluster.router_engine t.t_cluster r));
      i_pending = Array.map (fun u -> Array.length u.u_deps) w.w_units;
      i_values = Array.make n 0;
      i_done = Array.make n false;
      i_remaining = Array.length w.w_units;
      i_failed = false;
      i_on_complete = on_complete;
    }
  in
  Hashtbl.replace t.t_insts.(r) inst_id inst;
  Array.iteri
    (fun u_id u ->
      if Array.length u.u_deps = 0 then dispatch t inst_id inst u_id)
    w.w_units;
  inst_id

let schedule_batch ?(window = 4096) t batch =
  if window < 1 then invalid_arg "Workflow.schedule_batch: window < 1";
  if not (Batch.sorted batch) then
    invalid_arg "Workflow.schedule_batch: unsorted batch";
  let n = Batch.length batch in
  for k = 0 to n - 1 do
    let w = Batch.fn_id batch k in
    if w < 0 || w >= Array.length t.t_wfs then
      invalid_arg
        (Printf.sprintf "Workflow.schedule_batch: unknown workflow id %d" w)
  done;
  let fire k =
    let wf_id = Batch.fn_id batch k in
    let payload = Batch.payload batch k in
    let seed = if payload = 0 then None else Some payload in
    ignore (start ?seed t ~wf_id ())
  in
  (* windowed cursor in the cluster's schedule_batch style: slice the
     batch's row indices per home router, then on each router's engine
     arm one window of arrivals; the last arrival of each window arms
     the next, so each event queue holds [window] workflow starts at
     most and each router's starts fire on its own timeline *)
  let rc = t.t_routers in
  let counts = Array.make rc 0 in
  for k = 0 to n - 1 do
    let r = t.t_wfs.(Batch.fn_id batch k).w_router in
    counts.(r) <- counts.(r) + 1
  done;
  let rows = Array.init rc (fun r -> Array.make counts.(r) 0) in
  let fill = Array.make rc 0 in
  for k = 0 to n - 1 do
    let r = t.t_wfs.(Batch.fn_id batch k).w_router in
    rows.(r).(fill.(r)) <- k;
    fill.(r) <- fill.(r) + 1
  done;
  for r = 0 to rc - 1 do
    let slice = rows.(r) in
    let m = Array.length slice in
    if m > 0 then begin
      let engine = Cluster.router_engine t.t_cluster r in
      let base = Engine.now engine in
      let rec arm j ~stop =
        if j < stop then begin
          let refills = j = stop - 1 && stop < m in
          let k = slice.(j) in
          ignore
            (Engine.schedule_at engine
               ~at:(Time.add base (Batch.time batch k))
               (fun _ ->
                 fire k;
                 if refills then arm stop ~stop:(min m (stop + window))));
          arm (j + 1) ~stop
        end
      in
      arm 0 ~stop:(min m window)
    end
  done

let run t = Cluster.run t.t_cluster

let instances_started t = Array.fold_left ( + ) 0 t.t_next_local

let instances_completed t = Array.fold_left ( + ) 0 t.t_completed

let instances_failed t = Array.fold_left ( + ) 0 t.t_failed

(* Like [Cluster.e2e_latencies]: router 0's live stream with one
   router, a fresh exact merge with several. *)
let e2e t =
  if t.t_routers = 1 then t.t_e2e.(0)
  else Stats.Quantile.merge (Array.to_list t.t_e2e)

let e2e_of t r =
  if r < 0 || r >= t.t_routers then
    invalid_arg "Workflow.e2e_of: router out of range";
  t.t_e2e.(r)

let wf_router t ~wf_id = (wf t wf_id).w_router

let value t ~instance ~node =
  let r = instance mod t.t_routers in
  match
    if r < 0 then None else Hashtbl.find_opt t.t_insts.(r) instance
  with
  | None -> invalid_arg "Workflow.value: unknown instance"
  | Some inst ->
    if node < 0 || node >= Array.length inst.i_values || not inst.i_done.(node)
    then invalid_arg "Workflow.value: node not completed";
    inst.i_values.(node)

(* The router-major merged arena: router 0's rows in completion order,
   then router 1's, … — exactly the single arena when [routers = 1]
   (returned in place, no copy), rebuilt and memoized on total length
   otherwise. *)
let merged t =
  if t.t_routers = 1 then t.t_arenas.(0)
  else begin
    let len = Array.fold_left (fun a r -> a + r.r_len) 0 t.t_arenas in
    match t.t_merged with
    | Some m when t.t_merged_len = len -> m
    | _ ->
      let cat col =
        let out = Array.make (max len 1) 0 in
        let off = ref 0 in
        Array.iter
          (fun a ->
            Array.blit (col a) 0 out !off a.r_len;
            off := !off + a.r_len)
          t.t_arenas;
        out
      in
      let m =
        {
          r_len = len;
          r_inst = cat (fun a -> a.r_inst);
          r_node = cat (fun a -> a.r_node);
          r_value = cat (fun a -> a.r_value);
          r_server = cat (fun a -> a.r_server);
          r_trig = cat (fun a -> a.r_trig);
          r_init = cat (fun a -> a.r_init);
          r_exec = cat (fun a -> a.r_exec);
          r_preempt = cat (fun a -> a.r_preempt);
          r_comp = cat (fun a -> a.r_comp);
        }
      in
      t.t_merged <- Some m;
      t.t_merged_len <- len;
      m
  end

module Records = struct
  let count t = Array.fold_left (fun a r -> a + r.r_len) 0 t.t_arenas

  let read col t i =
    let r = merged t in
    if i < 0 || i >= r.r_len then
      invalid_arg "Workflow.Records: slot out of range";
    col r i

  let instance t i = read (fun r i -> r.r_inst.(i)) t i

  let node t i = read (fun r i -> r.r_node.(i)) t i

  let value t i = read (fun r i -> r.r_value.(i)) t i

  let server t i = read (fun r i -> r.r_server.(i)) t i

  let triggered_ns t i = read (fun r i -> r.r_trig.(i)) t i

  let init_ns t i = read (fun r i -> r.r_init.(i)) t i

  let exec_ns t i = read (fun r i -> r.r_exec.(i)) t i

  let preemption_ns t i = read (fun r i -> r.r_preempt.(i)) t i

  let completed_ns t i = read (fun r i -> r.r_comp.(i)) t i
end
