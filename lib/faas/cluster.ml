module Engine = Horse_sim.Engine
module Shard_engine = Horse_sim.Shard_engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Fault = Horse_fault.Fault
module Team = Horse_parallel.Team
module Batch = Horse_trace.Batch

type reject_reason = All_servers_down | No_warm_capacity

let reject_reason_name = function
  | All_servers_down -> "all-servers-down"
  | No_warm_capacity -> "no-warm-capacity"

type rejection = {
  reason : reject_reason;
  function_name : string;
  at : Time.t;
}

type outcome =
  | Accepted of int
  | Rejected of rejection
  | Queued
  | Forwarded of int

(* The scheduling-policy interface.  A policy sees one router's slice
   of the fleet only through a {!Policy.view} — the router's own
   message-maintained mirrors of per-server health, live count, busy
   vCPUs and warm pools, all indexed by the router-local server index —
   and answers with a {!Policy.decision}.  Event hooks ([on_completion]
   etc.) run on that router's timeline, in deterministic
   message-delivery order, and return {e claims}: local server indices
   asking to be handed a queued trigger.  The router resolves claims
   against its own pending queue (dispatching one trigger per claim,
   or calling [on_claim_unused] when the queue is dry), so policies
   never touch triggers directly and every policy inherits the
   cluster's bit-identical execution discipline.  A multi-router
   cluster instantiates the policy once per router over that router's
   server group; the instances never share state. *)
module Policy = struct
  type view = {
    v_healthy : bool array;
    v_live : int array;  (* believed live invocations per server *)
    v_busy : int array;  (* believed busy vCPUs per server *)
    mutable v_warm : int array;
        (* believed warm-pool size per server, for the function being
           decided *)
    v_total_vcpus : int;  (* logical CPUs per server *)
    v_pending : unit -> int;  (* triggers waiting in the router queue *)
    v_least_loaded : unit -> int option;
        (* lowest-indexed healthy server with minimal [v_live], via the
           router's O(1)-amortized load index *)
  }

  type decision = Assign of int | Enqueue

  type instance = {
    label : string;
    decide : view -> vcpus:int -> needs_pool:bool -> decision;
    on_completion : view -> server:int -> int list;
    on_rejection : view -> server:int -> int list;
    on_health_change : view -> server:int -> up:bool -> int list;
    on_provision : server:int -> count:int -> unit;
    on_claim_unused : server:int -> unit;
  }

  type t = { p_name : string; p_make : servers:int -> instance }

  let name p = p.p_name

  let instantiate p ~servers = p.p_make ~servers

  let v ~name p_make = { p_name = name; p_make }

  (* A policy with no event hooks: [make ~servers] builds one
     instance's [decide], closing over that instance's state. *)
  let hookless ~name make =
    v ~name (fun ~servers ->
        {
          label = name;
          decide = make ~servers;
          on_completion = (fun _ ~server:_ -> []);
          on_rejection = (fun _ ~server:_ -> []);
          on_health_change = (fun _ ~server:_ ~up:_ -> []);
          on_provision = (fun ~server:_ ~count:_ -> ());
          on_claim_unused = (fun ~server:_ -> ());
        })

  let least_loaded view =
    match view.v_least_loaded () with
    | Some i -> Assign i
    | None -> Enqueue (* unreachable: the cluster pre-checks health *)

  (* The push routers place every trigger immediately, from the
     optimistically-debited mirrors; they never enqueue. *)
  let push () =
    hookless ~name:"push-warm-first" (fun ~servers view ~vcpus:_ ~needs_pool ->
        if not needs_pool then least_loaded view
        else begin
          (* the least-loaded healthy server among those holding a warm
             sandbox for the function *)
          let best = ref (-1) in
          for i = 0 to servers - 1 do
            if view.v_healthy.(i) && view.v_warm.(i) > 0 then
              if !best < 0 || view.v_live.(i) < view.v_live.(!best) then
                best := i
          done;
          if !best >= 0 then Assign !best else least_loaded view
        end)

  let push_least_loaded () =
    hookless ~name:"push-least-loaded"
      (fun ~servers:_ view ~vcpus:_ ~needs_pool:_ -> least_loaded view)

  let push_round_robin () =
    hookless ~name:"push-round-robin" (fun ~servers ->
        let cursor = ref 0 in
        fun view ~vcpus:_ ~needs_pool:_ ->
          (* first healthy server at or after the cursor; the cursor
             always advances past the pick so a recovered server rejoins
             rotation *)
          let rec scan steps =
            if steps >= servers then Enqueue
            else begin
              let i = (!cursor + steps) mod servers in
              if view.v_healthy.(i) then begin
                cursor := (i + 1) mod servers;
                Assign i
              end
              else scan (steps + 1)
            end
          in
          scan 0)

  (* Tokens a recovered server restarts with: enough to probe it
     without flooding a post-blackout (pool-less) server, which then
     re-earns capacity one completion at a time. *)
  let pull_restart_window = 2

  (* Pull-based scheduling (Hiku-style): servers hold claim tokens
     mirroring their real free capacity — seeded by provisioning,
     spent per dispatch, earned back per completion — and triggers
     that find no tokens wait in the router queue until an idle server
     claims them.  Because a token only exists when its server just
     proved capacity (a completion landed, or provisioning parked a
     sandbox), stale-mirror misroutes during blackouts disappear: a
     wiped server has no tokens until it recovers, and then only
     [pull_restart_window] of them. *)
  let pull () =
    v ~name:"pull" (fun ~servers ->
        let tokens = Array.make servers 1 in
        (* one baseline token per server so an unprovisioned (cold)
           workload still makes progress: with zero tokens fleet-wide
           and nothing in flight, no completion could ever mint one *)
        let drain view ~server ~grant =
          tokens.(server) <- tokens.(server) + grant;
          let want = min tokens.(server) (view.v_pending ()) in
          if want <= 0 then []
          else begin
            tokens.(server) <- tokens.(server) - want;
            List.init want (fun _ -> server)
          end
        in
        let pick view ok =
          let best = ref (-1) and best_tok = ref 0 in
          for i = 0 to servers - 1 do
            if view.v_healthy.(i) && tokens.(i) > !best_tok && ok i then begin
              best := i;
              best_tok := tokens.(i)
            end
          done;
          !best
        in
        let all _ = true in
        let decide view ~vcpus:_ ~needs_pool =
          let i =
            if needs_pool then begin
              let j = pick view (fun i -> view.v_warm.(i) > 0) in
              if j >= 0 then j else pick view all
            end
            else pick view all
          in
          if i >= 0 then begin
            tokens.(i) <- tokens.(i) - 1;
            Assign i
          end
          else Enqueue
        in
        let earn view ~server =
          if view.v_healthy.(server) then begin
            (* re-sync to the believed free pool rather than
               incrementing: the pool mirror was refreshed to an
               absolute count by this very message (and already
               includes the slot this completion freed), so [+1] would
               double-count it and let tokens outrun real capacity —
               while pure conservation would decay the population,
               because a blackout destroys the tokens its in-flight
               invocations carried (they never complete).  The floor
               of 1 keeps unprovisioned (pool-less) workloads making
               serialized probe progress.  The extra probe under queue
               pressure rebuilds wiped capacity: after a deep blackout
               every pool is empty, so capacity-bound tokens alone
               would pin concurrency near one per server forever —
               one over-commit per completion ramps the fleet back
               exponentially (each probe's cold/restore completion
               parks a fresh sandbox) while never dispatching more
               than twice the proven completion rate.  The probe fires
               only on a concurrency deficit — more triggers waiting
               than the whole fleet has in flight, the deep-wipe
               signature — not during a transient crunch (pool mirrors
               at zero but plenty in flight), where the backlog drains
               at the full completion rate anyway and a probe would
               just buy a needless recovery-ladder hit.  [v_warm] here
               is still the row of the last function decided on this
               router, not necessarily the completing one's. *)
            let fleet_live = ref 0 in
            for i = 0 to servers - 1 do
              fleet_live := !fleet_live + view.v_live.(i)
            done;
            let pressure = if view.v_pending () > !fleet_live then 1 else 0 in
            tokens.(server) <- max view.v_warm.(server) 1 + pressure;
            drain view ~server ~grant:0
          end
          else []
        in
        {
          label = "pull";
          decide;
          on_completion = earn;
          on_rejection = earn;
          on_health_change =
            (fun view ~server ~up ->
              (* down: in-flight tokens died with the server.  up:
                 restart with a small probe window *)
              tokens.(server) <- 0;
              if up then drain view ~server ~grant:pull_restart_window
              else []);
          on_provision =
            (fun ~server ~count -> tokens.(server) <- tokens.(server) + count);
          on_claim_unused =
            (fun ~server -> tokens.(server) <- tokens.(server) + 1);
        })

  (* Core-granular late binding (Kaffes-style): route on per-vCPU
     occupancy, not invocation counts.  The router mirrors each
     server's busy-vCPU total and prefers the server with the most
     free cores that can hold the trigger's [vcpus] outright; the
     server's scheduler then late-binds each vCPU to the
     shallowest-run-queue CPU at dispatch time. *)
  let core_granular () =
    hookless ~name:"core" (fun ~servers ->
        let pick view ok =
          (* most free vCPUs; ties broken by fewest live invocations,
             then lowest index *)
          let best = ref (-1) in
          for i = 0 to servers - 1 do
            if view.v_healthy.(i) && ok i then
              if !best < 0 then best := i
              else begin
                let free_i = view.v_total_vcpus - view.v_busy.(i)
                and free_b = view.v_total_vcpus - view.v_busy.(!best) in
                if
                  free_i > free_b
                  || (free_i = free_b && view.v_live.(i) < view.v_live.(!best))
                then best := i
              end
          done;
          !best
        in
        fun view ~vcpus ~needs_pool ->
          let fits i = view.v_total_vcpus - view.v_busy.(i) >= vcpus in
          let warm i = view.v_warm.(i) > 0 in
          let all _ = true in
          (* tiers: warm holders with room, anyone with room, warm
             holders, anyone — the first non-empty tier wins, so a
             core-saturated fleet still places (and queues server-side)
             rather than rejecting *)
          let i =
            let j =
              if needs_pool then pick view (fun i -> fits i && warm i) else -1
            in
            if j >= 0 then j
            else begin
              let j = pick view fits in
              if j >= 0 then j
              else begin
                let j = if needs_pool then pick view warm else -1 in
                if j >= 0 then j else pick view all
              end
            end
          in
          if i >= 0 then Assign i else Enqueue)

  let builtins () = [ push (); pull (); core_granular () ]
end

(* A trigger the policy chose not to place yet: it waits in the
   router-side queue until a server claims it. *)
type pending_trigger = {
  pt_name : string;
  pt_fn_id : int;
  pt_mode : Platform.start_mode;
  pt_on_complete : (int * Platform.record -> unit) option;
  pt_arrival : Time.t;
}

(* One router shard.  Everything mutable in here is owned by the
   router's strand: hooks, mirrors, queues, the completion log, the
   rejection log, the latency stream and the metrics registry all
   mutate only on [r_engine]'s timeline, in deterministic
   message-delivery order.  The mirrors are the policy view's arrays,
   indexed by the router-local server index. *)
type router = {
  r_id : int;
  r_engine : Engine.t;
  r_group : int array;  (* owned global server indices, ascending *)
  r_policy : Policy.instance;
  r_view : Policy.view;
  r_index : Load_index.t;
      (* bucketed argmin over [v_live] among healthy group servers:
         least-loaded routing without the per-trigger group scan *)
  r_pool : (string, int array) Hashtbl.t;
      (* believed warm-pool size per function per group server *)
  r_pending : pending_trigger Queue.t;  (* router-side claimable queue *)
  r_e2e : Stats.Quantile.t option;
      (* arrival -> router-observed completion, microseconds *)
  r_metrics : Metrics.t;  (* this router's counters (rejections, spills) *)
  mutable r_healthy_n : int;  (* healthy servers in this group *)
  (* Group completion log: one packed (slot, global server) int per
     completion, in router-observed order.  The slot indexes the
     server platform's trigger-record arena, so the log itself costs
     one word per trigger; boxed [(server, record)] pairs are
     materialized on demand (and memoized) by [records]. *)
  mutable r_log : int array;
  mutable r_log_len : int;
  mutable r_rejected : rejection list;  (* newest first *)
}

(* The cluster partitions the run over a {!Shard_engine}: router [r]
   is logical shard [r] (of [R] routers), server [g] is shard [R + g],
   every router<->server interaction crosses a [placement] delay
   through the shard engine's deterministic mailboxes, and each router
   routes from its own mirrors of its server group's state (updated
   only by those messages, so routing decisions are
   partition-independent).  With [R > 1] the routers additionally form
   a directed spill ring [r -> (r + 1) mod R], each link carrying the
   placement latency. *)
type t = {
  se : Shard_engine.t;
  placement : Time.span;
  exec_shards : int;  (* execution tasks for [run] *)
  platforms : Platform.t array;
  routers : router array;
  owner : int array;  (* global server index -> owning router id *)
  local_ix : int array;  (* global server index -> index in its group *)
  faults : Fault.Plan.t;  (* cluster-level plan: the blackout schedule *)
  trigger_counts : int array;  (* global; owner-written *)
  srv_bits : int;
  mutable records_cache : (int * Platform.record) list;
  mutable records_cache_len : int;
}

let server_count t = Array.length t.platforms

let router_count t = Array.length t.routers

let router_of_server t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.router_of_server: index out of range";
  t.owner.(i)

(* Function -> router affinity: a multiplicative hash of the dense
   registry id, so consecutive (and Zipf-popular low) ids spread over
   the routers instead of clumping on router 0. *)
let mix_fn_id id =
  let h = id * 0x9E3779B1 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA6B in
  let h = h lxor (h lsr 13) in
  h land max_int

let router_of_fn t ~fn_id =
  let rc = Array.length t.routers in
  if rc = 1 then 0 else mix_fn_id fn_id mod rc

let router_engine t r =
  if r < 0 || r >= router_count t then
    invalid_arg "Cluster.router_engine: index out of range";
  t.routers.(r).r_engine

let router_servers t r =
  if r < 0 || r >= router_count t then
    invalid_arg "Cluster.router_servers: index out of range";
  Array.copy t.routers.(r).r_group

(* The pool-size mirror row for [name]; rows exist from [register] on,
   so creation never reads live server state mid-run. *)
let pool_row r name =
  match Hashtbl.find_opt r.r_pool name with
  | Some row -> row
  | None ->
    let row = Array.make (Array.length r.r_group) 0 in
    Hashtbl.replace r.r_pool name row;
    row

let default_placement = Time.span_us 50.0

let create_sharded ?(servers = 4) ?policy ?(e2e = false)
    ?(topology = Topology.r650) ?(cost = Cost_model.firecracker) ?keep_alive
    ?(seed = 42) ?(faults = Fault.Plan.none) ?recovery ?ull_count
    ?(placement = default_placement) ?(shards = 1) ?scheduler ?window
    ?(routers = 1) () =
  if servers <= 0 then invalid_arg "Cluster.create_sharded: servers <= 0";
  if shards < 1 then invalid_arg "Cluster.create_sharded: shards < 1";
  if routers < 1 then invalid_arg "Cluster.create_sharded: routers < 1";
  if routers > servers then
    invalid_arg "Cluster.create_sharded: routers > servers";
  (* The channel matrix mirrors the topology: every message crosses a
     router<->server link carrying the placement latency, servers
     never talk to each other directly, and with [routers > 1] the
     routers form a directed spill ring [r -> (r + 1) mod routers] —
     leaving all other pairs unbounded is what lets the adaptive
     scheduler run each shard to its own horizon instead of the
     global minimum. *)
  let channels =
    List.concat
      (List.init servers (fun g ->
           let r = g mod routers in
           [ (r, routers + g, placement); (routers + g, r, placement) ]))
    @ (if routers = 1 then []
       else
         List.init routers (fun r -> (r, (r + 1) mod routers, placement)))
  in
  let se =
    Shard_engine.create ~seed ?scheduler ?window ~channels
      ~sources:(routers + servers) ~lookahead:placement ()
  in
  let platforms =
    (* each server gets its own derived plan: per-server fault
       sequences depend only on (cluster seed, server index), never on
       how triggers happened to be routed *)
    Array.init servers (fun i ->
        Platform.create ~topology ~cost ?keep_alive ?ull_count
          ~seed:(seed + (97 * i))
          ~faults:(Fault.Plan.derive faults ~index:i)
          ?recovery
          ~engine:(Shard_engine.engine se (routers + i))
          ())
  in
  let metrics0 = Metrics.create () in
  Fault.Plan.attach_metrics faults metrics0;
  let srv_bits =
    let b = ref 0 in
    while 1 lsl !b < servers do
      incr b
    done;
    !b
  in
  let policy = match policy with Some p -> p | None -> Policy.push () in
  let total_vcpus = Scheduler.cpu_count (Platform.scheduler platforms.(0)) in
  let make_router ri =
    (* router [ri] owns servers { g | g mod R = ri }, ascending *)
    let size = (servers - ri + routers - 1) / routers in
    let index = Load_index.create ~n:size in
    let pending = Queue.create () in
    {
      r_id = ri;
      r_engine = Shard_engine.engine se ri;
      r_group = Array.init size (fun j -> ri + (j * routers));
      r_policy = Policy.instantiate policy ~servers:size;
      r_view =
        {
          Policy.v_healthy = Array.make size true;
          v_live = Array.make size 0;
          v_busy = Array.make size 0;
          v_warm = Array.make size 0;
          v_total_vcpus = total_vcpus;
          v_pending = (fun () -> Queue.length pending);
          v_least_loaded = (fun () -> Load_index.argmin index);
        };
      r_index = index;
      r_pool = Hashtbl.create 16;
      r_pending = pending;
      r_e2e =
        (if e2e then
           Some (Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ())
         else None);
      r_metrics = (if ri = 0 then metrics0 else Metrics.create ());
      r_healthy_n = size;
      r_log = Array.make 64 0;
      r_log_len = 0;
      r_rejected = [];
    }
  in
  {
    se;
    placement;
    exec_shards = shards;
    platforms;
    routers = Array.init routers make_router;
    owner = Array.init servers (fun g -> g mod routers);
    local_ix = Array.init servers (fun g -> g / routers);
    faults;
    trigger_counts = Array.make servers 0;
    srv_bits;
    records_cache = [];
    records_cache_len = 0;
  }

let server t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.server: index out of range";
  t.platforms.(i)

let policy_name t = t.routers.(0).r_policy.Policy.label

let engine t = t.routers.(0).r_engine

let shard_engine t = Some t.se

let shards t = t.exec_shards

(* With one router the cluster registry IS router 0's registry (so
   callers may keep incrementing through it); with several, a fresh
   registry holding the per-router counter sums is built per call. *)
let metrics t =
  if Array.length t.routers = 1 then t.routers.(0).r_metrics
  else begin
    let merged = Metrics.create () in
    Array.iter
      (fun r ->
        List.iter
          (fun (name, v) -> Metrics.incr merged ~by:v name)
          (Metrics.counters r.r_metrics))
      t.routers;
    merged
  end

let router_metrics t r =
  if r < 0 || r >= router_count t then
    invalid_arg "Cluster.router_metrics: index out of range";
  t.routers.(r).r_metrics

let healthy t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.healthy: index out of range";
  t.routers.(t.owner.(i)).r_view.Policy.v_healthy.(t.local_ix.(i))

let healthy_count t =
  Array.fold_left (fun acc r -> acc + r.r_healthy_n) 0 t.routers

let pending_count t =
  Array.fold_left (fun acc r -> acc + Queue.length r.r_pending) 0 t.routers

(* Like [metrics]: router 0's live stream with one router, a fresh
   exact merge of every router's stream with several. *)
let e2e_latencies t =
  if Array.length t.routers = 1 then t.routers.(0).r_e2e
  else
    match List.filter_map (fun r -> r.r_e2e) (Array.to_list t.routers) with
    | [] -> None
    | streams -> Some (Stats.Quantile.merge streams)

let e2e_latencies_of t r =
  if r < 0 || r >= router_count t then
    invalid_arg "Cluster.e2e_latencies_of: index out of range";
  t.routers.(r).r_e2e

let log_push t r ~server ~slot =
  if r.r_log_len = Array.length r.r_log then begin
    let w = Array.make (2 * r.r_log_len) 0 in
    Array.blit r.r_log 0 w 0 r.r_log_len;
    r.r_log <- w
  end;
  r.r_log.(r.r_log_len) <- (slot lsl t.srv_bits) lor server;
  r.r_log_len <- r.r_log_len + 1

(* All server registries intern the same functions in the same order
   ([register] fans out to every server), so any server's ids stand
   for the fleet; server 0 is the canonical lookup. *)
let fn_id t ~name = Platform.fn_id t.platforms.(0) ~name

let function_name t ~fn_id = Platform.function_name t.platforms.(0) ~fn_id

let fn_vcpus t ~fn_id =
  (Function_def.Registry.def (Platform.registry t.platforms.(0)) fn_id)
    .Function_def.vcpus

(* Keep a router's live mirror and its argmin index in lockstep. *)
let set_live r li v =
  r.r_view.Policy.v_live.(li) <- v;
  Load_index.set r.r_index li v

let observe_e2e r ~arrival =
  match r.r_e2e with
  | None -> ()
  | Some q ->
    Stats.Quantile.add q
      (float_of_int (Time.to_ns (Engine.now r.r_engine) - Time.to_ns arrival)
      /. 1e3)

let reject r ~reason ~name =
  let rejection =
    { reason; function_name = name; at = Engine.now r.r_engine }
  in
  r.r_rejected <- rejection :: r.r_rejected;
  Metrics.incr r.r_metrics
    (Printf.sprintf "cluster.rejections.%s" (reject_reason_name reason));
  Rejected rejection

(* Placement: router [r] commits to local server [li] and the trigger
   crosses the placement delay as a message; the server's outcome
   (completion notification or a dry pool) crosses back the same way,
   always to the owning router.  All router-side state — the group
   completion log, mirrors, rejection log — mutates only on [r]'s
   shard, in deterministic message-delivery order.  The completion
   carries the arena slot, not a boxed record: the router logs one
   packed int and materializes a record only for an explicit
   [on_complete] subscriber.  Dispatch, claim resolution and spills
   are mutually recursive, but only through messages: every re-entry
   happens on a later event. *)
let rec dispatch t r ~name ~fn_id ~mode ~on_complete ~arrival li =
  let g = r.r_group.(li) in
  let view = r.r_view in
  t.trigger_counts.(g) <- t.trigger_counts.(g) + 1;
  set_live r li (view.v_live.(li) + 1);
  (match mode with
  | Platform.Warm _ ->
    let row = pool_row r name in
    if row.(li) > 0 then row.(li) <- row.(li) - 1
  | Platform.Cold | Platform.Restore -> ());
  let vc = fn_vcpus t ~fn_id in
  view.v_busy.(li) <- view.v_busy.(li) + vc;
  let platform = t.platforms.(g) in
  let dst = Array.length t.routers + g in
  let arrive = Time.add (Engine.now r.r_engine) t.placement in
  Shard_engine.post t.se ~src:r.r_id ~dst ~at:arrive (fun server_engine ->
      match
        Platform.trigger_id platform ~fn_id ~mode
          ~on_complete_slot:(fun slot ->
            (* server side, completion time: capture the pool size the
               sandbox just returned to, then notify the owning
               router *)
            let pool_now = Platform.pool_size platform ~name in
            let done_at = Time.add (Engine.now server_engine) t.placement in
            Shard_engine.post t.se ~src:dst ~dst:r.r_id ~at:done_at (fun _ ->
                log_push t r ~server:g ~slot;
                set_live r li (max 0 (view.v_live.(li) - 1));
                (* reconcile the pool mirror by conservation bounded
                   by ground truth: this completion freed exactly one
                   slot (already counted in [pool_now]), and a plain
                   overwrite would erase the optimistic debits of
                   dispatches still in flight, letting the router
                   over-commit a nearly-dry pool *)
                let row = pool_row r name in
                row.(li) <- min (row.(li) + 1) pool_now;
                view.v_busy.(li) <- max 0 (view.v_busy.(li) - vc);
                observe_e2e r ~arrival;
                (match on_complete with
                | None -> ()
                | Some f -> f (g, Platform.record_of_slot platform slot));
                apply_claims t r
                  (r.r_policy.Policy.on_completion view ~server:li)))
          ()
      with
      | () -> ()
      | exception Platform.No_warm_sandbox _ ->
        (* dry on arrival: the router learns one placement delay
           later and records the typed rejection then *)
        let pool_now = Platform.pool_size platform ~name in
        let back_at = Time.add (Engine.now server_engine) t.placement in
        Shard_engine.post t.se ~src:dst ~dst:r.r_id ~at:back_at (fun _ ->
            set_live r li (max 0 (view.v_live.(li) - 1));
            view.v_busy.(li) <- max 0 (view.v_busy.(li) - vc);
            (* no slot was freed; the pool proved dry, so cap the
               mirror at the observed truth *)
            let row = pool_row r name in
            row.(li) <- min row.(li) pool_now;
            ignore (reject r ~reason:No_warm_capacity ~name);
            apply_claims t r
              (r.r_policy.Policy.on_rejection view ~server:li)));
  Accepted g

(* Resolve claims in order: each hands the oldest pending trigger to
   the claiming server.  A claim that raced a blackout is dropped (its
   token died with the server's health transition). *)
and apply_claims t r claimants =
  List.iter
    (fun li ->
      if not r.r_view.Policy.v_healthy.(li) then ()
      else if Queue.is_empty r.r_pending then
        r.r_policy.Policy.on_claim_unused ~server:li
      else begin
        let p = Queue.pop r.r_pending in
        ignore
          (dispatch t r ~name:p.pt_name ~fn_id:p.pt_fn_id ~mode:p.pt_mode
             ~on_complete:p.pt_on_complete ~arrival:p.pt_arrival li)
      end)
    claimants

(* Route one trigger on router [r]'s timeline.  [hops] counts spill
   forwards already taken: a trigger may cross at most [R - 1] ring
   links, so the last router in the walk always handles it locally
   (placing, queueing or rejecting exactly as a single-router cluster
   would).  Spill fires when the group has no healthy server, or when
   a warm trigger finds the group's believed warm pools dry — the
   blacked-out and dry cases of the protocol; [arrival] stays the
   original ingress time, so end-to-end latency charges the hop. *)
and trigger_resolved t r ~hops ~name ~fn_id ~mode ~on_complete ~arrival =
  let spill_ok = hops < Array.length t.routers - 1 in
  if r.r_healthy_n = 0 then
    if spill_ok then spill t r ~hops ~name ~fn_id ~mode ~on_complete ~arrival
    else reject r ~reason:All_servers_down ~name
  else begin
    let row = pool_row r name in
    r.r_view.Policy.v_warm <- row;
    let needs_pool =
      match mode with
      | Platform.Warm _ -> true
      | Platform.Cold | Platform.Restore -> false
    in
    (* a downed server's row cells were zeroed on [mark_down], so the
       sum covers the healthy group only *)
    if spill_ok && needs_pool && Array.fold_left ( + ) 0 row = 0 then
      spill t r ~hops ~name ~fn_id ~mode ~on_complete ~arrival
    else
      match
        r.r_policy.Policy.decide r.r_view ~vcpus:(fn_vcpus t ~fn_id)
          ~needs_pool
      with
      | Policy.Assign li ->
        dispatch t r ~name ~fn_id ~mode ~on_complete ~arrival li
      | Policy.Enqueue ->
        Queue.push
          {
            pt_name = name;
            pt_fn_id = fn_id;
            pt_mode = mode;
            pt_on_complete = on_complete;
            pt_arrival = arrival;
          }
          r.r_pending;
        Queued
  end

and spill t r ~hops ~name ~fn_id ~mode ~on_complete ~arrival =
  let nxt = t.routers.((r.r_id + 1) mod Array.length t.routers) in
  Metrics.incr r.r_metrics "cluster.spills";
  let at = Time.add (Engine.now r.r_engine) t.placement in
  Shard_engine.post t.se ~src:r.r_id ~dst:nxt.r_id ~at (fun _ ->
      ignore
        (trigger_resolved t nxt ~hops:(hops + 1) ~name ~fn_id ~mode
           ~on_complete ~arrival));
  Forwarded nxt.r_id

let mark_down t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.mark_down: index out of range";
  let r = t.routers.(t.owner.(i)) and li = t.local_ix.(i) in
  let view = r.r_view in
  if view.Policy.v_healthy.(li) then begin
    view.v_healthy.(li) <- false;
    r.r_healthy_n <- r.r_healthy_n - 1;
    (* the router knows the blackout wipes the server: reset its
       mirrors so routing stops preferring the dead pools the moment
       the server is marked down *)
    set_live r li 0;
    Load_index.remove r.r_index li;
    view.v_busy.(li) <- 0;
    Hashtbl.iter (fun _ row -> row.(li) <- 0) r.r_pool;
    apply_claims t r
      (r.r_policy.Policy.on_health_change view ~server:li ~up:false)
  end

let mark_up t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.mark_up: index out of range";
  let r = t.routers.(t.owner.(i)) and li = t.local_ix.(i) in
  let view = r.r_view in
  if not view.Policy.v_healthy.(li) then begin
    view.v_healthy.(li) <- true;
    r.r_healthy_n <- r.r_healthy_n + 1;
    Load_index.add r.r_index li;
    apply_claims t r
      (r.r_policy.Policy.on_health_change view ~server:li ~up:true)
  end

let register t fn =
  Array.iter (fun p -> Platform.register p fn) t.platforms;
  Array.iter (fun r -> ignore (pool_row r fn.Function_def.name)) t.routers

let provision ?router t ~name ~total ~strategy =
  let r =
    match router with
    | Some ri ->
      if ri < 0 || ri >= router_count t then
        invalid_arg "Cluster.provision: router out of range";
      t.routers.(ri)
    | None -> t.routers.(router_of_fn t ~fn_id:(fn_id t ~name))
  in
  let size = Array.length r.r_group in
  for i = 0 to total - 1 do
    let li = i mod size in
    Platform.provision t.platforms.(r.r_group.(li)) ~name ~count:1 ~strategy;
    r.r_policy.Policy.on_provision ~server:li ~count:1
  done;
  (* pre-run setup on the coordinating domain: refresh every router's
     mirror from the actual pools before any window runs *)
  Array.iter
    (fun r ->
      let row = pool_row r name in
      Array.iteri
        (fun li g -> row.(li) <- Platform.pool_size t.platforms.(g) ~name)
        r.r_group)
    t.routers

let pool_size t ~name =
  Array.fold_left (fun acc p -> acc + Platform.pool_size p ~name) 0 t.platforms

(* Entry point shared by [trigger] and [trigger_id].  Un-pinned
   triggers land on the function's affine router with the full spill
   budget; [?router]-pinned triggers (the workflow stepper, which owns
   per-router state keyed to that id) never spill, so their completion
   always comes back on the pinned timeline. *)
let resolve_entry t ~router ~name ~fn_id ~mode ~on_complete =
  let rc = Array.length t.routers in
  match router with
  | Some ri ->
    if ri < 0 || ri >= rc then
      invalid_arg "Cluster.trigger: router out of range";
    let r = t.routers.(ri) in
    trigger_resolved t r ~hops:(rc - 1) ~name ~fn_id ~mode ~on_complete
      ~arrival:(Engine.now r.r_engine)
  | None ->
    let r = t.routers.(router_of_fn t ~fn_id) in
    trigger_resolved t r ~hops:0 ~name ~fn_id ~mode ~on_complete
      ~arrival:(Engine.now r.r_engine)

let trigger ?router t ~name ~mode ?on_complete () =
  (* resolve the id up front so an unknown function raises before any
     routing side effects, exactly as the per-name path always did *)
  let fn_id = fn_id t ~name in
  resolve_entry t ~router ~name ~fn_id ~mode ~on_complete

let trigger_id ?router t ~fn_id ~mode ?on_complete () =
  let name = function_name t ~fn_id in
  resolve_entry t ~router ~name ~fn_id ~mode ~on_complete

(* Batched ingestion: slice the (sorted) batch's row indices per
   affine router — batch order within a slice is global order
   restricted to that router — and walk each slice through a windowed
   cursor on its router's engine.  Each refill pre-schedules the next
   [window] arrivals of that router in batch order — the refill event
   for the window's boundary instant is scheduled {e before} the
   boundary trigger itself, so under the engine's FIFO tie-break the
   next window is enqueued before the boundary trigger fires and
   arrivals always fire in batch order.  Each event queue therefore
   holds at most [window] pending arrivals instead of the whole
   trace. *)
let schedule_batch ?(window = 4096) ?on_complete t batch =
  if window < 1 then invalid_arg "Cluster.schedule_batch: window < 1";
  if not (Batch.sorted batch) then
    invalid_arg "Cluster.schedule_batch: batch not sorted";
  let n = Batch.length batch in
  let fire r k =
    let fn_id = Batch.fn_id batch k in
    let mode = Platform.mode_of_code (Batch.payload batch k) in
    ignore
      (trigger_resolved t r ~hops:0
         ~name:(function_name t ~fn_id)
         ~fn_id ~mode ~on_complete
         ~arrival:(Engine.now r.r_engine))
  in
  let rc = Array.length t.routers in
  let counts = Array.make rc 0 in
  for k = 0 to n - 1 do
    let r = router_of_fn t ~fn_id:(Batch.fn_id batch k) in
    counts.(r) <- counts.(r) + 1
  done;
  let rows = Array.map (fun c -> Array.make (max 1 c) 0) counts in
  let fill = Array.make rc 0 in
  for k = 0 to n - 1 do
    let r = router_of_fn t ~fn_id:(Batch.fn_id batch k) in
    rows.(r).(fill.(r)) <- k;
    fill.(r) <- fill.(r) + 1
  done;
  Array.iteri
    (fun ri rows ->
      let m = counts.(ri) in
      if m > 0 then begin
        let r = t.routers.(ri) in
        let base = Engine.now r.r_engine in
        let rec refill start =
          if start < m then begin
            let stop = min m (start + window) in
            (* next refill first: it shares the boundary trigger's
               instant and must win the FIFO tie *)
            if stop < m then
              ignore
                (Engine.schedule_at r.r_engine
                   ~at:
                     (Time.add base
                        (Time.span_ns (Batch.time_ns batch rows.(stop - 1))))
                   (fun _ -> refill stop));
            for j = start to stop - 1 do
              let k = rows.(j) in
              ignore
                (Engine.schedule_at r.r_engine
                   ~at:(Time.add base (Time.span_ns (Batch.time_ns batch k)))
                   (fun _ -> fire r k))
            done
          end
        in
        refill 0
      end)
    rows

(* The whole outage schedule is known up front (blackout schedule lead
   time), so the server-side blackout command is posted directly at
   the outage instant — no lookahead slack needed beyond the pre-run
   horizon — while the owning router flips health on its own timeline
   at the same instants. *)
let schedule_faults t ~horizon =
  let outages =
    Fault.Plan.blackouts t.faults ~servers:(server_count t) ~horizon
  in
  List.iter
    (fun (server, start, outage) ->
      let r = t.routers.(t.owner.(server)) in
      let dst = Array.length t.routers + server in
      let down_at = Time.add (Engine.now r.r_engine) start in
      ignore
        (Engine.schedule_at r.r_engine ~at:down_at (fun _ ->
             mark_down t server;
             Metrics.incr r.r_metrics "cluster.blackouts"));
      Shard_engine.post t.se ~src:r.r_id ~dst ~at:down_at (fun server_engine ->
          let lost = Platform.blackout t.platforms.(server) in
          let note_at = Time.add (Engine.now server_engine) t.placement in
          Shard_engine.post t.se ~src:dst ~dst:r.r_id ~at:note_at (fun _ ->
              Metrics.incr r.r_metrics ~by:lost "cluster.blackout_lost"));
      let up_at = Time.add down_at outage in
      ignore
        (Engine.schedule_at r.r_engine ~at:up_at (fun _ ->
             mark_up t server;
             Metrics.incr r.r_metrics "cluster.recoveries")))
    outages;
  List.length outages

let run ?until t =
  let executor =
    if t.exec_shards <= 1 then None
    else
      (* [shards] persistent strands: the team's round barrier is the
         synchronization barrier, and its happens-before is what
         publishes each round's shard writes back to the coordinator.
         Strand->domain pinning is stable for the life of the team, so
         per-shard working sets stay warm. *)
      let team = Team.shared ~width:t.exec_shards in
      Some (fun job -> Team.run team job)
  in
  Shard_engine.run ?until ~shards:t.exec_shards ?executor t.se

let record_count t =
  Array.fold_left (fun acc r -> acc + r.r_log_len) 0 t.routers

let iter_records t f =
  let mask = (1 lsl t.srv_bits) - 1 in
  Array.iter
    (fun r ->
      for k = 0 to r.r_log_len - 1 do
        let packed = r.r_log.(k) in
        f (packed land mask) (packed lsr t.srv_bits)
      done)
    t.routers

let fold_records t ~init ~f =
  let mask = (1 lsl t.srv_bits) - 1 in
  let acc = ref init in
  Array.iter
    (fun r ->
      for k = 0 to r.r_log_len - 1 do
        let packed = r.r_log.(k) in
        acc := f !acc (packed land mask) (packed lsr t.srv_bits)
      done)
    t.routers;
  !acc

(* Compatibility shim over the packed logs, memoized on total length
   (each log is append-only), like [Platform.records].  Router-major:
   router 0's completions in observed order, then router 1's, … —
   one stream when [routers = 1]. *)
let records t =
  let total = record_count t in
  if total <> t.records_cache_len then begin
    let mask = (1 lsl t.srv_bits) - 1 in
    let l = ref [] in
    for ri = Array.length t.routers - 1 downto 0 do
      let r = t.routers.(ri) in
      for k = r.r_log_len - 1 downto 0 do
        let packed = r.r_log.(k) in
        let server = packed land mask and slot = packed lsr t.srv_bits in
        l := (server, Platform.record_of_slot t.platforms.(server) slot) :: !l
      done
    done;
    t.records_cache <- !l;
    t.records_cache_len <- total
  end;
  t.records_cache

let rejections t =
  List.concat_map
    (fun r -> List.rev r.r_rejected)
    (Array.to_list t.routers)

let live_invocations t =
  Array.fold_left (fun acc p -> acc + Platform.live_invocations p) 0 t.platforms

let triggers_per_server t = Array.copy t.trigger_counts
