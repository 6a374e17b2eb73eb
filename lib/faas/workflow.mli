(** Workflow DAGs over a {!Cluster}: function composition with
    platform-side fusion.

    A {!graph} declares a workflow as a DAG of registered functions —
    chains, fan-out, fan-in — with edges always pointing from a lower
    node index to a higher one, so graphs are acyclic by construction.
    A {!t} manager interns graphs into dense workflow ids and runs
    {e instances} of them over a cluster: a completion-driven stepper
    dispatches every node whose predecessors' results have all landed,
    entirely on the router plane, so DAG traversal inherits the
    cluster's determinism — node records and completion values are
    bit-identical across [--jobs], [--shards] and every
    {!Cluster.Policy}.

    {b Partitioned router plane.}  On a multi-router cluster
    ({!Cluster.create_sharded} with [routers > 1]) each workflow is
    keyed to the router owning its root function — node 0's
    {e original} function, stable whether or not the root fused
    ({!wf_router}).  Instances live entirely on that router's
    timeline: units dispatch through [Cluster.trigger ~router]
    (pinned triggers never spill, so completions always return to the
    home strand), {!provision} parks pools in the home router's server
    group, and all stepper state — instance tables, counters, node
    rows, e2e streams — is partitioned per router.  Instance ids are
    packed [local * routers + router], which degenerates to the
    historical dense counter when [routers = 1].

    {b Completion values.}  Each node completion carries a pure
    deterministic int value: a mixing function over the instance seed,
    the node's function name and its predecessors' values (ascending
    node order).  Values depend only on the graph and the seed — never
    on timing, placement or policy — which is what makes fused and
    unfused executions comparable: {!oracle_values} computes the same
    values without running anything, and every execution mode must
    reproduce them exactly.

    {b Platform-side fusion.}  With [~fuse:true], {!register} runs a
    planner that collapses every maximal chain segment of uLL
    functions (in-degree and out-degree 1 inside the segment, same
    [Warm _] start mode, {!Function_def.t.ull} set) into one fused
    function registered on the cluster: summed execution time, the
    vCPU/memory maximum of its members, a single sandbox resume/pause
    instead of one per member, and no intermediate placement
    round-trips.  On completion the fused unit expands back into
    per-member node rows, so fused and unfused runs are
    trace-equivalent in completion values; interior members read as
    zero-width rows at the fused completion instant (the latency
    identity [completed - triggered = init + exec + preemption] holds
    for every row in both modes).

    A completed hop is stored once, as its server platform's
    {!Trigger_records} row.  A node row is three int columns —
    instance, node and the packed [(server, slot)] of that platform
    row — and {!Records} reads everything else through it. *)

type graph
(** An immutable DAG of function nodes. *)

(** Build a graph node by node.  [add] returns the new node's index;
    dependencies must already exist, so cycles cannot be expressed. *)
module Builder : sig
  type t

  val create : unit -> t

  val add :
    t -> name:string -> mode:Platform.start_mode -> deps:int list -> int
  (** Append a node invoking function [name] under [mode] once every
      node in [deps] has completed.  Returns the node index.
      @raise Invalid_argument on an unknown dep index or a duplicate
      dep. *)

  val build : t -> graph
  (** Freeze the builder.  @raise Invalid_argument on an empty graph. *)
end

val chain : (string * Platform.start_mode) list -> graph
(** A linear chain: each node depends on the previous one.
    @raise Invalid_argument on an empty list. *)

val node_count : graph -> int

val node_name : graph -> int -> string

val node_mode : graph -> int -> Platform.start_mode

val deps : graph -> int -> int list
(** Ascending predecessor indices. *)

val oracle_values : graph -> seed:int -> int array
(** The pure sequential oracle: per-node completion values computed by
    a topological walk, no cluster involved.  Every execution of the
    graph — fused, unfused, any policy, any shard count — must
    reproduce exactly these values. *)

(** {1 Composed workloads} *)

val nfv_defs : unit -> Function_def.t list
(** The NFV service chain's functions: a category-1 firewall, a
    category-2 NAT and a category-3 filter, all uLL
    (["nfv-firewall"], ["nfv-nat"], ["nfv-filter"]). *)

val nfv_chain : ?strategy:Horse_vmm.Sandbox.strategy -> unit -> graph
(** firewall → NAT → filter as a warm chain (default strategy
    [Horse]).  All three nodes are uLL, so a fusing manager collapses
    the whole chain into one invocation. *)

val thumbnail_defs : unit -> Function_def.t list
(** The thumbnail pipeline's functions: the §5.4 thumbnail generator
    (sampled storage-plus-compute latency) and an object-store write
    (["thumb-generate"], ["thumb-store"]).  Neither is uLL. *)

val thumbnail_store : unit -> graph
(** generate → store as a warm vanilla chain.  Not fusable — the
    planner must leave it alone. *)

(** {1 The workflow manager} *)

type t

val create : ?fuse:bool -> cluster:Cluster.t -> unit -> t
(** A manager over [cluster].  [fuse] (default false) enables the
    fusion planner at {!register} time. *)

val cluster : t -> Cluster.t

val fuse : t -> bool

val register : t -> name:string -> graph -> int
(** Intern [graph] under [name], returning its dense workflow id.
    Every function the graph names must already be registered on the
    cluster.  With fusion on, fused segment functions (named
    ["__fused:<name>:<head node>"]) are registered on the cluster as a
    side effect.
    @raise Invalid_argument on a duplicate name or an unregistered
    function. *)

val wf_id : t -> name:string -> int
(** @raise Invalid_argument on an unknown name. *)

val unit_count : t -> wf_id:int -> int
(** Schedulable units after planning: [node_count] with fusion off,
    fewer when segments fused. *)

val unit_members : t -> wf_id:int -> int list list
(** Per unit, the node indices it executes (singleton lists for
    unfused nodes, the member chain for fused segments), in dispatch
    order. *)

val wf_router : t -> wf_id:int -> int
(** The router this workflow's instances live on: the owner
    ({!Cluster.router_of_fn}) of node 0's original function (always 0
    when [Cluster.router_count = 1]).
    @raise Invalid_argument on an unknown id. *)

val provision :
  t -> wf_id:int -> per_unit:int -> unit
(** Park [per_unit] warm sandboxes per [Warm _] unit of the workflow
    (fused units provision their fused function), spread over the
    {e home router's} server group; non-warm units are skipped. *)

val start :
  ?seed:int ->
  ?on_complete:(instance:int -> at:Horse_sim.Time_ns.t -> unit) ->
  t ->
  wf_id:int ->
  unit ->
  int
(** Begin one instance now (in virtual time): every ready unit is
    dispatched through {!Cluster.trigger}, pinned to the home
    router; successors follow as completions land.  [seed] (default:
    the instance id) feeds the value computation.  Returns the
    instance id.  On a multi-router cluster the call must be made on
    the home router's timeline (pre-run setup, or a callback on
    {!Cluster.router_engine}); [on_complete] fires there when the last
    node completes.  A rejected or aborted unit strands its downstream
    subgraph: upstream node records are retained and [on_complete]
    never fires; a unit the router rejects outright counts the
    instance as failed (see {!instances_failed}). *)

val schedule_batch : ?window:int -> t -> Horse_trace.Batch.t -> unit
(** DAG-aware batch ingestion: one {!start} per batch row at its
    arrival offset, reading the fn-id column as the {e workflow} id
    and the payload column as the instance seed (payload 0 = default
    seed).  Arrivals are armed through {!Horse_trace.Batch.arm}, the
    windowed cursor {!Cluster.schedule_batch} uses ([window] at a
    time, default 4096), so the event queue holds one window rather
    than the whole trace; on a
    multi-router cluster the rows are sliced per home router and each
    slice is armed on its own router's engine.
    @raise Invalid_argument if [window < 1], the batch is unsorted, or
    a row names an unknown workflow id. *)

val run : t -> unit
(** {!Cluster.run} on the underlying cluster. *)

val instances_started : t -> int

val instances_completed : t -> int

val instances_failed : t -> int
(** Instances that saw a unit dispatch rejected by the router (every
    server of the home group down).  (An instance lost to an
    exec-crash abort, or to a dry pool the server reports back after
    the router placed the unit, is neither completed nor failed —
    visible only in the completion ratio and {!Cluster.rejections},
    matching single-trigger semantics.) *)

val e2e : t -> Horse_sim.Stats.Quantile.t
(** Start-to-last-completion latency per completed instance, in
    microseconds, tracked at p50/p99/p999 on the router timeline, for
    the whole plane.  With one router this {e is} the router's live
    stream; with several it is a fresh exact merge of every router's
    stream, rebuilt per call. *)

val value : t -> instance:int -> node:int -> int
(** The completion value a finished node produced.
    @raise Invalid_argument if that node has not completed. *)

(** {1 Node records}

    One row per completed node, in completion order (fused members
    expand into member rows at the fused completion instant), read by
    row index [0 .. count - 1].  Router-major on a multi-router
    cluster: router 0's rows first, then router 1's, … — one stream
    when [Cluster.router_count = 1].

    [instance] and [node] are stored; [value] reads the instance
    table {!value} reads; [server] and the time columns read the
    hop's {!Platform.trigger_records} row.  Every member of a fused
    unit points at the unit's one row: the last member reads its
    timings, an interior member reads as zero-width (triggered =
    completed = the row's completion; zero init, exec and
    preemption). *)
module Records : sig
  val count : t -> int

  val instance : t -> int -> int

  val node : t -> int -> int

  val value : t -> int -> int

  val server : t -> int -> int

  val triggered_ns : t -> int -> int

  val init_ns : t -> int -> int

  val exec_ns : t -> int -> int

  val preemption_ns : t -> int -> int

  val completed_ns : t -> int -> int
end
