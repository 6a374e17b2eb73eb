(** One cluster scenario, one runner.

    Every cluster-shaped experiment — the warm uLL storm, the fault
    sweep, push vs pull under blackouts, workflow chains, the
    partitioned router plane — is a value of {!t}; {!run} builds the
    sharded cluster it describes, ingests its arrivals as one flat
    batch, drives it to completion and returns one uniform {!row}.
    Sweeps are lists of {!t} mapped through {!run}.

    A row is deterministic per scenario and bit-identical for every
    [shards] value and scheduler (up to the scheduler-structure
    counters in {!sync}); {!identical} is the one check of that
    contract, used by the tests and by every bench gate. *)

type profile = Firecracker | Xen

val cost_of_profile : profile -> Horse_cpu.Cost_model.t

val profile_name : profile -> string

(** What the tenants deploy and trigger. *)
type workload =
  | One_function of Horse_faas.Function_def.exec_model
      (** one uLL function ["ull"] (2 vCPUs, 512 MB) with this service
          time, [sandboxes] warm instances fleet-wide *)
  | Palette
      (** 32 uLL functions (category 2), [sandboxes] split evenly over
          them; the arrival stream cycles the palette, so the
          function-affinity hash spreads it over every router *)
  | Chain of { len : int; fused : bool }
      (** a [len]-stage uLL workflow chain (category 2, 1 vCPU per
          stage), [sandboxes] warm per schedulable unit; [fused]
          collapses it platform-side into one invocation *)

(** The arrival process, always within [[0, duration_s)] and seeded
    from [seed] independently of the cluster's RNGs. *)
type arrivals =
  | Uniform of int  (** this many arrivals at sorted uniform offsets *)
  | Bursty of int
      (** this many arrivals in clumps ({!Horse_trace.Batch.bursty}) *)
  | Azure
      (** an Azure-shaped chunk of a synthetic 6000/min function (its
          length is the trace's) *)

type fault_model =
  | Per_trigger of float
      (** uniform per-trigger fault probability
          ({!Horse_fault.Fault.Plan.uniform}) *)
  | Blackouts of float
      (** whole-server blackouts per server-second, with correlated
          snapshot corruption at half that rate *)

type t = {
  profile : profile;
  seed : int;
  shards : int;  (** execution strands; never changes a row *)
  scheduler : Horse_sim.Shard_engine.scheduler;
  routers : int;
  servers : int;
  policy : Horse_faas.Cluster.Policy.t;
  strategy : Horse_vmm.Sandbox.strategy;  (** warm strategy of every pool *)
  sandboxes : int;  (** see {!workload} *)
  workload : workload;
  arrivals : arrivals;
  duration_s : float;
  faults : fault_model option;
      (** [Some _] also turns on {!Horse_faas.Platform.Recovery.default},
          even at rate 0 *)
}

val default : t
(** Firecracker, seed 42, 1 shard, adaptive scheduler, 1 router, 4
    servers, warm-first push, HORSE pools of 64 sandboxes of one
    category-2 function, 10k uniform arrivals over 1 s, no faults. *)

val to_string : t -> string
(** One line naming every field — what a failed check prints. *)

(** End-to-end latency percentiles, µs. *)
type tail = { p50_us : float; p99_us : float; p999_us : float }

(** Scheduler structure, not workload results: the only part of a
    row allowed to differ between schedulers. *)
type sync = {
  epochs : int;  (** outer windows the shard engine executed *)
  rounds : int;  (** synchronization rounds (barrier fan-outs) *)
  fast_forwards : int;  (** windows that jumped idle virtual time *)
}

type row = {
  attempted : int;  (** arrivals fired at the cluster *)
  completed : int;
      (** invocations that produced a record (workflow instances that
          finished, for a chain) *)
  rejected : int;  (** typed router rejections *)
  pending : int;  (** triggers still queued when the run drained *)
  lost : int;  (** invocations aborted or killed by a blackout *)
  spills : int;  (** triggers forwarded over the spill ring *)
  blackouts : int;  (** server outages the schedule fired *)
  injected : int;  (** injected faults: per-server plans + blackouts *)
  fallbacks : int;  (** Warm → Restore → Cold ladder descents *)
  retries : int;  (** post-crash backed-off retries *)
  service : tail;
      (** per-invocation latency — init + exec + preemption, every
          failed rung and retry wait included *)
  e2e : tail;
      (** the fleet's arrival-to-completion-notification stream, every
          router's merged (queueing, placement and spill hops
          included), or the workflow's start-to-last-completion stream
          for a chain *)
  messages : int;  (** cross-shard messages delivered *)
  sync : sync;
}

val run : t -> row
(** Build, provision, ingest, run, summarize.  On every non-chain row,
    checks trigger conservation: [attempted = completed + rejected +
    pending + lost].
    @raise Failure naming the scenario if conservation fails.
    @raise Invalid_argument on an impossible fleet (see
    {!Horse_faas.Cluster.create_sharded}) or a chain with [len < 1]. *)

val run_timed : t -> row * float
(** {!run}, plus the wall-clock seconds of the event-processing phase
    alone (provisioning and batch construction are sequential and
    identical on every side of a comparison), measured after a full
    major collection so earlier garbage is not billed to the run. *)

val identical :
  ?run:(t -> row) -> t list -> (row list, string) result
(** Run every scenario ([run], default {!run}) in order and require
    each row to equal the first scenario's — {!sync} excepted when the
    two scenarios' schedulers differ.  [Ok rows] in scenario order, or
    [Error] naming the first differing row field, both values and
    both scenarios. *)
