(** Model-based testing harness: seeded random operation scripts
    against a system-under-test paired with a pure oracle, with
    shrinking to a minimal failing script and a printed replay seed.

    Used by the trace-equality suites (test_psm, test_sim) and the
    fault-plane property tests (test_fault). *)

type 'op spec = {
  name : string;  (** printed in failure reports *)
  gen : Random.State.t -> 'op;  (** draw one operation *)
  show : 'op -> string;  (** render one operation for the report *)
  make : unit -> 'op -> string option;
      (** build a fresh SUT + oracle pair; the returned closure applies
          one operation to both and returns [Some divergence] the
          moment their observable behaviour disagrees *)
}

val run : 'op spec -> 'op list -> (int * string) option
(** First divergence of the script, as (op index, description), against
    a fresh SUT/oracle pair.  [None] when the whole script agrees. *)

val fails : 'op spec -> 'op list -> bool
(** [run spec ops <> None]. *)

val shrink : 'op spec -> 'op list -> 'op list
(** Truncate a failing script to its failing prefix, then greedily
    delete operations until 1-minimal (every remaining op is needed to
    keep it failing).  A non-failing script is returned unchanged. *)

val script_of_seed : 'op spec -> seed:int -> len:int -> 'op list
(** The deterministic script [check] would generate — for replaying a
    reported failure under a debugger. *)

val check : ?seeds:int list -> ?scripts:int -> ?len:int -> 'op spec -> unit
(** Drive [scripts] random scripts of up to [len] operations per seed
    (defaults: seeds 1/42/1337, 25 scripts, 60 ops) and fail the
    enclosing Alcotest case on the first divergence, reporting the
    shrunk script and the replay seed.  When the [HORSE_STRESS]
    environment variable is set (and not "" or "0"), both counts are
    multiplied by 10 — `make test-stress` sets it. *)

val stress_active : unit -> bool
(** Whether [HORSE_STRESS] is in effect for this process. *)

(** Seeded random-DAG generation with shrinking, for the workflow
    equivalence suites: generated graphs are chains, diamonds,
    fan-outs or random forward-edge DAGs of up to [max_nodes] nodes,
    and a failing graph is shrunk to a minimal one (no node and no
    edge can be removed without the failure disappearing). *)
module Dag : sig
  type shape = {
    nodes : int;  (** node count; nodes are [0 .. nodes - 1] *)
    edges : (int * int) list;
        (** dependency edges [(src, dst)] with [src < dst] — forward
            edges only, so every shape is acyclic; sorted, no
            duplicates *)
  }

  val gen : Random.State.t -> max_nodes:int -> shape
  (** Draw one shape: a chain, diamond, fan-out or random DAG of
      [1 .. max_nodes] nodes. *)

  val show : shape -> string

  val shrink : (shape -> bool) -> shape -> shape
  (** [shrink fails shape] with [fails shape = true]: greedily delete
      nodes (reindexing and dropping incident edges) and single edges
      while the failure persists, to a 1-minimal failing shape.  A
      non-failing shape is returned unchanged. *)

  val check :
    ?seeds:int list ->
    ?count:int ->
    ?max_nodes:int ->
    name:string ->
    (shape -> string option) ->
    unit
  (** Drive [count] generated shapes per seed (defaults: seeds
      1/42/1337, 12 shapes, 8 nodes) through the property — [Some
      divergence] fails — and fail the enclosing Alcotest case with
      the shrunk shape and replay seed.  [HORSE_STRESS] scales
      [count] by 10, exactly as {!check} scales scripts. *)
end

(** State snapshots for exception-safety audits: capture labelled
    observables before and after an operation that must be a no-op and
    diff them. *)
module Snapshot : sig
  type t

  val capture : (string * string) list -> t
  (** Label/value pairs of every observable that must not move. *)

  val diff : t -> t -> string option
  (** [None] when identical; otherwise a "key: before -> after" list
      covering changed, added and removed keys. *)
end

(** Boxed views of completed invocations for whole-run comparisons,
    built from the trigger-record arenas with
    {!Horse_faas.Platform.record_of_slot}. *)
module Records : sig
  val of_platform : Horse_faas.Platform.t -> Horse_faas.Platform.record list
  (** Every completion of the platform, oldest first. *)

  val of_cluster :
    Horse_faas.Cluster.t -> (int * Horse_faas.Platform.record) list
  (** Every completion fleet-wide, tagged with its server, in
      {!Horse_faas.Cluster.iter_records} order. *)
end
