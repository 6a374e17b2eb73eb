(** The one parallel runtime: a persistent domain team with a reusable
    round barrier.

    [run t f] executes [f w] for every strand [w] in [0 .. width - 1]
    (strand 0 on the calling domain, the rest each pinned to its own
    persistent domain) and returns only when every strand has
    finished.  Releasing a round is a single atomic increment of the
    round counter — a sense-reversing barrier with the round number as
    the sense — so a round costs no semaphore traffic, which is what
    makes the thousands of short synchronization rounds of
    [Horse_sim.Shard_engine] affordable.  {!map} builds the experiment
    sweeps' ordered fan on one such round.

    Strand [w] normally executes on the same domain every round, so
    per-strand working sets stay cache-warm across rounds; but a round
    never waits for a parked worker to wake: once the caller has run
    its own strands it runs every worker strand that has not started
    yet itself, and waits only for strands already running.
    [run] establishes the usual happens-before: writes by the caller
    before [run] are visible to every strand, and writes by the
    strands inside [f] are visible to the caller after [run] returns.
    Idle strands spin a short budget, then park on a condition
    variable, so a host with fewer cores than strands blocks instead
    of busy-waiting.

    A multi-core host spawns one worker per strand beyond strand 0,
    even when the strands outnumber the cores: a worker the OS has not
    scheduled yet costs a round nothing, because the caller runs its
    strand.  A single-core host spawns no workers at all and [run]
    executes every strand inline — forcing parked domains through a
    barrier on a timeshared core pays a context switch per worker per
    round and can never overlap any work.  The job contract is indexed
    by strand, never by domain, so results are identical for any
    split.

    {b Nesting.}  A [run] on a team that is already inside a round —
    called from one of that team's own strands, or from another domain
    at the same time — runs every strand inline on its caller, in
    ascending order, and touches none of the team's shared state.  So
    a sweep's strand may run a sharded scenario on the same cached
    team, and two domains may share one team, with the same results
    as one caller running alone.

    If strands raise, every strand still runs, and the exception of
    the lowest-numbered strand is re-raised afterwards — independent
    of scheduling. *)

type t

val default_width : unit -> int
(** [Domain.recommended_domain_count () - 1] (the caller is the extra
    strand), at least 1: the default [--jobs] of the command lines. *)

val create : width:int -> unit -> t
(** A team of [width] strands backed by [width - 1] spawned domains
    — none when [recommended_domain_count () < 2], and none for
    [width = 1], where {!run} degenerates to [f 0] inline.  The
    domains count against the runtime's limit (128 in OCaml 5.1,
    shared with every other live domain); beyond it {!Domain.spawn}
    fails.
    @raise Invalid_argument if [width < 1]. *)

val width : t -> int

val domains : t -> int
(** Worker domains actually spawned ([0] on a single-core host). *)

val run : t -> (int -> unit) -> unit
(** One barrier-delimited round: run [f w] on every strand and wait
    for all of them.  Safe from any domain and from inside a round
    (see Nesting above).
    @raise Invalid_argument if the team is shut down. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] is [List.map f xs] for every width: one {!run} round
    in which the strands claim item indices from one atomic counter
    and store each result at its index.  Every item runs even if some
    raise; the lowest-indexed item's exception is then re-raised. *)

val rounds : t -> int
(** Barrier rounds released so far (lifetime of the team); nested and
    concurrent inline runs are not counted. *)

val barrier_wait_ns : t -> int
(** Monotonic nanoseconds the caller has spent waiting at the join
    barrier, accumulated over all rounds — the direct price of
    synchronization, as opposed to the work inside the rounds. *)

val shutdown : t -> unit
(** Join and release the worker domains.  Idempotent. *)

val with_team : width:int -> (t -> 'a) -> 'a
(** [create], run [f], [shutdown] — exception-safe. *)

val shared : width:int -> t
(** The process-wide cached team for [width], spawned on first use.
    Never shut one of these down while another user might hold it. *)
