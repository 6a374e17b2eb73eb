(** A named-counter registry shared by an experiment's components.

    Components (scheduler, VMM, FaaS router) bump counters under
    string names; the bench harness reads them back when printing a
    table.  One registry per experiment — no global state.

    Latencies are not kept here: each completed trigger is recorded
    once, as a row of the platform's record arena, and every latency
    distribution is read from those rows.

    Hot paths should not re-hash a counter's name on every event:
    {!counter_ref} interns the lookup once and returns the live cell. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Bump the counter [name] (created at 0 on first use). *)

val counter_ref : t -> string -> int ref
(** The live cell behind counter [name] (created at 0 on first use).
    Hot paths that bump the same counter on every event hoist this
    lookup once instead of re-hashing the name each time; the cell
    stays visible to {!counter} and {!counters} immediately. *)

val counter : t -> string -> int
(** Current value; 0 if never bumped. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)
