(** Snapshot & restore — the substrate behind the paper's [restore]
    scenario (FaaSnap [8], AWS SnapStart [10]).

    A snapshot freezes a sandbox's device state and guest memory; a
    later restore brings a fresh sandbox to the snapshot point much
    faster than a cold boot.  Three restore strategies span the
    design space the snapshot literature explores:

    - [Eager]: load every memory page before running — highest
      restore latency, zero post-restore faults (classic Firecracker
      snapshot loading);
    - [Lazy]: map pages on first access — near-instant restore, one
      page fault per touched page afterwards;
    - [Working_set]: FaaSnap's middle road — prefetch the recorded
      working set, fault only on the cold remainder.  With the
      default constants and a ~256-page working set this lands at the
      paper's ≈1.3 ms restore.

    The memory model is executable: {!Memory.write} dirties pages,
    {!capture} embeds a copy, restore really reconstructs the
    contents (tests verify round-trips), while the {!costs} record
    prices the virtual-time side. *)

module Memory : sig
  type t
  (** Guest memory as an array of 4 KiB pages with dirty tracking. *)

  val create : size_mb:int -> t
  (** Zeroed memory. @raise Invalid_argument if [size_mb <= 0]. *)

  val page_count : t -> int

  val write : t -> page:int -> value:int -> unit
  (** Store a word representative into [page] and mark it dirty.
      @raise Invalid_argument on an out-of-range page. *)

  val read : t -> page:int -> int

  val dirty_count : t -> int

  val clear_dirty : t -> unit

  val touched_pages : t -> int list
  (** Pages ever written (ascending) — the recorded working set. *)
end

type t
(** A captured snapshot (immutable). *)

type costs = {
  device_state_ns : float;  (** deserialise VM device state *)
  page_load_ns : float;  (** sequentially load one page from storage *)
  fault_ns : float;  (** one post-restore page fault (trap + load) *)
}

val capture : Memory.t -> t
(** Freeze the current memory contents and working set. *)

val page_count : t -> int

val working_set_size : t -> int

type mode =
  | Eager
  | Lazy
  | Working_set

type report = {
  memory : Memory.t;  (** reconstructed guest memory *)
  restore_latency : Horse_sim.Time_ns.span;
      (** time until the guest can execute *)
  prefetched_pages : int;
  resident_pages : int;  (** pages mapped at restore time *)
}

val restore :
  ?costs:costs -> ?faults:Horse_fault.Fault.Plan.t -> t -> mode:mode -> report
(** Rebuild a sandbox's memory from the snapshot under [mode].
    [costs] defaults to NVMe-class storage: 900 µs device state,
    1.55 µs/page sequential, 4.5 µs per demand fault — chosen so a
    FaaSnap-style restore with a 256-page working set costs ≈1.3 ms
    (the paper's Table 1 anchor); {!fault_cost} uses the same default.
    If [faults] (default inert) fires {!Horse_fault.Fault.Restore_corruption},
    raises {!Horse_fault.Fault.Injected} after the full restore
    latency has been burned (corruption is caught by the post-load
    integrity check). *)

val fault_cost :
  ?costs:costs -> report -> first_touches:int -> Horse_sim.Time_ns.span
(** Post-restore slowdown when the guest touches [first_touches]
    distinct pages.  Prefetching targets the pages touched first (the
    recorded working set), so only touches beyond [resident_pages]
    fault: zero after [Eager], everything after [Lazy], the overflow
    after [Working_set].
    @raise Invalid_argument if [first_touches < 0]. *)

val mode_name : mode -> string
