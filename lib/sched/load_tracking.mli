(** Per-run-queue load tracking (the paper's step ⑤ state).

    Models PELT ("per-entity load tracking", Turner 2011): a
    geometric-decay average updated by the affine step
    [L ← α·L + β] whenever a vCPU is enqueued, decayed by [αᵏ] as
    time passes.  The resulting utilisation feeds the DVFS governor.
    In the real kernel this word is lock-protected and its update is
    the second-biggest slice of the resume path; HORSE coalesces the
    [n] per-vCPU updates into one ({!on_enqueue_coalesced}). *)

type t

val create : ?update:Horse_coalesce.Coalesce.Affine.t -> unit -> t
(** Fresh tracker at zero load.  [update] defaults to
    {!Horse_coalesce.Coalesce.Affine.pelt}. *)

val load : t -> float

val on_enqueue : t -> unit
(** One vanilla per-vCPU update: [L ← α·L + β]. *)

val on_enqueue_coalesced : t -> Horse_coalesce.Coalesce.Precomputed.t -> unit
(** The HORSE path: apply the whole sandbox's precomputed update in
    one operation. *)

val on_dequeue : t -> unit
(** Removing a vCPU sheds its contribution: [L ← max(0, L − β)]. *)

val decay : t -> periods:int -> unit
(** Idle decay over [periods] PELT periods: [L ← αᵏ·L].
    @raise Invalid_argument if [periods < 0]. *)

val utilisation : t -> float
(** Load as a fraction of the full-scale value [β/(1−α)], clamped to
    [0, 1] — the number the governor consumes. *)

val updates : t -> int
(** How many times the lock-protected word was written (vanilla
    counts n per resume, HORSE counts 1 — the observable §4.2
    difference). *)
