(** Keep-alive policies: how long to keep an idle sandbox warm.

    The paper's §1 notes that platforms either keep a sandbox alive
    for a fixed window after execution [70, 71, 79] or let tenants pay
    for always-on instances.  This module implements the two classic
    automatic policies and an offline evaluator, so the platform's
    warm-hit/cost trade-off can be studied on a trace:

    - {!Fixed}: the industry default (e.g. 10–20 min);
    - {!Histogram}: the Serverless-in-the-Wild policy (Shahrad et
      al., ATC '20 — the paper's [71]): per-function inter-arrival
      histogram in minute buckets; keep alive long enough to cover a
      target percentile of observed gaps, within a cap.

    The evaluator replays an arrival sequence against a policy and
    reports warm hits, cold starts and the warm-pool time paid — the
    provider's cost metric. *)

type policy =
  | Fixed of Horse_sim.Time_ns.span
  | Histogram of { percentile : float; cap : Horse_sim.Time_ns.span }
      (** keep-alive = the [percentile]-th percentile of observed
          inter-arrival times, never above [cap]; before any history
          accumulates, [cap] is used. *)

val policy_name : policy -> string

type t
(** Per-function policy state (the histogram, for {!Histogram}). *)

val create : policy -> t
(** @raise Invalid_argument if a percentile is outside (0, 100]. *)

val note_arrival : t -> at:Horse_sim.Time_ns.t -> unit
(** Feed one invocation arrival (non-decreasing timestamps).
    @raise Invalid_argument on a clock regression. *)

val recommendation : t -> Horse_sim.Time_ns.span
(** The keep-alive window the policy currently recommends. *)

type evaluation = {
  invocations : int;
  warm_hits : int;  (** arrivals that found the sandbox still warm *)
  cold_starts : int;
  warm_pool_span : Horse_sim.Time_ns.span;
      (** total sandbox-idle time paid keeping instances warm *)
}

val warm_hit_rate : evaluation -> float
(** [warm_hits / invocations]; 0 when empty. *)

val evaluate :
  policy -> arrivals:Horse_sim.Time_ns.span list -> evaluation
(** Replay [arrivals] (offsets from 0, sorted ascending) against a
    fresh policy instance: the first arrival is always cold; each
    later one is warm iff its gap is within the recommendation in
    force when the previous invocation finished.  The histogram
    learns online, exactly as the platform would.
    @raise Invalid_argument if [arrivals] is not sorted. *)
