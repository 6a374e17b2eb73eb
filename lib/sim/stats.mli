(** Online statistics for experiment measurements.

    {!Online} accumulates mean/variance in one pass (Welford), good
    for unbounded streams; {!Sample} keeps every observation, giving
    exact percentiles for the latency distributions the paper reports
    (mean, p95, p99); {!Quantile} is a {!Sample} read at a declared set
    of target percentiles, with an exact running mean and an exact
    {!Quantile.merge}.

    Policy: every percentile the repo reports is exact.  Retaining one
    float per observation is no extra asymptotic cost: each completed
    trigger is already kept in full as a 7-word row of the platform's
    record arena, so a per-trigger latency stream adds 1 word next to
    those 7.  A fixed-memory estimator would save that word and give
    wrong tails on the bursty two-mode streams the storm experiments
    produce. *)

module Online : sig
  type t
  (** Single-pass accumulator: count, mean, variance, min, max. *)

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** 0.0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0.0 with fewer than two points. *)

  val stddev : t -> float

  val min : t -> float
  (** @raise Invalid_argument when empty. *)

  val max : t -> float
  (** @raise Invalid_argument when empty. *)

  val ci95_half_width : t -> float
  (** Half-width of the 95% confidence interval on the mean under the
      normal approximation (1.96·s/√n); 0.0 with fewer than two
      points.  The paper runs each experiment until this is ≤3% of
      the mean. *)
end

module Sample : sig
  type t
  (** Stores all observations; exact quantiles on demand. *)

  val create : unit -> t

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0, 100], by linear interpolation
      between closest ranks.
      @raise Invalid_argument when empty or [p] out of range. *)

  val values : t -> float array
  (** A sorted copy of the observations. *)
end

module Quantile : sig
  type t
  (** Exact percentiles at a declared set of targets: every
      observation is retained (one float each) and read with
      {!Sample.percentile}'s closest-ranks rule, so the answer depends
      only on the multiset of observations, not on their order. *)

  val create : ?quantiles:float array -> unit -> t
  (** [quantiles] are the target fractions, each in (0,1); default
      [[|0.5; 0.9; 0.99; 0.999|]].
      @raise Invalid_argument on an empty array or a target outside
      (0,1). *)

  val add : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** Running mean in insertion order; 0.0 when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100], by {!Sample.percentile}'s
      rule.  With five or fewer observations any [p] is answered;
      beyond that [p/100] must be one of the configured targets.
      @raise Invalid_argument when empty, [p] out of range, or [p/100]
      not a configured target on a stream longer than five. *)

  val merge : t list -> t
  (** A fresh stream holding every observation of the given streams,
      with the first stream's targets.  Exact: any percentile of the
      merge equals that of one stream fed all the observations.  The
      inputs are not modified.
      @raise Invalid_argument on the empty list. *)
end

val mean_of : float list -> float
(** Convenience: arithmetic mean; 0.0 on the empty list. *)
