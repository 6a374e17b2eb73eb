(** Nanosecond-resolution virtual time.

    All simulation timestamps and durations are carried as integer
    nanoseconds.  A distinct abstract type prevents accidentally mixing
    timestamps with unrelated integers (vCPU counts, credits, ...).
    63-bit integers give ~292 years of range, far beyond any run. *)

type t
(** A point in virtual time, in nanoseconds since simulation start. *)

type span
(** A duration, in nanoseconds.  May be zero, never negative. *)

val zero : t
(** The simulation epoch. *)

val of_ns : int -> t
(** [of_ns n] is the timestamp [n] nanoseconds after the epoch.
    @raise Invalid_argument if [n < 0]. *)

val to_ns : t -> int
(** Nanoseconds since the epoch. *)

val span_ns : int -> span
(** [span_ns n] is a duration of [n] nanoseconds.
    @raise Invalid_argument if [n < 0]. *)

val span_us : float -> span
(** [span_us us] is a duration of [us] microseconds, rounded to the
    nearest nanosecond. *)

val span_ms : float -> span
(** Duration in milliseconds. *)

val span_s : float -> span
(** Duration in seconds. *)

val span_to_ns : span -> int
(** The duration in nanoseconds. *)

val span_to_us : span -> float
(** The duration in microseconds. *)

val span_to_ms : span -> float
(** The duration in milliseconds. *)

val span_zero : span
(** The empty duration. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val diff : t -> t -> span
(** [diff later earlier] is the duration between the two instants.
    @raise Invalid_argument if [later] precedes [earlier]. *)

val add_span : span -> span -> span
(** Duration addition. *)

val sub_span : span -> span -> span
(** [sub_span a b] is [a - b].
    @raise Invalid_argument if [b] exceeds [a]. *)

val scale_span : int -> span -> span
(** [scale_span k d] is [k] repetitions of [d].
    @raise Invalid_argument if [k < 0]. *)

val max_span : span -> span -> span
(** The longer of two durations. *)

val compare : t -> t -> int
(** Timestamp ordering. *)

val compare_span : span -> span -> int
(** Duration ordering. *)

val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints a timestamp with an adaptive unit (ns, µs, ms, s). *)
