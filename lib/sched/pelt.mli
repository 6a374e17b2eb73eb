(** The decay kernel of per-entity load tracking (PELT), the kernel
    algorithm behind the paper's step-⑤ load variable (Turner 2011,
    [21]/[77] in the paper).

    Time is divided into 1024 µs periods.  An entity accumulates
    runnable time geometrically: the contribution of a period [k]
    periods in the past is weighted [yᵏ], with [y³² = 1/2].  The sum
    saturates at [load_avg_max] (the kernel's LOAD_AVG_MAX = 47742 in
    the same µs units).  The kernel implements the decay with a
    32-entry inverse-multiplier table in fixed point; so does this
    module, bit-compatibly with the widely-documented constants.

    No experiment calls it: it is the oracle for the property test
    that ties {!Load_tracking}'s affine step [L(x) = αx + β] to the
    kernel's decay ([decay_load v ~periods:k] stays within 2 units of
    [v·αᵏ]). *)

val load_avg_max : int
(** The geometric series' saturation value, 47742. *)

val decay_multiplier : int -> int32
(** [decay_multiplier k] for [k] in [0, 31]: the kernel's
    [runnable_avg_yN_inv] table entry — [y^k] in 0.32 fixed point.
    @raise Invalid_argument outside [0, 31]. *)

val decay_load : int -> periods:int -> int
(** [decay_load v ~periods] is [v·y^periods], computed exactly as the
    kernel does: halve per 32 periods, then one table multiply.
    Negative periods are rejected. *)
