(** Category-3 uLL workload (§2): given an array of 3000 integers,
    return the indexes of every element larger than a threshold
    passed at trigger time — the kind of scan used inside image
    transformations.  Measured execution ≈ 0.7 µs (hundreds of ns of
    actual work). *)

val standard_size : int
(** 3000, the array size the paper uses. *)

val indexes_above : int array -> threshold:int -> int list
(** Indexes (ascending) of elements strictly greater than
    [threshold]. *)

val count_above : int array -> threshold:int -> int
(** [List.length (indexes_above arr ~threshold)], counted in one
    allocation-free pass. *)

val sample_input : seed:int -> size:int -> int array
(** A deterministic pseudo-random input (values in [0, 10000)). *)
