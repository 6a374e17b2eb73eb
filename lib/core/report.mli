(** Plain-text table rendering for experiment output.

    The bench harness prints each reproduced table/figure as an
    aligned ASCII table with a caption, so the output reads next to
    the paper. *)

val table :
  ?caption:string -> header:string list -> string list list -> string
(** Render rows under a header with per-column alignment.  All rows
    must have the header's arity.
    @raise Invalid_argument on ragged input. *)

val print : ?caption:string -> header:string list -> string list list -> unit
(** [table] straight to stdout. *)

val ns : float -> string
(** Adaptive duration formatting from nanoseconds ("147ns",
    "1.07us", "1.30ms", "1.500s"). *)

val span : Horse_sim.Time_ns.span -> string

val pct : float -> string
(** Percent with two decimals ("61.10%"). *)

val ratio : float -> string
(** Multiplier with two decimals ("7.16x"). *)
