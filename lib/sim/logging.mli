(** Logging setup for the HORSE libraries.

    Every library logs through its own {!Logs} source ([horse.vmm],
    [horse.platform], …) so consumers can raise verbosity per
    subsystem.  Nothing logs until a reporter is installed;
    {!setup} installs a minimal stderr reporter — applications
    embedding the libraries can install their own instead. *)

val setup : ?level:Logs.level -> unit -> unit
(** Install a stderr reporter and set the global log level
    (default [Logs.Info]).  Idempotent. *)

val src : string -> Logs.src
(** [src name] creates (or reuses) the source [horse.<name>]. *)

val debug_enabled : Logs.src -> bool
(** True iff [src] reports debug messages now.  Hot paths test it
    before calling [Log.debug], so the message closure (and what it
    captures) is allocated only on a run that prints it. *)
