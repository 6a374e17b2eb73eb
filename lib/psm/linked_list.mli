(** Mutable sorted singly-linked lists with exposed nodes.

    Run queues in the paper's hypervisors are sorted linked lists
    (credit-ordered in Xen's credit2).  This boxed list is the oracle
    the flat {!Arena_list} is checked against, and the target of the
    vanilla per-element merge in {!Reference}.  Every mutating
    operation reports how many nodes it walked, which is what the
    simulator charges to the virtual clock.

    Ordering is stable: an element equal to existing ones is placed
    after them (FIFO among equals), the behaviour expected of a run
    queue. *)

type 'a t
(** A sorted list under the comparison given at creation. *)

type 'a node
(** A list cell; identity matters (used as splice anchor). *)

val create : compare:('a -> 'a -> int) -> unit -> 'a t

val compare_fn : 'a t -> 'a -> 'a -> int
(** The ordering the list was created with. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val first : 'a t -> 'a node option

val next : 'a node -> 'a node option

val value : 'a node -> 'a

val insert_sorted : 'a t -> 'a -> 'a node * int
(** Insert keeping order; returns the new node and the number of
    nodes walked past (the sorted-merge cost of resume step ④). *)

val remove_node : 'a t -> 'a node -> int
(** Unlink [node]; returns nodes walked to find it.
    @raise Not_found if the node is not in the list. *)

val pop_first : 'a t -> 'a option
(** Remove and return the head element. *)

val nth_node : 'a t -> int -> 'a node
(** The node at 0-based position [i] (O(i)).
    @raise Invalid_argument if out of range. *)

val to_list : 'a t -> 'a list

val of_sorted_list : compare:('a -> 'a -> int) -> 'a list -> 'a t
(** Wrap an already sorted list (O(n)).
    @raise Invalid_argument if the input is not sorted. *)

val iter : ('a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val is_sorted : 'a t -> bool
(** Invariant check used by tests and debug assertions. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
