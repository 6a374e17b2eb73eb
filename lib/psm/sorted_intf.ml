(** The operations shared by the flat {!Arena_list} and the boxed
    {!Linked_list} oracle, so trace-equality tests can drive either
    implementation from one script — the same pattern
    [Event_queue_reference] plays for the event core. *)

module type S = sig
  type 'a t

  type 'a node

  val create : compare:('a -> 'a -> int) -> unit -> 'a t

  val length : 'a t -> int

  val insert_sorted : 'a t -> 'a -> 'a node * int
  (** Returns the node and the oracle nodes-walked count (= the
      element's sorted position). *)

  val remove_node : 'a t -> 'a node -> int
  (** Returns the removed element's position.
      @raise Not_found if the node is not in the list. *)

  val pop_first : 'a t -> 'a option

  val nth : 'a t -> int -> 'a node
  (** Node at 0-based sorted position (test scripts remove by
      position so both implementations pick the same element).
      @raise Invalid_argument if out of range. *)

  val to_list : 'a t -> 'a list

  val is_sorted : 'a t -> bool
end

(** The boxed reference, verbatim. *)
module Boxed : S = struct
  include Linked_list

  let nth = Linked_list.nth_node
end

(** The arena list, one private arena per list (shared-arena use goes
    through {!Arena_list} directly). *)
module Flat : S = struct
  type 'a t = 'a Arena_list.t

  type 'a node = Arena_list.handle

  let create ~compare () = Arena_list.create (Arena_list.create_arena ~compare ())

  let length = Arena_list.length

  let insert_sorted = Arena_list.insert_sorted

  let remove_node = Arena_list.remove_node

  let pop_first = Arena_list.pop_first

  let nth = Arena_list.nth

  let to_list = Arena_list.to_list

  let is_sorted = Arena_list.is_sorted
end
