(* Flat slot arena for sorted intrusive doubly-linked lists.

   Same storage recipe as Horse_sim.Event_queue: one growable bank of
   parallel arrays, slots recycled through a free list threaded via
   [nxt], handles carrying a generation in the upper bits so stale
   references are detected instead of aliased.

   Per slot (arena-wide):
     value.(s)  payload
     nxt.(s)    chain successor slot, -1 at a tail; free-list link
                while the slot is free
     prv.(s)    chain predecessor slot, -1 at a head
     gen.(s)    generation, bumped on free
     apos.(s)   absolute index into the owning list's [ord] buffer
     owner.(s)  owning list id, -1 while free

   Per list: [ord] is a gap buffer of slots in sorted order occupying
   the window [start, start+len).  It is what replaces the O(n) walk:
   position lookups are [apos.(s) - start] (O(1)), insertion points
   come from binary search over the window (reporting the same
   nodes-walked count the boxed oracle would), head pops just advance
   [start], and mid-window mutations blit the shorter side.

   Hot paths (insert/remove/pop) allocate nothing beyond the result
   the caller sees: plain loops, int arrays, non-escaping refs. *)

let gen_shift = 32

let slot_mask = (1 lsl gen_shift) - 1

type handle = int

let nil = -1

let is_nil h = h < 0

let equal (a : int) (b : int) = a = b

(* A well-typed placeholder for payload cells that hold no live value;
   never read before being overwritten. *)
let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

type 'a arena = {
  compare : 'a -> 'a -> int;
  mutable value : 'a array;
  mutable nxt : int array;
  mutable prv : int array;
  mutable gen : int array;
  mutable apos : int array;
  mutable owner : int array;
  mutable free : int;
  mutable cap : int;
  mutable next_id : int;
}

type 'a t = {
  arena : 'a arena;
  id : int;
  mutable ord : int array;
  mutable start : int;
  mutable len : int;
  mutable head : int;  (* slot, -1 when empty *)
  mutable tail : int;
  mutable version : int;  (* structural mutations so far *)
}

let create_arena ?(capacity = 16) ~compare () =
  let cap = max 1 capacity in
  let nxt = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    compare;
    value = Array.make cap (dummy ());
    nxt;
    prv = Array.make cap (-1);
    gen = Array.make cap 0;
    apos = Array.make cap 0;
    owner = Array.make cap (-1);
    free = 0;
    cap;
    next_id = 0;
  }

let create arena =
  let id = arena.next_id in
  arena.next_id <- id + 1;
  {
    arena;
    id;
    ord = Array.make 8 (-1);
    start = 4;
    len = 0;
    head = -1;
    tail = -1;
    version = 0;
  }

let arena t = t.arena

let live_slots a =
  let n = ref 0 in
  for s = 0 to a.cap - 1 do
    if a.owner.(s) >= 0 then incr n
  done;
  !n

let same_arena a b = a.arena == b.arena

let compare_fn t = t.arena.compare

let length t = t.len

let version t = t.version

let is_empty t = t.len = 0

let grow_arena a =
  let cap = a.cap in
  let ncap = 2 * cap in
  let grow arr fill =
    let n = Array.make ncap fill in
    Array.blit arr 0 n 0 cap;
    n
  in
  a.value <- grow a.value (dummy ());
  a.nxt <- grow a.nxt (-1);
  a.prv <- grow a.prv (-1);
  a.gen <- grow a.gen 0;
  a.apos <- grow a.apos 0;
  a.owner <- grow a.owner (-1);
  for i = cap to ncap - 2 do
    a.nxt.(i) <- i + 1
  done;
  a.nxt.(ncap - 1) <- a.free;
  a.free <- cap;
  a.cap <- ncap

let alloc_slot a =
  if a.free < 0 then grow_arena a;
  let s = a.free in
  a.free <- a.nxt.(s);
  s

let release_slot a s =
  a.gen.(s) <- a.gen.(s) + 1;
  a.owner.(s) <- -1;
  a.value.(s) <- dummy ();
  a.prv.(s) <- -1;
  a.nxt.(s) <- a.free;
  a.free <- s

let handle_of a s = (a.gen.(s) lsl gen_shift) lor s

(* A handle owned by this list, or Not_found. *)
let slot_of t h =
  let a = t.arena in
  let s = h land slot_mask in
  if h < 0 || s >= a.cap || a.gen.(s) <> h asr gen_shift || a.owner.(s) <> t.id
  then raise Not_found;
  s

(* Like slot_of but only checks liveness, not ownership: splice
   surgery handles nodes mid-transfer between lists. *)
let raw_slot a h =
  let s = h land slot_mask in
  if h < 0 || s >= a.cap || a.gen.(s) <> h asr gen_shift then raise Not_found;
  s

let mem t h =
  let a = t.arena in
  let s = h land slot_mask in
  h >= 0 && s < a.cap && a.gen.(s) = h asr gen_shift && a.owner.(s) = t.id

let value t h = t.arena.value.(slot_of t h)

let position t h = t.arena.apos.(slot_of t h) - t.start

let first t = if t.len = 0 then nil else handle_of t.arena t.head

let next t h =
  let s = slot_of t h in
  let r = t.arena.nxt.(s) in
  if r < 0 then nil else handle_of t.arena r

let prev t h =
  let s = slot_of t h in
  let l = t.arena.prv.(s) in
  if l < 0 then nil else handle_of t.arena l

(* ---- ord gap buffer ------------------------------------------------ *)

(* Reallocate the order buffer with the window centred and a hole left
   at window index [pos]; returns the hole's absolute index. *)
let rebuild_with_hole t pos =
  let a = t.arena in
  let ncap = max 8 (2 * (t.len + 1)) in
  let ord = Array.make ncap (-1) in
  let start = (ncap - t.len - 1) / 2 in
  Array.blit t.ord t.start ord start pos;
  Array.blit t.ord (t.start + pos) ord (start + pos + 1) (t.len - pos);
  t.ord <- ord;
  t.start <- start;
  for i = start to start + t.len do
    if i <> start + pos then a.apos.(ord.(i)) <- i
  done;
  start + pos

(* Open a one-slot hole at window index [pos], shifting whichever side
   is cheaper (and has room).  The shift and its apos fixups are one
   fused pass — each moved cell is read once and written twice, with
   no second sweep over [ord].  O(min(pos, len - pos)); O(1) at
   either end. *)
let open_gap t pos =
  let a = t.arena in
  let cap = Array.length t.ord in
  let left = pos and right = t.len - pos in
  if left <= right && t.start > 0 then begin
    t.start <- t.start - 1;
    for i = t.start to t.start + left - 1 do
      let s = t.ord.(i + 1) in
      t.ord.(i) <- s;
      a.apos.(s) <- i
    done;
    t.start + left
  end
  else if t.start + t.len < cap then begin
    for i = t.start + t.len downto t.start + pos + 1 do
      let s = t.ord.(i - 1) in
      t.ord.(i) <- s;
      a.apos.(s) <- i
    done;
    t.start + pos
  end
  else rebuild_with_hole t pos

let close_gap t pos =
  let a = t.arena in
  if pos < t.len - 1 - pos then begin
    for i = t.start + pos downto t.start + 1 do
      let s = t.ord.(i - 1) in
      t.ord.(i) <- s;
      a.apos.(s) <- i
    done;
    t.start <- t.start + 1
  end
  else
    for i = t.start + pos to t.start + t.len - 2 do
      let s = t.ord.(i + 1) in
      t.ord.(i) <- s;
      a.apos.(s) <- i
    done;
  t.len <- t.len - 1;
  t.version <- t.version + 1

(* First window index at or after [from] whose element exceeds [x].
   From 0 it is exactly the count of elements <= x, which is both the
   stable (FIFO-among-equals) insertion point and the node count the
   boxed oracle walks. *)
let upper_bound t ~from x =
  let a = t.arena in
  let lo = ref from and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.compare a.value.(t.ord.(t.start + mid)) x <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* ---- mutations ----------------------------------------------------- *)

let link_at t s pos =
  let a = t.arena in
  let left = if pos > 0 then t.ord.(t.start + pos - 1) else -1 in
  let right = if pos < t.len then t.ord.(t.start + pos) else -1 in
  a.nxt.(s) <- right;
  a.prv.(s) <- left;
  if left >= 0 then a.nxt.(left) <- s else t.head <- s;
  if right >= 0 then a.prv.(right) <- s else t.tail <- s;
  let hole = open_gap t pos in
  t.ord.(hole) <- s;
  a.apos.(s) <- hole;
  t.len <- t.len + 1;
  t.version <- t.version + 1

let insert_sorted t x =
  let a = t.arena in
  let pos = upper_bound t ~from:0 x in
  let s = alloc_slot a in
  a.value.(s) <- x;
  a.owner.(s) <- t.id;
  link_at t s pos;
  (handle_of a s, pos)

let remove_node t h =
  let a = t.arena in
  let s = slot_of t h in
  let pos = a.apos.(s) - t.start in
  let l = a.prv.(s) and r = a.nxt.(s) in
  if l >= 0 then a.nxt.(l) <- r else t.head <- r;
  if r >= 0 then a.prv.(r) <- l else t.tail <- l;
  close_gap t pos;
  release_slot a s;
  pos

let pop_first t =
  if t.len = 0 then None
  else begin
    let a = t.arena in
    let s = t.head in
    let x = a.value.(s) in
    let r = a.nxt.(s) in
    t.head <- r;
    if r >= 0 then a.prv.(r) <- -1 else t.tail <- -1;
    close_gap t 0;
    release_slot a s;
    Some x
  end

let nth t i =
  if i < 0 || i >= t.len then invalid_arg "Arena_list.nth: out of range";
  handle_of t.arena t.ord.(t.start + i)

let handles t = Array.init t.len (fun i -> handle_of t.arena t.ord.(t.start + i))

let fold f acc t =
  let a = t.arena in
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc a.value.(t.ord.(t.start + i))
  done;
  !acc

let iter f t =
  let a = t.arena in
  for i = 0 to t.len - 1 do
    f a.value.(t.ord.(t.start + i))
  done

let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

(* Append [x] as the new last element (caller guarantees ordering). *)
let append_last t x =
  let a = t.arena in
  let s = alloc_slot a in
  a.value.(s) <- x;
  a.owner.(s) <- t.id;
  link_at t s t.len

let of_sorted_list arena xs =
  let rec check = function
    | a :: (b :: _ as rest) ->
      if arena.compare a b > 0 then
        invalid_arg "Arena_list.of_sorted_list: input not sorted";
      check rest
    | [ _ ] | [] -> ()
  in
  check xs;
  let t = create arena in
  List.iter (append_last t) xs;
  t

let is_sorted t =
  let a = t.arena in
  let ok = ref true in
  let expected_head = if t.len = 0 then -1 else t.ord.(t.start) in
  let expected_tail = if t.len = 0 then -1 else t.ord.(t.start + t.len - 1) in
  if t.head <> expected_head || t.tail <> expected_tail then ok := false;
  for i = 0 to t.len - 1 do
    let s = t.ord.(t.start + i) in
    if a.owner.(s) <> t.id then ok := false;
    if a.apos.(s) <> t.start + i then ok := false;
    let en = if i = t.len - 1 then -1 else t.ord.(t.start + i + 1) in
    if a.nxt.(s) <> en then ok := false;
    let ep = if i = 0 then -1 else t.ord.(t.start + i - 1) in
    if a.prv.(s) <> ep then ok := false;
    if i > 0 && a.compare a.value.(t.ord.(t.start + i - 1)) a.value.(s) > 0
    then ok := false
  done;
  !ok

let pp pp_elt ppf t =
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_elt)
    (to_list t)

module Unsafe = struct
  let link_after target ~anchor ~first ~last =
    let a = target.arena in
    let first_s = raw_slot a first and last_s = raw_slot a last in
    let anchor_s = if is_nil anchor then -1 else raw_slot a anchor in
    (* Same read-then-write discipline as the boxed splice: the only
       cell read ([anchor]'s successor) is never written by a splice
       at a different anchor, so strands with distinct anchors are
       race-free. *)
    let after = if anchor_s < 0 then target.head else a.nxt.(anchor_s) in
    if anchor_s < 0 then target.head <- first_s
    else a.nxt.(anchor_s) <- first_s;
    a.prv.(first_s) <- anchor_s;
    a.nxt.(last_s) <- after;
    if after >= 0 then a.prv.(after) <- last_s else target.tail <- last_s;
    (* the one cell strands with distinct anchors share; a lost
       increment is harmless, since [merge_commit] bumps it again
       before anyone compares it *)
    target.version <- target.version + 1

  let merge_commit ~target ~source ~keys ~counts ~nseg =
    if not (same_arena target source) then
      invalid_arg "Arena_list.Unsafe.merge_commit: lists from different arenas";
    let a = target.arena in
    let n = target.len and m = source.len in
    let new_len = n + m in
    if m > 0 then begin
      (* Merge the two order buffers from the back: the write cursor
         leads the target read cursor by exactly the number of source
         elements still to place, so when the target's own buffer has
         room the merge runs in place — no allocation, and elements
         before the first splice key are never touched. *)
      let fits = target.start + new_len <= Array.length target.ord in
      let ord, start =
        if fits then (target.ord, target.start)
        else
          let ncap = max 8 (2 * new_len) in
          (Array.make ncap (-1), (ncap - new_len) / 2)
      in
      let w = ref (start + new_len - 1) in
      let tcur = ref (n - 1) in
      let send = ref m in
      for g = nseg - 1 downto 0 do
        while !tcur >= keys.(g) do
          let s = target.ord.(target.start + !tcur) in
          ord.(!w) <- s;
          a.apos.(s) <- !w;
          decr w;
          decr tcur
        done;
        for j = !send - 1 downto !send - counts.(g) do
          let s = source.ord.(source.start + j) in
          ord.(!w) <- s;
          a.apos.(s) <- !w;
          a.owner.(s) <- target.id;
          decr w
        done;
        send := !send - counts.(g)
      done;
      (* the prefix below the first key only moves on reallocation *)
      if not fits then
        while !tcur >= 0 do
          let s = target.ord.(target.start + !tcur) in
          ord.(!w) <- s;
          a.apos.(s) <- !w;
          decr w;
          decr tcur
        done;
      target.ord <- ord;
      target.start <- start;
      target.len <- new_len;
      target.head <- ord.(start);
      target.tail <- ord.(start + new_len - 1)
    end;
    source.len <- 0;
    source.head <- -1;
    source.tail <- -1;
    source.start <- Array.length source.ord / 2;
    target.version <- target.version + 1;
    source.version <- source.version + 1
end
