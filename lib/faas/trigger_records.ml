module Time = Horse_sim.Time_ns

(* Struct-of-arrays store for completed-invocation records: seven
   parallel int columns (virtual time is integer nanoseconds, function
   names are interned ids, start modes are dense codes), grown by
   doubling and addressed by slot.  Appending writes seven ints —
   nothing is boxed, so a 100M-trigger run costs 7 words/record flat
   instead of a cons + record + string per trigger.  Rows are never
   removed, so a slot stays valid for the arena's lifetime. *)

type t = {
  mutable fn_id : int array;
  mutable mode : int array;  (* dense start-mode code, owner-defined *)
  mutable triggered_at : int array;
  mutable init : int array;
  mutable exec : int array;
  mutable preemption : int array;
  mutable completed_at : int array;
  mutable len : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  let col () = Array.make capacity 0 in
  {
    fn_id = col ();
    mode = col ();
    triggered_at = col ();
    init = col ();
    exec = col ();
    preemption = col ();
    completed_at = col ();
    len = 0;
  }

let length t = t.len

let grow t =
  let cap = 2 * Array.length t.fn_id in
  let wider col =
    let w = Array.make cap 0 in
    Array.blit col 0 w 0 t.len;
    w
  in
  t.fn_id <- wider t.fn_id;
  t.mode <- wider t.mode;
  t.triggered_at <- wider t.triggered_at;
  t.init <- wider t.init;
  t.exec <- wider t.exec;
  t.preemption <- wider t.preemption;
  t.completed_at <- wider t.completed_at

let append t ~fn_id ~mode ~triggered_at ~init ~exec ~preemption ~completed_at =
  if t.len = Array.length t.fn_id then grow t;
  let i = t.len in
  t.fn_id.(i) <- fn_id;
  t.mode.(i) <- mode;
  t.triggered_at.(i) <- Time.to_ns triggered_at;
  t.init.(i) <- Time.span_to_ns init;
  t.exec.(i) <- Time.span_to_ns exec;
  t.preemption.(i) <- Time.span_to_ns preemption;
  t.completed_at.(i) <- Time.to_ns completed_at;
  t.len <- i + 1;
  i

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Trigger_records: slot out of range"

let fn_id t i =
  check t i;
  t.fn_id.(i)

let mode_code t i =
  check t i;
  t.mode.(i)

let triggered_at t i =
  check t i;
  Time.of_ns t.triggered_at.(i)

let init t i =
  check t i;
  Time.span_ns t.init.(i)

let exec t i =
  check t i;
  Time.span_ns t.exec.(i)

let preemption t i =
  check t i;
  Time.span_ns t.preemption.(i)

let completed_at t i =
  check t i;
  Time.of_ns t.completed_at.(i)

let total_ns t i =
  check t i;
  t.init.(i) + t.exec.(i) + t.preemption.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f i
  done
