module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Engine = Horse_sim.Engine

(* A flat trigger batch: three parallel int columns (arrival offset in
   integer nanoseconds, interned function id, opaque payload — the
   FaaS layer stores its dense start-mode code there).  The trace
   layer hands the router one of these instead of one closure per
   trigger, so ingesting a million arrivals costs three int-array
   writes each and the event queue never holds the whole trace at
   once (the consumer walks a windowed cursor). *)

type t = {
  mutable times : int array;  (* offsets, non-decreasing after [sort] *)
  mutable fn_ids : int array;
  mutable payloads : int array;
  mutable len : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    times = Array.make capacity 0;
    fn_ids = Array.make capacity 0;
    payloads = Array.make capacity 0;
    len = 0;
  }

let length t = t.len

let grow t =
  let cap = 2 * Array.length t.times in
  let wider col =
    let w = Array.make cap 0 in
    Array.blit col 0 w 0 t.len;
    w
  in
  t.times <- wider t.times;
  t.fn_ids <- wider t.fn_ids;
  t.payloads <- wider t.payloads

let add t ~at ~fn_id ~payload =
  if t.len = Array.length t.times then grow t;
  let i = t.len in
  t.times.(i) <- Time.span_to_ns at;
  t.fn_ids.(i) <- fn_id;
  t.payloads.(i) <- payload;
  t.len <- i + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Batch: index out of range"

let time t i =
  check t i;
  Time.span_ns t.times.(i)

let time_ns t i =
  check t i;
  t.times.(i)

let fn_id t i =
  check t i;
  t.fn_ids.(i)

let payload t i =
  check t i;
  t.payloads.(i)

(* Stable sort by arrival time: equal-time triggers keep insertion
   order, matching what scheduling them one by one on the engine's
   FIFO tie-break would produce. *)
let sort t =
  let idx = Array.init t.len (fun i -> i) in
  Array.stable_sort (fun a b -> compare t.times.(a) t.times.(b)) idx;
  let permute col =
    let w = Array.make (Array.length col) 0 in
    for i = 0 to t.len - 1 do
      w.(i) <- col.(idx.(i))
    done;
    Array.blit w 0 col 0 t.len
  in
  permute t.times;
  permute t.fn_ids;
  permute t.payloads

let sorted t =
  let rec go i = i >= t.len || (t.times.(i - 1) <= t.times.(i) && go (i + 1)) in
  t.len <= 1 || go 1

(* DAG-aware ingestion support: workflow consumers read the payload
   column as a per-arrival instance seed, and a trace that wants
   reproducible per-instance values stamps them here after generating
   the arrival process — one in-place column rewrite, no reallocation,
   no disturbance of the (sorted) time column. *)
let stamp_payloads t f =
  for i = 0 to t.len - 1 do
    t.payloads.(i) <- f i
  done

let of_spans ?(payload = 0) ~fn_id spans =
  let t = create ~capacity:(max 1 (List.length spans)) () in
  List.iter (fun at -> add t ~at ~fn_id ~payload) spans;
  t

(* [n] arrivals uniform over [0, duration), sorted in place — the
   flat-array equivalent of drawing offsets one by one and
   [List.sort]ing them: same draws, same multiset, same order. *)
let uniform ~rng ~n ~duration ?(fn_id = 0) ?(payload = 0) () =
  if n < 0 then invalid_arg "Batch.uniform: n < 0";
  let dur_ns = Time.span_to_ns duration in
  if dur_ns <= 0 then invalid_arg "Batch.uniform: empty duration";
  let t = create ~capacity:(max 1 n) () in
  for _ = 1 to n do
    add t ~at:(Time.span_ns (Rng.int rng dur_ns)) ~fn_id ~payload
  done;
  sort t;
  t

(* [n] arrivals in bursts: burst epochs land uniformly over the
   duration, each carries a geometric-ish clump (mean [burst]) spaced
   exponentially (mean [spacing]) so a whole clump fits inside one
   placement round-trip.  The aggregate rate matches [uniform] with
   the same [n]; only the clustering differs — this is the arrival
   process that separates optimistic push from demand-driven pull,
   because a clump wider than the believed-free pool forces the
   router to either guess (push) or queue (pull). *)
let bursty ~rng ~n ~duration ?(burst = 48) ?(spacing = Time.span_us 1.0)
    ?(fn_id = 0) ?(payload = 0) () =
  if n < 0 then invalid_arg "Batch.bursty: n < 0";
  if burst < 1 then invalid_arg "Batch.bursty: burst < 1";
  let dur_ns = Time.span_to_ns duration in
  if dur_ns <= 0 then invalid_arg "Batch.bursty: empty duration";
  let spacing_ns = float_of_int (Time.span_to_ns spacing) in
  if spacing_ns <= 0.0 then invalid_arg "Batch.bursty: empty spacing";
  let t = create ~capacity:(max 1 n) () in
  let remaining = ref n in
  while !remaining > 0 do
    let epoch = Rng.int rng dur_ns in
    (* 1 + Exp(mean burst-1) truncated to int: geometric-shaped clump
       sizes with mean [burst], never empty. *)
    let size =
      if burst = 1 then 1
      else
        1
        + int_of_float
            (Rng.exponential rng ~mean:(float_of_int (burst - 1)))
    in
    let size = min size !remaining in
    let at = ref (float_of_int epoch) in
    for _ = 1 to size do
      (* clip to the horizon rather than wrapping: a clump near the
         end just crowds the last instants, like a real traffic spike
         cut off by the observation window *)
      let ns = min (dur_ns - 1) (int_of_float !at) in
      add t ~at:(Time.span_ns ns) ~fn_id ~payload;
      at := !at +. Rng.exponential rng ~mean:spacing_ns
    done;
    remaining := !remaining - size
  done;
  sort t;
  t

(* The windowed cursor both batch consumers share: slice the row
   indices per lane (batch order within a slice is global order
   restricted to that lane) and walk each slice on its lane's engine.
   Each refill pre-schedules the next [window] arrivals of the lane —
   the refill event for the window's boundary instant is scheduled
   {e before} the boundary arrival itself, so under the engine's FIFO
   tie-break the next window is enqueued before the boundary arrival
   fires and arrivals always fire in batch order.  Each event queue
   therefore holds at most [window] pending arrivals instead of the
   whole trace. *)
let arm ?(window = 4096) t ~lanes ~route ~engine ~fire =
  if window < 1 then invalid_arg "Batch.arm: window < 1";
  if not (sorted t) then invalid_arg "Batch.arm: batch not sorted";
  let counts = Array.make lanes 0 in
  for k = 0 to t.len - 1 do
    let l = route k in
    counts.(l) <- counts.(l) + 1
  done;
  let rows = Array.map (fun c -> Array.make (max 1 c) 0) counts in
  let fill = Array.make lanes 0 in
  for k = 0 to t.len - 1 do
    let l = route k in
    rows.(l).(fill.(l)) <- k;
    fill.(l) <- fill.(l) + 1
  done;
  Array.iteri
    (fun l rows ->
      let m = counts.(l) in
      if m > 0 then begin
        let e = engine l in
        let base = Engine.now e in
        let at k = Time.add base (Time.span_ns t.times.(k)) in
        let rec refill start =
          let stop = min m (start + window) in
          (* next refill first: it shares the boundary arrival's
             instant and must win the FIFO tie *)
          if stop < m then
            ignore
              (Engine.schedule_at e ~at:(at rows.(stop - 1)) (fun _ ->
                   refill stop));
          for j = start to stop - 1 do
            let k = rows.(j) in
            ignore (Engine.schedule_at e ~at:(at k) (fun _ -> fire l k))
          done
        in
        refill 0
      end)
    rows
