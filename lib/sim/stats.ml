module Online = struct
  (* The float state lives in one flat float array: a float stored
     into a mutable field of a mixed int/float record is boxed on
     every write, and [add] sits on per-trigger paths where that boxing
     would dominate the allocation budget.  Float-array writes are
     unboxed. *)
  type t = { mutable count : int; s : float array }
  (* s = [| mean; m2; min; max |] *)

  let create () = { count = 0; s = [| 0.0; 0.0; infinity; neg_infinity |] }

  let add t x =
    t.count <- t.count + 1;
    let s = t.s in
    let delta = x -. s.(0) in
    s.(0) <- s.(0) +. (delta /. float_of_int t.count);
    s.(1) <- s.(1) +. (delta *. (x -. s.(0)));
    if x < s.(2) then s.(2) <- x;
    if x > s.(3) then s.(3) <- x

  let count t = t.count

  let mean t = if t.count = 0 then 0.0 else t.s.(0)

  let variance t =
    if t.count < 2 then 0.0 else t.s.(1) /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)

  let min t =
    if t.count = 0 then invalid_arg "Stats.Online.min: empty";
    t.s.(2)

  let max t =
    if t.count = 0 then invalid_arg "Stats.Online.max: empty";
    t.s.(3)

  let ci95_half_width t =
    if t.count < 2 then 0.0
    else 1.96 *. stddev t /. sqrt (float_of_int t.count)
end

module Sample = struct
  type t = {
    mutable data : float array;
    mutable size : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; size = 0; sorted = true }

  let add t x =
    if t.size = Array.length t.data then begin
      let data = Array.make (2 * t.size) 0.0 in
      Array.blit t.data 0 data 0 t.size;
      t.data <- data
    end;
    t.data.(t.size) <- x;
    t.size <- t.size + 1;
    t.sorted <- false

  let count t = t.size

  let mean t =
    if t.size = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.size - 1 do
        sum := !sum +. t.data.(i)
      done;
      !sum /. float_of_int t.size
    end

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.size in
      Array.sort Float.compare live;
      Array.blit live 0 t.data 0 t.size;
      t.sorted <- true
    end

  let percentile t p =
    if t.size = 0 then invalid_arg "Stats.Sample.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Sample.percentile: p out of [0,100]";
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.size - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (t.data.(lo) *. (1.0 -. w)) +. (t.data.(hi) *. w)
    end

  let values t =
    ensure_sorted t;
    Array.sub t.data 0 t.size
end

module Quantile = struct
  (* Exact: every observation is retained in a [Sample] and percentiles
     use its closest-ranks rule, so the answer depends only on the
     multiset of observations — never on stream order — and streams
     merge exactly.  The running sum is kept beside the sample so the
     mean is the insertion-order sum, unaffected by the sample's
     in-place sort. *)

  type t = {
    targets : float array;  (* quantile fractions, as given *)
    sample : Sample.t;
    sum : float array;  (* single cell, kept unboxed (see Online) *)
  }

  let default_targets = [| 0.5; 0.9; 0.99; 0.999 |]

  let create ?(quantiles = default_targets) () =
    if Array.length quantiles = 0 then
      invalid_arg "Stats.Quantile.create: no target quantiles";
    Array.iter
      (fun p ->
        if p <= 0.0 || p >= 1.0 then
          invalid_arg "Stats.Quantile.create: target outside (0,1)")
      quantiles;
    {
      targets = Array.copy quantiles;
      sample = Sample.create ();
      sum = [| 0.0 |];
    }

  let add t x =
    t.sum.(0) <- t.sum.(0) +. x;
    Sample.add t.sample x

  let count t = Sample.count t.sample

  let mean t =
    let n = count t in
    if n = 0 then 0.0 else t.sum.(0) /. float_of_int n

  let percentile t p =
    let n = count t in
    if n = 0 then invalid_arg "Stats.Quantile.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Quantile.percentile: p out of [0,100]";
    (* the targets are the stream's declared read set; streams of up
       to five observations answer any [p] *)
    if
      n > 5
      && not
           (Array.exists
              (fun q -> Float.abs (q -. (p /. 100.0)) < 1e-9)
              t.targets)
    then invalid_arg "Stats.Quantile.percentile: not a configured target";
    Sample.percentile t.sample p

  let merge = function
    | [] -> invalid_arg "Stats.Quantile.merge: no streams"
    | first :: _ as streams ->
      let merged = create ~quantiles:first.targets () in
      List.iter
        (fun q ->
          for i = 0 to count q - 1 do
            Sample.add merged.sample q.sample.data.(i)
          done;
          merged.sum.(0) <- merged.sum.(0) +. q.sum.(0))
        streams;
      merged
end

let mean_of = function
  | [] -> 0.0
  | values ->
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
