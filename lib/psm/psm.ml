module Al = Arena_list

exception Stale

module Plan = struct
  (* posA as two parallel arrays over segment index: splice key and
     element count.  Keys are strictly ascending; segments are
     contiguous runs of the (sorted) source, in array order, so
     segment [i] is the [counts.(i)] source elements after those of
     segments [0 .. i-1].  The arrays are a cache keyed by the
     target's version: [computed] is the {!Al.version} they describe
     (-1 before the first read), and every read recomputes them in
     place when the target has changed since.  arrayB is not stored:
     it is the target's own order buffer ({!Al.upper_bound}). *)
  type 'a t = {
    source : 'a Al.t;
    target : 'a Al.t;
    source_version : int;
    mutable computed : int;
    mutable keys : int array;
    mutable counts : int array;
    mutable nseg : int;
  }

  type stats = { threads : int; spliced : int; max_segment : int }

  let build ~source ~target =
    {
      source;
      target;
      source_version = Al.version source;
      computed = -1;
      keys = Array.make 8 0;
      counts = Array.make 8 0;
      nseg = 0;
    }

  let ensure_seg_capacity t =
    if t.nseg = Array.length t.keys then begin
      let cap = max 8 (2 * t.nseg) in
      let grow arr fill =
        let n = Array.make cap fill in
        Array.blit arr 0 n 0 t.nseg;
        n
      in
      t.keys <- grow t.keys 0;
      t.counts <- grow t.counts 0
    end

  (* Keys arrive non-decreasing, so a repeat key extends the last
     segment. *)
  let push t key =
    if t.nseg > 0 && t.keys.(t.nseg - 1) = key then
      t.counts.(t.nseg - 1) <- t.counts.(t.nseg - 1) + 1
    else begin
      ensure_seg_capacity t;
      t.keys.(t.nseg) <- key;
      t.counts.(t.nseg) <- 1;
      t.nseg <- t.nseg + 1
    end

  (* The precompute, in the plan's own arrays: each source element's
     key is the count of target elements <= it, binary-searched in
     the target's order buffer from the previous key (the source is
     sorted, so every target element before that key is <= it too).
     O(|A| log |B|), and no allocation once the arrays have grown.
     The source is read in order by [Al.fold], with the plan itself as
     the accumulator: the previous key is the last one pushed, so
     [step] closes over nothing and is never allocated. *)
  let step t x =
    let from = if t.nseg = 0 then 0 else t.keys.(t.nseg - 1) in
    push t (Al.upper_bound t.target ~from x);
    t

  let rebuild t =
    t.nseg <- 0;
    ignore (Al.fold step t t.source);
    t.computed <- Al.version t.target

  (* The source must be as the plan was built over it — which also
     rules out a second execute, since the merge consumed the source
     and moved its version; the target may have changed any number of
     times. *)
  let refresh t =
    if Al.version t.source <> t.source_version then raise Stale;
    if t.computed <> Al.version t.target then rebuild t

  let key_count t =
    refresh t;
    t.nseg

  let keys t =
    refresh t;
    Array.to_list (Array.sub t.keys 0 t.nseg)

  (* One order-buffer commit: the keys name target positions, so no
     target node is looked up. *)
  let execute t ~target ~source =
    if target != t.target || source != t.source then
      invalid_arg "Psm.Plan.execute: not the lists the plan was built over";
    refresh t;
    let max_segment = ref 0 in
    for j = 0 to t.nseg - 1 do
      if t.counts.(j) > !max_segment then max_segment := t.counts.(j)
    done;
    let stats =
      {
        threads = t.nseg;
        spliced = Al.length source;
        max_segment = !max_segment;
      }
    in
    Al.Unsafe.merge_commit ~target ~source ~keys:t.keys ~counts:t.counts
      ~nseg:t.nseg;
    stats
end
