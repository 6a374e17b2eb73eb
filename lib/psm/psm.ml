module Al = Arena_list

exception Stale

module Plan = struct
  (* posA as four parallel arrays over segment index: splice key,
     first/last source handle, element count.  Keys are strictly
     ascending; segments are contiguous runs of the (sorted) source
     chain, so [heads]/[tails] chain into each other in array order.
     The arrays are a cache keyed by the target's version: [computed]
     is the {!Al.version} they describe (-1 before the first read),
     and every read recomputes them in place when the target has
     changed since.  arrayB is not stored: the target's own order
     buffer ({!Al.upper_bound}, {!Al.nth}) addresses its nodes. *)
  type 'a t = {
    source : 'a Al.t;
    target : 'a Al.t;
    source_version : int;
    mutable computed : int;
    mutable keys : int array;
    mutable heads : Al.handle array;
    mutable tails : Al.handle array;
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
      heads = Array.make 8 Al.nil;
      tails = Array.make 8 Al.nil;
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
      t.heads <- grow t.heads Al.nil;
      t.tails <- grow t.tails Al.nil;
      t.counts <- grow t.counts 0
    end

  (* Keys arrive non-decreasing, so a repeat key extends the last
     segment. *)
  let push t ~key ~node =
    if t.nseg > 0 && t.keys.(t.nseg - 1) = key then begin
      t.tails.(t.nseg - 1) <- node;
      t.counts.(t.nseg - 1) <- t.counts.(t.nseg - 1) + 1
    end
    else begin
      ensure_seg_capacity t;
      t.keys.(t.nseg) <- key;
      t.heads.(t.nseg) <- node;
      t.tails.(t.nseg) <- node;
      t.counts.(t.nseg) <- 1;
      t.nseg <- t.nseg + 1
    end

  (* The precompute, in the plan's own arrays: each source element's
     key is the count of target elements <= it, binary-searched in
     the target's order buffer from the previous key (the source is
     sorted, so every target element before that key is <= it too).
     O(|A| log |B|), and no allocation once the arrays have grown. *)
  let rebuild t =
    t.nseg <- 0;
    let key = ref 0 in
    for i = 0 to Al.length t.source - 1 do
      let node = Al.nth t.source i in
      key := Al.upper_bound t.target ~from:!key (Al.value t.source node);
      push t ~key:!key ~node
    done;
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

  let check_fresh t ~target ~source =
    if target != t.target || source != t.source then
      invalid_arg "Psm.Plan.execute: not the lists the plan was built over";
    refresh t

  (* Key 0 splices at the head; key k after the target's k-th node,
     read straight from its order buffer. *)
  let splice_one t target i =
    let k = t.keys.(i) in
    Al.Unsafe.link_after target
      ~anchor:(if k = 0 then Al.nil else Al.nth target (k - 1))
      ~first:t.heads.(i) ~last:t.tails.(i)

  let commit t ~target ~source =
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

  let execute t ~target ~source =
    check_fresh t ~target ~source;
    for i = 0 to t.nseg - 1 do
      splice_one t target i
    done;
    commit t ~target ~source

  let execute_parallel ~domains t ~target ~source =
    if domains < 1 then invalid_arg "Psm.Plan.execute_parallel: domains < 1";
    check_fresh t ~target ~source;
    let n = t.nseg in
    if n > 0 then
      if domains = 1 || n = 1 then
        for i = 0 to n - 1 do
          splice_one t target i
        done
      else begin
        (* strand [w] handles segments w, w+domains, w+2·domains …
           (none when [w >= n]); distinct keys touch disjoint chain
           cells, so the strands need no mutual exclusion.  The
           strands are those of the process-wide team of width
           [domains], whatever the segment count: repeated merges
           reuse its domains instead of paying a spawn/join per
           resume. *)
        Horse_parallel.Team.run (Horse_parallel.Team.shared ~width:domains)
          (fun w ->
            let i = ref w in
            while !i < n do
              splice_one t target !i;
              i := !i + domains
            done)
      end;
    commit t ~target ~source
end
