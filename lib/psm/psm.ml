module Al = Arena_list

exception Stale

(* #{b in B : b <= a}: the first position of [target] whose value
   exceeds [a], by binary search over the list's order buffer. *)
let find_key target a =
  let compare = Al.compare_fn target in
  let lo = ref 0 and hi = ref (Al.length target) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare (Al.value target (Al.nth target mid)) a <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

module Plan = struct
  (* posA as four parallel arrays over segment index: splice key,
     first/last source handle, element count.  Keys are strictly
     ascending; segments are contiguous runs of the (sorted) source
     chain, so [heads]/[tails] chain into each other in array order.
     Flat storage makes the per-mutation maintenance (the note_target
     operations) in-place int arithmetic: the resume-storm hot path
     allocates nothing per notification.  arrayB is not stored: the
     target's own order buffer ({!Al.nth}) addresses its nodes, and
     [target_len] counts the target length the notes reported, so a
     missed update still shows at merge time. *)
  type 'a t = {
    source : 'a Al.t;
    target : 'a Al.t;
    compare : 'a -> 'a -> int;
    mutable target_len : int;
    mutable keys : int array;
    mutable heads : Al.handle array;
    mutable tails : Al.handle array;
    mutable counts : int array;
    mutable nseg : int;
    mutable total : int;
    mutable valid : bool;
  }

  type stats = { threads : int; spliced : int; max_segment : int }

  let create_empty ~source ~target =
    {
      source;
      target;
      compare = Al.compare_fn source;
      target_len = Al.length target;
      keys = Array.make 8 0;
      heads = Array.make 8 Al.nil;
      tails = Array.make 8 Al.nil;
      counts = Array.make 8 0;
      nseg = 0;
      total = 0;
      valid = true;
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

  (* Shift segments [i, nseg) one place right/left (all four arrays). *)
  let shift_right t i =
    ensure_seg_capacity t;
    let n = t.nseg - i in
    Array.blit t.keys i t.keys (i + 1) n;
    Array.blit t.heads i t.heads (i + 1) n;
    Array.blit t.tails i t.tails (i + 1) n;
    Array.blit t.counts i t.counts (i + 1) n;
    t.nseg <- t.nseg + 1

  let shift_left t i =
    let n = t.nseg - i - 1 in
    Array.blit t.keys (i + 1) t.keys i n;
    Array.blit t.heads (i + 1) t.heads i n;
    Array.blit t.tails (i + 1) t.tails i n;
    Array.blit t.counts (i + 1) t.counts i n;
    t.nseg <- t.nseg - 1

  (* Append during build: keys arrive non-decreasing, so a repeat key
     extends the last segment. *)
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
    end;
    t.total <- t.total + 1

  (* Segment index holding [key], or -1. *)
  let find_seg t key =
    let lo = ref 0 and hi = ref t.nseg in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.keys.(mid) < key then lo := mid + 1 else hi := mid
    done;
    if !lo < t.nseg && t.keys.(!lo) = key then !lo else -1

  let build ~source ~target =
    let t = create_empty ~source ~target in
    (* Two-pointer scan: both lists are sorted, so the key is found by
       advancing a single cursor over the target. *)
    let cursor = ref 0 in
    let n = Al.length target in
    Array.iter
      (fun node ->
        let a = Al.value source node in
        while
          !cursor < n && t.compare (Al.value target (Al.nth target !cursor)) a <= 0
        do
          incr cursor
        done;
        push t ~key:!cursor ~node)
      (Al.handles source);
    t

  let key_count t = t.nseg

  let total t = t.total

  let keys t = Array.to_list (Array.sub t.keys 0 t.nseg)

  let keys_counts t = (Array.sub t.keys 0 t.nseg, Array.sub t.counts 0 t.nseg)

  let segments_snapshot t =
    List.init t.nseg (fun i ->
        let rec walk node remaining acc =
          let acc = node :: acc in
          if remaining <= 1 then List.rev acc
          else walk (Al.next t.source node) (remaining - 1) acc
        in
        (t.keys.(i), walk t.heads.(i) t.counts.(i) []))

  (* Split the segment at [key]: the suffix of elements [a] with
     [v <= a] moves to [key + 1] (they now follow the new target
     element).  A plain loop over local refs: this runs once per
     subscriber per queue mutation, and must not allocate. *)
  let split_segment t key v =
    let i = find_seg t key in
    if i >= 0 then begin
      let count = t.counts.(i) in
      (* walk to the first element that must follow the new target
         element, i.e. the first [a] with [v <= a] (sorted, so the
         moved elements are a suffix) *)
      let node = ref t.heads.(i) and walked = ref 0 in
      while !walked < count && t.compare v (Al.value t.source !node) > 0 do
        node := Al.next t.source !node;
        incr walked
      done;
      if !walked = 0 then
        (* the whole segment moves: just re-key it (pos+1 is free —
           strictly greater keys were already shifted) *)
        t.keys.(i) <- key + 1
      else if !walked < count then begin
        let old_tail = t.tails.(i) in
        t.tails.(i) <- Al.prev t.source !node;
        t.counts.(i) <- !walked;
        shift_right t (i + 1);
        t.keys.(i + 1) <- key + 1;
        t.heads.(i + 1) <- !node;
        t.tails.(i + 1) <- old_tail;
        t.counts.(i + 1) <- count - !walked
      end
      (* else every element stays before the new target node *)
    end

  let note_target_insert t ~pos v =
    (* Order matters: first re-key strictly-greater segments (freeing
       key pos+1), then split the straddling one so its moved suffix
       lands at pos+1 without being double-shifted. *)
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) > pos then t.keys.(j) <- t.keys.(j) + 1
    done;
    split_segment t pos v;
    t.target_len <- t.target_len + 1

  let note_target_remove t ~pos =
    let q = pos + 1 in
    (* the removed element was the q-th (1-based) of the target *)
    let i = find_seg t q in
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) > q then t.keys.(j) <- t.keys.(j) - 1
    done;
    if i >= 0 then
      if i > 0 && t.keys.(i - 1) = q - 1 then begin
        (* contiguous runs of the source: segment i chains right after
           segment i-1, so the merge is pure bookkeeping *)
        t.tails.(i - 1) <- t.tails.(i);
        t.counts.(i - 1) <- t.counts.(i - 1) + t.counts.(i);
        shift_left t i
      end
      else t.keys.(i) <- q - 1;
    t.target_len <- t.target_len - 1

  let check_lists name t ~target ~source =
    if target != t.target || source != t.source then
      invalid_arg (name ^ ": not the lists the plan was built over")

  let note_source_insert t ~target ~node =
    check_lists "Psm.Plan.note_source_insert" t ~target ~source:t.source;
    let v = Al.value t.source node in
    let key = find_key target v in
    let i = find_seg t key in
    if i >= 0 then begin
      if t.compare v (Al.value t.source t.heads.(i)) < 0 then t.heads.(i) <- node;
      if t.compare v (Al.value t.source t.tails.(i)) >= 0 then t.tails.(i) <- node;
      t.counts.(i) <- t.counts.(i) + 1
    end
    else begin
      (* first index with a greater key *)
      let lo = ref 0 and hi = ref t.nseg in
      while !lo < !hi do
        let mid = (!lo + !hi) lsr 1 in
        if t.keys.(mid) < key then lo := mid + 1 else hi := mid
      done;
      shift_right t !lo;
      t.keys.(!lo) <- key;
      t.heads.(!lo) <- node;
      t.tails.(!lo) <- node;
      t.counts.(!lo) <- 1
    end;
    t.total <- t.total + 1

  let note_source_remove t ~node =
    (* Segments tile the source in order, so the covering segment
       falls out of the node's position and the count prefix sums. *)
    let pos = Al.position t.source node in
    let i = ref 0 and cum = ref 0 in
    while !i < t.nseg && !cum + t.counts.(!i) <= pos do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    if !i >= t.nseg then raise Not_found;
    let i = !i in
    if t.counts.(i) = 1 then shift_left t i
    else begin
      if Al.equal t.heads.(i) node then t.heads.(i) <- Al.next t.source node
      else if Al.equal t.tails.(i) node then t.tails.(i) <- Al.prev t.source node;
      t.counts.(i) <- t.counts.(i) - 1
    end;
    t.total <- t.total - 1

  (* The missed-update check: the plan must have been told of every
     target mutation since it was built. *)
  let check_fresh t ~target ~source =
    check_lists "Psm.Plan.execute" t ~target ~source;
    if not t.valid then raise Stale;
    if t.target_len <> Al.length target then raise Stale;
    if t.total <> Al.length source then raise Stale;
    for j = 0 to t.nseg - 1 do
      if t.keys.(j) < 0 || t.keys.(j) > t.target_len then raise Stale
    done

  (* Key 0 splices at the head; key k after the target's k-th node,
     read straight from its order buffer. *)
  let splice_one t target i =
    let k = t.keys.(i) in
    Al.Unsafe.link_after target
      ~anchor:(if k = 0 then Al.nil else Al.nth target (k - 1))
      ~first:t.heads.(i) ~last:t.tails.(i)

  let finish t =
    let max_segment = ref 0 in
    for j = 0 to t.nseg - 1 do
      if t.counts.(j) > !max_segment then max_segment := t.counts.(j)
    done;
    let stats =
      { threads = t.nseg; spliced = t.total; max_segment = !max_segment }
    in
    t.valid <- false;
    t.nseg <- 0;
    t.total <- 0;
    stats

  let commit t ~target ~source =
    Al.Unsafe.merge_commit ~target ~source ~keys:t.keys ~counts:t.counts
      ~nseg:t.nseg;
    finish t

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

  let is_consistent t ~target ~source =
    t.valid && target == t.target && source == t.source
    && t.total = Al.length source
    && t.target_len = Al.length target
    &&
    let fresh = build ~source ~target in
    fresh.nseg = t.nseg
    &&
    let ok = ref true in
    for j = 0 to t.nseg - 1 do
      if
        fresh.keys.(j) <> t.keys.(j)
        || fresh.counts.(j) <> t.counts.(j)
        || not (Al.equal fresh.heads.(j) t.heads.(j))
        || not (Al.equal fresh.tails.(j) t.tails.(j))
      then ok := false
    done;
    !ok
end
