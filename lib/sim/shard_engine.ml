(* Conservative synchronized execution over per-shard engines, in two
   schemes: the historical lock-step scheduler (kept as the
   epoch-semantics oracle) and the adaptive per-channel scheduler.

   Determinism argument, in full, because everything rests on it:

   - Every quantity that shapes execution — window boundaries, the
     per-destination safe bounds, the delivery plan — is computed from
     global workload state only: engine next-event times, the pending
     message set, and the static channel matrix.  None of it depends
     on how shards are grouped onto strands, so the schedule is a
     function of the workload alone.
   - Message delivery happens in [(at, src, seq)] order — [seq] is per
     logical source, so the order is a property of the workload, not
     of the schedule.  Delivery is a plain [Engine.schedule_at] onto
     the destination queue, and the event queue breaks timestamp ties
     FIFO by schedule order, so same-instant messages also fire in
     that deterministic order.
   - Within a round a shard drains only its own queue up to its own
     safe bound; the channel contract ([post] refuses delivery times
     under the destination's current safe horizon) guarantees no
     in-round cross-shard effect exists, so per-shard streams are
     independent of concurrency.
   - Outboxes and sequence counters are per source, and a source's
     callbacks all run on the single strand owning it, so no location
     is written by two domains; the executor's barrier publishes all
     writes before the coordinator merges outboxes.

   Hence every [Event_queue.schedule] call on every shard happens in
   the same order with the same arguments for any shard count — runs
   are bit-identical by construction.

   The adaptive scheme and why it is safe:

   Each outer window spans [start, start + window) where [start] is
   the global minimum next activity (fast-forwarding over idle virtual
   time).  Inside a window, shards advance in rounds.  Per round the
   coordinator computes, for every destination [d], the earliest time
   any not-yet-materialized message could still reach [d]:

     IN(s)  = min(next event time of s, earliest undelivered pending
              message to s)                 -- s's earliest execution
     EIT(d) = min over channels (s, d) of
              min(IN(s), EIT(s)) + delay(s, d)

   i.e. the shortest-path relaxation of the channel graph grounded at
   the IN values (delays are strictly positive, so the least fixpoint
   is the multi-source shortest distance and the relaxation
   converges).  Everything shard [s] executes this round happens at or
   after IN(s), and a message posted at time x on channel (s, d)
   arrives no earlier than x + delay(s, d), so by induction along send
   chains no message can ever arrive at [d] before EIT(d).  The round
   then delivers every pending message to [d] due before
   bound(d) = min(window end, EIT(d)) and lets [d] run up to that
   bound.  Rounds repeat until no shard has activity below its bound;
   at that point the argmin-activity argument shows all remaining
   activity is at or past the window end, so the window is complete
   and the next one fast-forwards to the new global minimum. *)

type scheduler = Lockstep | Adaptive

type message = {
  at : Time_ns.t;
  src : int;
  seq : int;
  dst : int;
  fire : Engine.t -> unit;
}

(* The total delivery order: time, then source, then per-source seq. *)
let compare_message a b =
  let c = Time_ns.compare a.at b.at in
  if c <> 0 then c
  else
    let c = Int.compare a.src b.src in
    if c <> 0 then c else Int.compare a.seq b.seq

let inf_ns = max_int

type t = {
  engines : Engine.t array;
  lookahead : Time_ns.span;
  scheduler : scheduler;
  window_ns : int;  (* adaptive outer-window span *)
  step_ns : int;  (* lock-step window span: min(lookahead, channel min) *)
  delay : int array array;  (* delay.(src).(dst) in ns; [inf_ns] = no channel *)
  in_edges : (int * int) array array;  (* per dst: (src, delay ns) *)
  outboxes : message list ref array;  (* per source, newest first *)
  seqs : int array;  (* per-source message counters *)
  mutable pending : message list;  (* merged, sorted by compare_message *)
  horizons : int array;  (* per-dst exclusive safe bound, ns; post checks it *)
  (* per-round scratch, all preallocated: rounds must not allocate *)
  inq : int array;
  eit : int array;
  pend_min : int array;
  bounds : int array;
  strand_of : int array;
  mutable active_strand : bool array;
  mutable prev_wend : int;  (* previous window's exclusive end, ns *)
  mutable epochs : int;
  mutable rounds : int;
  mutable fast_forwards : int;
  mutable delivered : int;
  mutable running : bool;
}

let create ?(seed = 42) ?(scheduler = Adaptive) ?channels ~sources
    ~lookahead () =
  if sources < 1 then invalid_arg "Shard_engine.create: sources < 1";
  let la_ns = Time_ns.span_to_ns lookahead in
  if la_ns <= 0 then
    invalid_arg "Shard_engine.create: lookahead must be positive";
  let delay = Array.make_matrix sources sources inf_ns in
  (match channels with
  | None ->
    (* the historical uniform matrix: every pair, lookahead delay *)
    for s = 0 to sources - 1 do
      for d = 0 to sources - 1 do
        delay.(s).(d) <- la_ns
      done
    done
  | Some chans ->
    List.iter
      (fun (s, d, sp) ->
        if s < 0 || s >= sources || d < 0 || d >= sources then
          invalid_arg "Shard_engine.create: channel endpoint out of range";
        let ns = Time_ns.span_to_ns sp in
        if ns <= 0 then
          invalid_arg "Shard_engine.create: channel delay must be positive";
        if ns < delay.(s).(d) then delay.(s).(d) <- ns)
      chans);
  let in_edges =
    Array.init sources (fun d ->
        let edges = ref [] in
        for s = sources - 1 downto 0 do
          if delay.(s).(d) < inf_ns then edges := (s, delay.(s).(d)) :: !edges
        done;
        Array.of_list !edges)
  in
  let min_delay =
    Array.fold_left
      (fun acc row -> Array.fold_left min acc row)
      inf_ns delay
  in
  let root = Rng.create ~seed in
  let engine_seed i =
    (* an independent derived stream per shard, keyed by (seed, i):
       the same rule the parallel sweep runner uses, so shard streams
       never depend on each other or on the shard count *)
    Int64.to_int (Rng.bits64 (Rng.derive root ~index:i)) land max_int
  in
  {
    engines = Array.init sources (fun i -> Engine.create ~seed:(engine_seed i) ());
    lookahead;
    scheduler;
    window_ns = 16 * la_ns;
    step_ns = min la_ns min_delay;
    delay;
    in_edges;
    outboxes = Array.init sources (fun _ -> ref []);
    seqs = Array.make sources 0;
    pending = [];
    horizons = Array.make sources 0;
    inq = Array.make sources inf_ns;
    eit = Array.make sources inf_ns;
    pend_min = Array.make sources inf_ns;
    bounds = Array.make sources 0;
    strand_of = Array.make sources 0;
    active_strand = [||];
    prev_wend = 0;
    epochs = 0;
    rounds = 0;
    fast_forwards = 0;
    delivered = 0;
    running = false;
  }

let sources t = Array.length t.engines

let lookahead t = t.lookahead

let scheduler t = t.scheduler

let engine t i =
  if i < 0 || i >= sources t then
    invalid_arg "Shard_engine.engine: index out of range";
  t.engines.(i)

let epochs t = t.epochs

let rounds t = t.rounds

let fast_forwards t = t.fast_forwards

let messages_delivered t = t.delivered

let events_drained t = Array.map Engine.events_fired t.engines

let post t ~src ~dst ~at fire =
  let n = sources t in
  if src < 0 || src >= n then invalid_arg "Shard_engine.post: src out of range";
  if dst < 0 || dst >= n then invalid_arg "Shard_engine.post: dst out of range";
  if t.delay.(src).(dst) = inf_ns then
    invalid_arg
      (Printf.sprintf
         "Shard_engine.post: no declared channel %d -> %d; every cross-shard \
          pair needs a minimum-delay entry in the channel matrix"
         src dst);
  if Time_ns.to_ns at < t.horizons.(dst) then
    invalid_arg
      (Printf.sprintf
         "Shard_engine.post: delivery at %dns is inside the current window \
          (ends %dns); cross-shard sends need >= lookahead of slack"
         (Time_ns.to_ns at) t.horizons.(dst));
  let seq = t.seqs.(src) in
  t.seqs.(src) <- seq + 1;
  let box = t.outboxes.(src) in
  box := { at; src; seq; dst; fire } :: !box

(* Merge every outbox into the sorted pending set.  Runs on the
   coordinating domain, strictly after the executor's barrier. *)
let collect_outboxes t =
  let fresh = ref [] in
  Array.iter
    (fun box ->
      (match !box with
      | [] -> ()
      | msgs -> fresh := List.rev_append msgs !fresh);
      box := [])
    t.outboxes;
  match !fresh with
  | [] -> ()
  | msgs -> t.pending <- List.merge compare_message t.pending (List.sort compare_message msgs)

(* Earliest next activity across all shards and pending messages. *)
let next_activity t =
  let best = ref (match t.pending with [] -> None | m :: _ -> Some m.at) in
  Array.iter
    (fun e ->
      match Engine.next_time e with
      | None -> ()
      | Some at -> (
        match !best with
        | Some b when Time_ns.(b <= at) -> ()
        | Some _ | None -> best := Some at))
    t.engines;
  !best

(* Which execution strand owns logical shard [i] when grouped into
   [shards] strands: shard 0 (the router, in cluster runs) keeps
   strand 0 to itself, the rest deal round-robin over the remaining
   strands.  Purely an execution-placement choice — results never
   depend on it. *)
let task_of_source ~shards ~sources i =
  if shards >= sources then i
  else if shards = 1 then 0
  else if i = 0 then 0
  else 1 + ((i - 1) mod (shards - 1))

let run ?until ?(shards = 1) ?executor t =
  if shards < 1 then invalid_arg "Shard_engine.run: shards < 1";
  if t.running then invalid_arg "Shard_engine.run: re-entrant call";
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) @@ fun () ->
  let n = sources t in
  let nstrands = min shards n in
  let exec =
    match executor with
    | Some e -> e
    | None -> fun f -> for w = 0 to nstrands - 1 do f w done
  in
  for i = 0 to n - 1 do
    t.strand_of.(i) <- task_of_source ~shards ~sources:n i
  done;
  if Array.length t.active_strand < nstrands then
    t.active_strand <- Array.make nstrands false;
  let finish_at limit =
    (* no activity at or before [limit]: advance every clock to it,
       exactly as Engine.run does for a drained queue *)
    Array.iter (fun e -> Engine.run ~until:limit e) t.engines
  in
  let clip open_end =
    match until with
    | Some l ->
      (* events at exactly [l] must still fire: the window's exclusive
         end may reach l + 1ns but no further *)
      let closed = Time_ns.to_ns l + 1 in
      if closed < open_end then closed else open_end
    | None -> open_end
  in
  (* The strand job: drain every owned source whose next event lies
     inside its per-destination bound.  Reads only the bounds array
     (published by the executor's release) and strand-owned state. *)
  let job w =
    for i = 0 to n - 1 do
      if t.strand_of.(i) = w then begin
        let b = t.bounds.(i) in
        match Engine.next_time t.engines.(i) with
        | Some at when Time_ns.to_ns at < b ->
          Engine.run ~until:(Time_ns.of_ns (b - 1)) t.engines.(i)
        | Some _ | None -> ()
      end
    done
  in
  (* Run every source with in-bound activity; inline without a barrier
     when a single strand owns all of them.  Returns whether anything
     ran — the active set is a function of global state only. *)
  let run_strands () =
    Array.fill t.active_strand 0 nstrands false;
    let count = ref 0 and last = ref 0 in
    for i = 0 to n - 1 do
      match Engine.next_time t.engines.(i) with
      | Some at when Time_ns.to_ns at < t.bounds.(i) ->
        let w = t.strand_of.(i) in
        if not t.active_strand.(w) then begin
          t.active_strand.(w) <- true;
          incr count;
          last := w
        end
      | Some _ | None -> ()
    done;
    if !count = 0 then false
    else begin
      if !count = 1 then job !last else exec job;
      true
    end
  in
  (* Deliver every pending message due before its destination's bound,
     in (at, src, seq) order; ties inside a destination queue then
     fire FIFO in this same order.  Keeps the rest, still sorted. *)
  let deliver_bounded wend =
    let rec walk kept = function
      | m :: rest when Time_ns.to_ns m.at < wend ->
        if Time_ns.to_ns m.at < t.bounds.(m.dst) then begin
          ignore
            (Engine.schedule_at t.engines.(m.dst) ~at:m.at (fun e -> m.fire e));
          t.delivered <- t.delivered + 1;
          walk kept rest
        end
        else walk (m :: kept) rest
      | rest -> t.pending <- List.rev_append kept rest
    in
    walk [] t.pending
  in
  (* ---------------- lock-step scheduler (the oracle) -------------- *)
  let rec lockstep_loop () =
    collect_outboxes t;
    match next_activity t with
    | None -> ( match until with Some l -> finish_at l | None -> ())
    | Some start -> (
      match until with
      | Some l when Time_ns.(l < start) -> finish_at l
      | _ ->
        let start_ns = Time_ns.to_ns start in
        if t.epochs > 0 && start_ns > t.prev_wend then
          t.fast_forwards <- t.fast_forwards + 1;
        let wend = clip (start_ns + t.step_ns) in
        t.prev_wend <- wend;
        Array.fill t.horizons 0 n wend;
        Array.fill t.bounds 0 n wend;
        deliver_bounded wend;
        ignore (run_strands ());
        t.epochs <- t.epochs + 1;
        t.rounds <- t.rounds + 1;
        lockstep_loop ())
  in
  (* ---------------- adaptive per-channel scheduler ---------------- *)
  (* One relaxation of the channel graph: ground every source at its
     earliest possible execution time IN, then shortest-path the
     strictly positive channel delays to the per-destination earliest
     input time EIT (see the header comment for the safety proof). *)
  let relax_bounds wend =
    Array.fill t.pend_min 0 n inf_ns;
    let rec scan = function
      | m :: rest when Time_ns.to_ns m.at < wend ->
        let a = Time_ns.to_ns m.at in
        if a < t.pend_min.(m.dst) then t.pend_min.(m.dst) <- a;
        scan rest
      | _ -> ()
    in
    scan t.pending;
    for i = 0 to n - 1 do
      let nt =
        match Engine.next_time t.engines.(i) with
        | Some at -> Time_ns.to_ns at
        | None -> inf_ns
      in
      t.inq.(i) <- min nt t.pend_min.(i);
      t.eit.(i) <- inf_ns
    done;
    let changed = ref true in
    while !changed do
      changed := false;
      for d = 0 to n - 1 do
        let edges = t.in_edges.(d) in
        for k = 0 to Array.length edges - 1 do
          let s, dl = edges.(k) in
          let v = min t.inq.(s) t.eit.(s) in
          if v < inf_ns - dl then begin
            let cand = v + dl in
            if cand < t.eit.(d) then begin
              t.eit.(d) <- cand;
              changed := true
            end
          end
        done
      done
    done;
    for d = 0 to n - 1 do
      let b = min wend t.eit.(d) in
      t.bounds.(d) <- b;
      t.horizons.(d) <- b
    done
  in
  let rec adaptive_loop () =
    collect_outboxes t;
    match next_activity t with
    | None -> ( match until with Some l -> finish_at l | None -> ())
    | Some start -> (
      match until with
      | Some l when Time_ns.(l < start) -> finish_at l
      | _ ->
        let start_ns = Time_ns.to_ns start in
        if t.epochs > 0 && start_ns > t.prev_wend then
          t.fast_forwards <- t.fast_forwards + 1;
        let wend = clip (start_ns + t.window_ns) in
        t.prev_wend <- wend;
        let rec round () =
          relax_bounds wend;
          deliver_bounded wend;
          if run_strands () then begin
            collect_outboxes t;
            t.rounds <- t.rounds + 1;
            round ()
          end
        in
        round ();
        t.epochs <- t.epochs + 1;
        adaptive_loop ())
  in
  match t.scheduler with
  | Lockstep -> lockstep_loop ()
  | Adaptive -> adaptive_loop ()
