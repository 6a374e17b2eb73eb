(* A persistent domain team for barrier-stepped execution — the
   repository's one parallel runtime.

   The sharded engine runs the *same* strand-indexed job thousands of
   times — one per synchronization round — so the team keeps
   [width - 1] domains parked on a round counter and releases them
   with a single atomic increment (a sense-reversing barrier with the
   round number as the sense).  Strand [w] normally runs on the same
   domain, so per-strand working sets (engines, outboxes, arena
   arrays) stay cache-warm across rounds; a worker strand that has not
   started by the time the caller is done with its own runs on the
   caller instead (see [claim]), so no round waits for a parked domain
   to wake.  The experiment sweeps ride the same rounds: [map] is one
   round whose strands take item indices from an atomic counter.

   Publication: the caller writes [job] and resets [remaining] before
   the release increment of [round]; a worker's acquiring read of
   [round] (and its claim of the strand) orders those writes before
   its job execution, and the worker's final decrement of [remaining]
   orders the job's writes before the caller observes completion.  Workers spin a short
   budget before parking on a condvar (and the caller likewise when
   joining), so idle teams block instead of burning timeslices.

   One caller at a time owns the round machinery: [busy] is taken by
   compare-and-set before a round and released after it.  A [run]
   that finds it taken — from inside one of the team's own strands,
   or from another domain — runs every strand inline on its caller
   and touches no shared field, so nesting and concurrent callers
   neither deadlock nor corrupt a round.

   A multi-core host gets one worker per strand beyond strand 0, even
   when the strands outnumber the cores: a worker the OS has not run
   yet costs a round nothing, since the caller claims its strand, and
   with fewer workers than strands a 2-vCPU guest kept the caller and
   its one worker on the same vCPU for seconds after an idle spell
   (doc/ARCHITECTURE.md §9).  A single-core host gets *zero* workers —
   every strand runs inline on the caller, because forcing a parked
   domain to participate in a barrier on a timeshared core costs a
   context switch per worker per round (measured ~48us/round for
   width 4 against ~0 inline) and can never overlap any work.  Results
   don't depend on the split: the job contract is indexed by strand,
   not by domain. *)

type t = {
  width : int;
  domains : int;  (* spawned workers: [width - 1], or 0 on one core *)
  mutable workers : unit Domain.t array;
  mutable job : int -> unit;  (* current round's work, strand-indexed *)
  round : int Atomic.t;  (* release increment; doubles as the barrier sense *)
  remaining : int Atomic.t;  (* worker strands still unfinished this round *)
  claims : int Atomic.t array;  (* per strand: the last round it was claimed in *)
  busy : bool Atomic.t;  (* a caller owns the round machinery *)
  closed : bool Atomic.t;
  go_lock : Mutex.t;
  go_cond : Condition.t;  (* workers park here past their spin budget *)
  done_lock : Mutex.t;
  done_cond : Condition.t;  (* the caller parks here while joining *)
  errors : (exn * Printexc.raw_backtrace) option array;  (* per strand *)
  mutable wait_ns : int;  (* caller time spent joining rounds *)
}

let spin_budget = 64

let default_width () = max 1 (Domain.recommended_domain_count () - 1)

(* Whoever first moves strand [w]'s stamp up to [round] runs it: its
   worker, or the caller once its own strands are done.  A worker that
   read an older round loses, since that round cannot have ended with
   the strand unclaimed. *)
let claim t w round =
  let last = Atomic.get t.claims.(w) in
  last < round && Atomic.compare_and_set t.claims.(w) last round

let run_strand t f w =
  try f w with e -> t.errors.(w) <- Some (e, Printexc.get_raw_backtrace ())

let worker_loop t w () =
  let rec await seen spin =
    if Atomic.get t.round <> seen || Atomic.get t.closed then ()
    else if spin > 0 then begin
      Domain.cpu_relax ();
      await seen (spin - 1)
    end
    else begin
      Mutex.lock t.go_lock;
      while Atomic.get t.round = seen && not (Atomic.get t.closed) do
        Condition.wait t.go_cond t.go_lock
      done;
      Mutex.unlock t.go_lock
    end
  in
  let rec loop seen =
    await seen spin_budget;
    if not (Atomic.get t.closed) then begin
      let seen = Atomic.get t.round in
      (* the caller may already have run this strand itself *)
      if claim t w seen then begin
        run_strand t t.job w;
        if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
          (* last strand out signals the joining caller *)
          Mutex.lock t.done_lock;
          Condition.broadcast t.done_cond;
          Mutex.unlock t.done_lock
        end
      end;
      loop seen
    end
  in
  loop 0

let create ~width () =
  if width < 1 then invalid_arg "Team.create: width < 1";
  let domains =
    if Domain.recommended_domain_count () < 2 then 0 else width - 1
  in
  let t =
    {
      width;
      domains;
      workers = [||];
      job = ignore;
      round = Atomic.make 0;
      remaining = Atomic.make 0;
      claims = Array.init (domains + 1) (fun _ -> Atomic.make 0);
      busy = Atomic.make false;
      closed = Atomic.make false;
      go_lock = Mutex.create ();
      go_cond = Condition.create ();
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      errors = Array.make width None;
      wait_ns = 0;
    }
  in
  t.workers <- Array.init domains (fun w -> Domain.spawn (worker_loop t (w + 1)));
  t

let width t = t.width

let domains t = t.domains

let rounds t = Atomic.get t.round

let barrier_wait_ns t = t.wait_ns

(* Every strand on the caller, ascending; every strand runs even if an
   earlier one failed, and the lowest one's failure is returned. *)
let run_inline width f =
  let first = ref None in
  for w = 0 to width - 1 do
    try f w
    with e ->
      if Option.is_none !first then
        first := Some (e, Printexc.get_raw_backtrace ())
  done;
  !first

let reraise = Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* One round on the workers; the caller owns [busy].  After its own
   strands the caller claims every worker strand not yet started and
   runs it too, so a round never waits for a worker that has not woken
   up — only for strands already running elsewhere. *)
let barrier_round t f =
  t.job <- f;
  Atomic.set t.remaining t.domains;
  let round = Atomic.fetch_and_add t.round 1 + 1 in
  (* a worker past its spin budget rechecks [round] under [go_lock]
     before waiting, so broadcasting under the same lock after the
     increment can never miss a sleeper *)
  Mutex.lock t.go_lock;
  Condition.broadcast t.go_cond;
  Mutex.unlock t.go_lock;
  run_strand t f 0;
  for w = 1 to t.domains do
    if claim t w round then begin
      run_strand t f w;
      Atomic.decr t.remaining
    end
  done;
  (* join: spin briefly for the stragglers, then park *)
  let t0 = now_ns () in
  let rec join spin =
    if Atomic.get t.remaining > 0 then
      if spin > 0 then begin
        Domain.cpu_relax ();
        join (spin - 1)
      end
      else begin
        Mutex.lock t.done_lock;
        if Atomic.get t.remaining > 0 then
          Condition.wait t.done_cond t.done_lock;
        Mutex.unlock t.done_lock;
        join spin_budget
      end
  in
  join spin_budget;
  t.wait_ns <- t.wait_ns + (now_ns () - t0)

let run t f =
  if Atomic.get t.closed then invalid_arg "Team.run: team is shut down";
  if t.width = 1 then f 0
  else if not (Atomic.compare_and_set t.busy false true) then
    (* nested in one of this team's rounds, or another caller's *)
    reraise (run_inline t.width f)
  else begin
    let failure =
      if t.domains = 0 then begin
        (* no usable parallelism: zero coordination cost *)
        Atomic.incr t.round;
        run_inline t.width f
      end
      else begin
        Array.fill t.errors 0 t.width None;
        barrier_round t f;
        (* the lowest-numbered strand's failure wins *)
        Array.find_map Fun.id t.errors
      end
    in
    Atomic.set t.busy false;
    reraise failure
  end

let map t f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  run t (fun _ ->
      let rec take () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <-
            Some
              (match f items.(i) with
              | y -> Ok y
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          take ()
        end
      in
      take ());
  (* every item ran; the lowest-indexed failure wins *)
  List.init n (fun i ->
      match results.(i) with
      | Some (Ok y) -> y
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)

let shutdown t =
  if not (Atomic.exchange t.closed true) then begin
    Mutex.lock t.go_lock;
    Condition.broadcast t.go_cond;
    Mutex.unlock t.go_lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_team ~width f =
  let t = create ~width () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One cached team per distinct width: the sharded engine and the
   sweeps ask for the same widths every run, and domains are too
   expensive to spawn per run. *)
let shared_teams : (int, t) Hashtbl.t = Hashtbl.create 4

let shared_lock = Mutex.create ()

let shared ~width =
  if width < 1 then invalid_arg "Team.shared: width < 1";
  Mutex.lock shared_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared_lock) @@ fun () ->
  match Hashtbl.find_opt shared_teams width with
  | Some t when not (Atomic.get t.closed) -> t
  | Some _ | None ->
    let t = create ~width () in
    Hashtbl.replace shared_teams width t;
    t
