(* Gate on the recorded bench artifacts (horse-bench/1 or /2 JSON —
   /2 adds per-entry metadata such as epoch counts; all /1 fields are
   unchanged, so both parse identically here).

   Usage:  bench_check.exe [FILE ...]   (default: BENCH_summary.json)

   Floors are chosen against the cores of the machine that *produced*
   the artifact: horse-bench/1 records it as a top-level "host_cores"
   field (older artifacts without one are judged against the checking
   host).  On a single-core producer a genuine >1x parallel speedup is
   physically impossible — the domains timeshare one core and only add
   context-switch and stop-the-world cost — so those floors drop to an
   overhead bound instead.

   Rules:
   - every experiment entry recorded at jobs >= 4 must show
     speedup >= 1.0 — parallel sweeps must win, never regress (the
     seed artifact recorded 0.48x; this check keeps that from coming
     back).  Single-core floor: 0.75 — dispatch plus multi-domain GC
     coordination may cost at most 25%, which still catches any
     per-task-dispatch collapse.
   - every [scale:*] entry (sharded cluster runs from `main.exe
     scale`) recorded at shards >= 4 must show speedup >= 1.5 — the
     sharded engine must beat the sequential engine by half again on
     real cores, or the epoch synchronisation is eating the
     parallelism.  Single-core floor: 0.5 — epochs plus cross-shard
     mailboxes may cost at most 2x when there is nothing to win.
   - every [router:*] entry (partitioned-control-plane runs from
     `main.exe router`) recorded at routers >= 4 must show
     speedup >= 1.5 — splitting the router plane must beat the
     single-router serial bottleneck by half again on real cores.
     Single-core floor: 0.5, like [scale:*].
   - every [policy:*] entry (policy shoot-out from `main.exe policy`,
     recorded as push tail latency over pull tail latency at the
     highest blackout rate) must show >= 1.0 — late binding must
     never lose the tail to optimistic push when servers are
     black-holing triggers.  The tails are virtual-time latencies,
     deterministic per seed, so the floor does NOT relax on a
     single-core producer.
   - every [chain:*] entry (unfused tail over fused tail at chain
     length >= 3, from `main.exe chain`) must show >= 1.0 — fusion
     must not lose.  Virtual-time tails too: no single-core floor.
   - every [shard:epochs:*] entry (lock-step vs adaptive scheduler
     runs from `main.exe shard` / `main.exe scale`) must show
     epochs_lockstep / epochs_adaptive >= 5.0 — the adaptive
     per-channel windows must cut outer synchronisation windows at
     least five-fold on the bursty storm.  Epoch counts are scheduler
     structure, deterministic and core-count independent, so this
     floor does NOT relax on a single-core producer.
   - [micro:*] entries (ratios the policy and chain sections record
     without a gate) are informational.

   `make bench-check` passes the records that carry these gates:
   BENCH_{summary,scale,shard,policy,chain,router}.json.  The hot-path
   allocation and flatness budgets are not records: micro.exe checks
   them itself on every run.

   Exits non-zero listing every violated entry. *)

module Json = Horse_vmm.Json

let checker_cores = Domain.recommended_domain_count ()

let failures = ref 0

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ | None -> None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let check_entry ~file ~producer_cores entry =
  let multi_core = producer_cores >= 2 in
  let sweep_floor = if multi_core then 1.0 else 0.75 in
  let scale_floor = if multi_core then 1.5 else 0.5 in
  let name =
    match Option.bind (Json.member "name" entry) Json.to_str with
    | Some n -> n
    | None -> "?"
  in
  let jobs =
    Option.value ~default:1
      (Option.bind (Json.member "jobs" entry) Json.to_int)
  in
  let speedup = number (Json.member "speedup" entry) in
  let verdict required =
    match speedup with
    | None ->
      incr failures;
      Printf.printf "FAIL %s: %s has no speedup field\n" file name
    | Some s when s < required ->
      incr failures;
      Printf.printf "FAIL %s: %s speedup %.3f < %.2f (jobs %d)\n" file name s
        required jobs
    | Some s ->
      Printf.printf "ok   %s: %s speedup %.3f >= %.2f\n" file name s required
  in
  let not_gated ?floor () =
    Printf.printf "info %s: %s speedup %s (jobs %d, not gated%s)\n" file name
      (match speedup with Some s -> Printf.sprintf "%.3f" s | None -> "n/a")
      jobs
      (match floor with
      | Some (f, why) -> Printf.sprintf "; would need >= %.2f %s" f why
      | None -> "")
  in
  (* the epoch-reduction gate reads the /2 metadata, not the speedup
     field: lock-step windows over adaptive windows on the same
     workload, a deterministic count with no core-count dependence *)
  let epoch_verdict required =
    let lockstep = number (Json.member "epochs_lockstep" entry) in
    let adaptive = number (Json.member "epochs_adaptive" entry) in
    match (lockstep, adaptive) with
    | Some l, Some a when a > 0.0 ->
      let ratio = l /. a in
      if ratio < required then begin
        incr failures;
        Printf.printf
          "FAIL %s: %s epoch reduction %.2fx < %.2fx (lock-step %.0f -> \
           adaptive %.0f)\n"
          file name ratio required l a
      end
      else
        Printf.printf
          "ok   %s: %s epoch reduction %.2fx >= %.2fx (lock-step %.0f -> \
           adaptive %.0f)\n"
          file name ratio required l a
    | _ ->
      incr failures;
      Printf.printf
        "FAIL %s: %s lacks epochs_lockstep/epochs_adaptive metadata\n" file
        name
  in
  if starts_with ~prefix:"shard:epochs:" name then epoch_verdict 5.0
  else if starts_with ~prefix:"scale:" name then
    (* the "jobs" of a scale entry records the --shards it ran at *)
    if jobs >= 4 then verdict scale_floor
    else not_gated ~floor:(scale_floor, "at shards >= 4") ()
  else if starts_with ~prefix:"router:" name then
    (* the "jobs" of a router entry records the router count; the
       partitioned control plane must beat the single-router plane by
       half again at >= 4 routers on real cores (R=1's router strand
       serializes every trigger; R strands split it).  Single-core
       floor: 0.5 — extra strands and spill-ring channels may cost at
       most 2x when there is no parallelism to win. *)
    if jobs >= 4 then verdict scale_floor
    else not_gated ~floor:(scale_floor, "at routers >= 4") ()
  else if starts_with ~prefix:"policy:" name then
    (* push tail over pull tail under blackouts: pull must not lose *)
    verdict 1.0
  else if starts_with ~prefix:"chain:" name then
    (* unfused tail over fused tail at chain length >= 3: fusion must
       not lose (the hops it removes dwarf estimator noise) *)
    verdict 1.0
  else if starts_with ~prefix:"micro:" name then not_gated ()
  else if jobs >= 4 then verdict sweep_floor
  else not_gated ()

let check_file file =
  if not (Sys.file_exists file) then begin
    incr failures;
    Printf.printf "FAIL %s: file not found (run `make bench-json` first)\n" file
  end
  else begin
    let contents =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse contents with
    | exception Json.Parse_error { position; message } ->
      incr failures;
      Printf.printf "FAIL %s: JSON parse error at byte %d: %s\n" file position
        message
    | json -> (
      let producer_cores =
        match Option.bind (Json.member "host_cores" json) Json.to_int with
        | Some n -> n
        | None -> checker_cores
      in
      if producer_cores < 2 then
        Printf.printf
          "note: %s was produced on a single-core host (host_cores = %d); \
           parallel speedup > 1.0 was not physically reachable there, gating \
           sweeps at >= 0.75 and scale at >= 0.50 (>= 1.00 / >= 1.50 are \
           enforced for multi-core artifacts)\n"
          file producer_cores;
      match Json.member "experiments" json with
      | Some (Json.List entries) ->
        List.iter (check_entry ~file ~producer_cores) entries
      | Some _ | None ->
        incr failures;
        Printf.printf "FAIL %s: no \"experiments\" array\n" file)
  end

let () =
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "BENCH_summary.json" ]
    | files -> files
  in
  List.iter check_file files;
  if !failures > 0 then begin
    Printf.printf "bench-check: %d failure(s)\n" !failures;
    exit 1
  end
  else Printf.printf "bench-check: all gates passed\n"
