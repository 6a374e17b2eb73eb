(* Tests for Horse_parallel: work-stealing deque semantics, pool
   lifecycle / result ordering / exception propagation, deterministic
   seed splitting, and the headline guarantee that parallel
   experiment sweeps are bit-identical to sequential ones. *)

module Deque = Horse_parallel.Deque
module Pool = Horse_parallel.Pool
module Rng = Horse_sim.Rng
module E = Horse.Experiments

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)
(* ------------------------------------------------------------------ *)

let test_deque_owner_lifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Deque.length d);
  Alcotest.(check (list (option int)))
    "pop newest first"
    [ Some 3; Some 2; Some 1; None ]
    (List.init 4 (fun _ -> Deque.pop d))

let test_deque_thief_fifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (list (option int)))
    "steal oldest first"
    [ Some 1; Some 2; Some 3; None ]
    (List.init 4 (fun _ -> Deque.steal d))

let test_deque_grows_both_ends () =
  let d = Deque.create () in
  (* far beyond the initial capacity, with interleaved consumption *)
  for i = 0 to 99 do
    Deque.push d i
  done;
  let stolen = List.init 50 (fun _ -> Option.get (Deque.steal d)) in
  Alcotest.(check (list int)) "stolen prefix in order" (List.init 50 Fun.id)
    stolen;
  for i = 100 to 149 do
    Deque.push d i
  done;
  Alcotest.(check int) "length tracks" 100 (Deque.length d);
  let popped = List.init 100 (fun _ -> Option.get (Deque.pop d)) in
  Alcotest.(check (list int))
    "popped suffix newest-first"
    (List.init 50 (fun i -> 149 - i) @ List.init 50 (fun i -> 99 - i))
    popped;
  Alcotest.(check (option int)) "empty" None (Deque.pop d)

(* ------------------------------------------------------------------ *)
(* Pool lifecycle & ordering                                           *)
(* ------------------------------------------------------------------ *)

let test_pool_lifecycle () =
  let pool = Pool.create ~jobs:4 () in
  Alcotest.(check int) "jobs" 4 (Pool.jobs pool);
  Alcotest.(check (list int)) "runs" [ 1; 2; 3 ]
    (Pool.run_list pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.run_list: pool is shut down") (fun () ->
      ignore (Pool.run_list pool [ (fun () -> 0) ]))

let test_pool_rejects_zero_jobs () =
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Pool.create: jobs < 1")
    (fun () -> ignore (Pool.create ~jobs:0 ()))

(* deliberately unbalanced tasks: completion order differs wildly
   from submission order, results must not *)
let skewed_square i x =
  let spin = Atomic.make 0 in
  for _ = 1 to (i mod 13) * 10_000 do
    Atomic.incr spin
  done;
  ignore (Atomic.get spin);
  x * x

let test_pool_map_preserves_order () =
  let xs = List.init 200 Fun.id in
  let expected = List.mapi skewed_square xs in
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int))
        "task order, not completion order" expected
        (Pool.map pool ~f:skewed_square xs))

let test_pool_jobs1_is_inline () =
  (* jobs = 1 must not spawn: tasks run on the calling domain *)
  let self = Domain.self () in
  Pool.with_pool ~jobs:1 (fun pool ->
      let domains =
        Pool.run_list pool (List.init 5 (fun _ () -> Domain.self ()))
      in
      List.iter
        (fun d -> Alcotest.(check bool) "same domain" true (d = self))
        domains)

let test_pool_nested_submission () =
  (* a task may itself fan out on the same pool (the submitter helps,
     so this must not deadlock even with more tasks than strands) *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let totals =
        Pool.map pool
          ~f:(fun i _ ->
            List.fold_left ( + ) 0
              (Pool.map pool ~f:(fun j _ -> (10 * i) + j) (List.init 8 Fun.id)))
          (List.init 4 Fun.id)
      in
      Alcotest.(check (list int)) "nested results"
        (List.init 4 (fun i -> (80 * i) + 28))
        totals)

(* ------------------------------------------------------------------ *)
(* Exception propagation                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_exception_propagation () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let completed = Array.make 16 false in
      let task i () =
        if i = 11 then failwith "task-11"
        else if i = 5 then failwith "task-5"
        else completed.(i) <- true
      in
      (* the lowest-indexed failure wins, whatever the schedule *)
      Alcotest.check_raises "first failure by index" (Failure "task-5")
        (fun () -> ignore (Pool.run_list pool (List.init 16 task)));
      (* the batch settled: every non-failing task still ran *)
      Array.iteri
        (fun i done_ ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d settled" i)
            (i <> 5 && i <> 11) done_)
        completed;
      (* and the pool survives for the next batch *)
      Alcotest.(check (list int)) "pool still usable" [ 7 ]
        (Pool.run_list pool [ (fun () -> 7) ]))

let test_pool_exception_inline () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.check_raises "inline too" (Failure "boom") (fun () ->
          ignore (Pool.run_list pool [ (fun () -> failwith "boom") ])))

(* ------------------------------------------------------------------ *)
(* Deterministic seed splitting                                        *)
(* ------------------------------------------------------------------ *)

let draw ~rng _i _x = Rng.int rng 1_000_000

let test_map_seeded_jobs_invariant () =
  let xs = List.init 64 Fun.id in
  let seq = Pool.with_pool ~jobs:1 (fun p -> Pool.map_seeded p ~seed:42 ~f:draw xs) in
  let par = Pool.with_pool ~jobs:4 (fun p -> Pool.map_seeded p ~seed:42 ~f:draw xs) in
  Alcotest.(check (list int)) "streams independent of jobs" seq par;
  let par' = Pool.with_pool ~jobs:4 (fun p -> Pool.map_seeded p ~seed:42 ~f:draw xs) in
  Alcotest.(check (list int)) "and reproducible" par par'

let test_map_seeded_streams_differ () =
  let xs = List.init 32 Fun.id in
  let draws =
    Pool.with_pool ~jobs:1 (fun p -> Pool.map_seeded p ~seed:7 ~f:draw xs)
  in
  let distinct = List.sort_uniq Int.compare draws in
  (* 32 six-digit draws colliding would be a broken derivation *)
  Alcotest.(check int) "per-index streams differ" (List.length draws)
    (List.length distinct)

let test_shared_pool () =
  let a = Pool.shared () and b = Pool.shared () in
  Alcotest.(check bool) "one process-wide pool" true (a == b);
  Alcotest.(check (list int)) "usable" [ 0; 1; 4; 9 ]
    (Pool.map a ~f:(fun i _ -> i * i) (List.init 4 Fun.id))

(* ------------------------------------------------------------------ *)
(* Chunked submission                                                  *)
(* ------------------------------------------------------------------ *)

let test_chunk_results_invariant () =
  (* chunking changes scheduling granularity, never results or order;
     use skewed tasks so chunks genuinely finish out of order *)
  let xs = List.init 100 Fun.id in
  let expected = List.mapi skewed_square xs in
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun chunk ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk %d" chunk)
            expected
            (Pool.map ~chunk pool ~f:skewed_square xs))
        [ 1; 7; 100; 1000 ])

let test_chunk_rejects_nonpositive () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "chunk < 1"
        (Invalid_argument "Pool.run_list: chunk < 1") (fun () ->
          ignore (Pool.run_list ~chunk:0 pool [ (fun () -> 1) ])))

let test_chunk_exception_lowest_index () =
  (* the lowest-indexed failure must win even when the failures land
     in different chunks on different workers *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let task i () = if i = 9 || i = 37 then failwith (string_of_int i) in
      List.iter
        (fun chunk ->
          Alcotest.check_raises
            (Printf.sprintf "chunk %d: first failure by index" chunk)
            (Failure "9")
            (fun () -> ignore (Pool.run_list ~chunk pool (List.init 64 task))))
        [ 1; 7; 64 ])

let test_map_seeded_chunk_invariant () =
  let xs = List.init 64 Fun.id in
  let reference =
    Pool.with_pool ~jobs:1 (fun p -> Pool.map_seeded p ~seed:42 ~f:draw xs)
  in
  Pool.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun chunk ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk %d == sequential" chunk)
            reference
            (Pool.map_seeded ~chunk p ~seed:42 ~f:draw xs))
        [ 1; 7; 64 ])

(* ------------------------------------------------------------------ *)
(* Experiments: parallel == sequential, bit for bit                    *)
(* ------------------------------------------------------------------ *)

let test_table1_jobs_invariant () =
  List.iter
    (fun seed ->
      let sequential = E.table1 ~seed ~jobs:1 () in
      let parallel = E.table1 ~seed ~jobs:4 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: jobs:4 == jobs:1" seed)
        true
        (sequential = parallel))
    [ 1; 42; 1337 ]

let test_fig2_fig3_jobs_invariant () =
  let f2s = E.fig2 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:1 () in
  let f2p = E.fig2 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:3 () in
  Alcotest.(check bool) "fig2" true (f2s = f2p);
  let f3s = E.fig3 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:1 () in
  let f3p = E.fig3 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:4 () in
  Alcotest.(check bool) "fig3" true (f3s = f3p)

let test_overhead_colocation_jobs_invariant () =
  let os = E.overhead ~vcpus:[ 1; 8 ] ~jobs:1 () in
  let op = E.overhead ~vcpus:[ 1; 8 ] ~jobs:2 () in
  Alcotest.(check bool) "overhead" true (os = op);
  let cs = E.colocation ~duration_s:5.0 ~repeats:2 ~vcpus:[ 1; 36 ] ~jobs:1 () in
  let cp = E.colocation ~duration_s:5.0 ~repeats:2 ~vcpus:[ 1; 36 ] ~jobs:4 () in
  Alcotest.(check bool) "colocation" true (cs = cp)

(* ------------------------------------------------------------------ *)
(* P²SM's parallel merge on the shared pool                            *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Team: persistent barrier rounds                                     *)
(* ------------------------------------------------------------------ *)

module Team = Horse_parallel.Team

let test_team_runs_every_strand () =
  Team.with_team ~width:4 (fun team ->
      let hits = Array.make 4 0 in
      let rounds = 100 in
      for _ = 1 to rounds do
        (* each strand writes only its own slot; the barrier's
           happens-before makes the writes visible here *)
        Team.run team (fun w -> hits.(w) <- hits.(w) + 1)
      done;
      Alcotest.(check (list int))
        "every strand ran every round"
        [ rounds; rounds; rounds; rounds ]
        (Array.to_list hits);
      Alcotest.(check int) "rounds counted" rounds (Team.rounds team))

let test_team_width1_inline () =
  Team.with_team ~width:1 (fun team ->
      Alcotest.(check int) "no domains" 0 (Team.domains team);
      let ran = ref false in
      Team.run team (fun w ->
          Alcotest.(check int) "strand 0" 0 w;
          ran := true);
      Alcotest.(check bool) "ran inline" true !ran)

let test_team_worker_cap () =
  (* never more workers than strands-1 or cores-1: on this host that
     bound is what keeps barrier rounds off the context-switch path *)
  Team.with_team ~width:8 (fun team ->
      let cap = min 7 (max 0 (Domain.recommended_domain_count () - 1)) in
      Alcotest.(check int) "workers capped" cap (Team.domains team))

let test_team_exception_lowest_strand () =
  Team.with_team ~width:4 (fun team ->
      let survivors = Array.make 4 false in
      let raised =
        try
          Team.run team (fun w ->
              survivors.(w) <- true;
              if w = 1 || w = 3 then failwith (Printf.sprintf "strand %d" w));
          "none"
        with Failure m -> m
      in
      Alcotest.(check string) "lowest strand wins" "strand 1" raised;
      (* a failing strand must not stop the others from running *)
      Alcotest.(check (list bool))
        "all strands still ran"
        [ true; true; true; true ]
        (Array.to_list survivors);
      (* the team survives a failed round *)
      let ok = ref 0 in
      Team.run team (fun _ -> incr ok);
      Alcotest.(check int) "team reusable after failure" 4 !ok)

let test_team_shutdown_rejects_run () =
  let team = Team.create ~width:2 () in
  Team.run team ignore;
  Team.shutdown team;
  Team.shutdown team;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Team.run: team is shut down") (fun () ->
      Team.run team ignore)

let test_team_shared_cached () =
  let a = Team.shared ~width:3 and b = Team.shared ~width:3 in
  Alcotest.(check bool) "same team per width" true (a == b);
  Alcotest.(check bool)
    "distinct widths distinct teams" false
    (Team.shared ~width:2 == a)

let test_psm_merge_on_pool () =
  let module Al = Horse_psm.Arena_list in
  let module Psm = Horse_psm.Psm in
  let rng = Rng.create ~seed:99 in
  let sorted n = List.sort Int.compare (List.init n (fun _ -> Rng.int rng 1000)) in
  let source_values = sorted 36 and target_values = sorted 256 in
  let merged strategy =
    let arena = Al.create_arena ~compare:Int.compare () in
    let source = Al.of_sorted_list arena source_values in
    let target = Al.of_sorted_list arena target_values in
    let plan = Psm.Plan.build ~source ~target in
    (match strategy with
    | `Sequential -> ignore (Psm.Plan.execute plan ~target ~source)
    | `Pool n -> ignore (Psm.Plan.execute_parallel ~domains:n plan ~target ~source));
    Al.to_list target
  in
  let reference = merged `Sequential in
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains:%d == sequential" n)
        reference
        (merged (`Pool n)))
    [ 1; 2; 4; 8 ]

let () =
  Alcotest.run "horse_parallel"
    [
      ( "deque",
        [
          Alcotest.test_case "owner lifo" `Quick test_deque_owner_lifo;
          Alcotest.test_case "thief fifo" `Quick test_deque_thief_fifo;
          Alcotest.test_case "grows" `Quick test_deque_grows_both_ends;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
          Alcotest.test_case "rejects jobs<1" `Quick test_pool_rejects_zero_jobs;
          Alcotest.test_case "map order" `Quick test_pool_map_preserves_order;
          Alcotest.test_case "jobs=1 inline" `Quick test_pool_jobs1_is_inline;
          Alcotest.test_case "nested submission" `Quick
            test_pool_nested_submission;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "exception inline" `Quick
            test_pool_exception_inline;
          Alcotest.test_case "shared pool" `Quick test_shared_pool;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "results invariant" `Quick
            test_chunk_results_invariant;
          Alcotest.test_case "rejects chunk<1" `Quick
            test_chunk_rejects_nonpositive;
          Alcotest.test_case "exception lowest index" `Quick
            test_chunk_exception_lowest_index;
          Alcotest.test_case "map_seeded invariant" `Quick
            test_map_seeded_chunk_invariant;
        ] );
      ( "seed-splitting",
        [
          Alcotest.test_case "jobs-invariant" `Quick
            test_map_seeded_jobs_invariant;
          Alcotest.test_case "streams differ" `Quick
            test_map_seeded_streams_differ;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table1 seeds 1/42/1337" `Slow
            test_table1_jobs_invariant;
          Alcotest.test_case "fig2+fig3" `Slow test_fig2_fig3_jobs_invariant;
          Alcotest.test_case "overhead+colocation" `Slow
            test_overhead_colocation_jobs_invariant;
        ] );
      ( "team",
        [
          Alcotest.test_case "every strand every round" `Quick
            test_team_runs_every_strand;
          Alcotest.test_case "width=1 inline" `Quick test_team_width1_inline;
          Alcotest.test_case "worker cap" `Quick test_team_worker_cap;
          Alcotest.test_case "exception lowest strand" `Quick
            test_team_exception_lowest_strand;
          Alcotest.test_case "shutdown" `Quick test_team_shutdown_rejects_run;
          Alcotest.test_case "shared cache" `Quick test_team_shared_cached;
        ] );
      ( "psm",
        [ Alcotest.test_case "merge on pool" `Quick test_psm_merge_on_pool ] );
    ]
