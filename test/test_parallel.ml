(* Tests for Horse_parallel: the team as the sweeps' domain pool (its
   ordered [map]: lifecycle, result order, exception propagation,
   width 1, nested fans, the shared cache), per-item claims, the
   team's barrier rounds and its nesting rule for nested and
   concurrent callers, deterministic seed splitting over a fan, and
   the headline guarantee that parallel experiment sweeps are
   bit-identical to sequential ones. *)

module Team = Horse_parallel.Team
module Rng = Horse_sim.Rng
module E = Horse.Experiments

(* ------------------------------------------------------------------ *)
(* The team as the sweeps' domain pool: Team.map and Team.shared       *)
(* ------------------------------------------------------------------ *)

(* deliberately unbalanced items: completion order differs wildly
   from list order, results must not *)
let skewed_square x =
  let spin = Atomic.make 0 in
  for _ = 1 to (x mod 13) * 10_000 do
    Atomic.incr spin
  done;
  ignore (Atomic.get spin);
  x * x

let test_pool_lifecycle () =
  let team = Team.create ~width:4 () in
  Alcotest.(check int) "width" 4 (Team.width team);
  Alcotest.(check (list int)) "runs" [ 1; 2; 3 ]
    (Team.map team (fun f -> f ()) [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ]);
  Team.shutdown team;
  Team.shutdown team (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Team.run: team is shut down") (fun () ->
      ignore (Team.map team (fun x -> x) [ 0 ]))

let test_pool_rejects_zero_jobs () =
  (* a sweep's --jobs is the team's width *)
  Alcotest.check_raises "width < 1" (Invalid_argument "Team.create: width < 1")
    (fun () -> ignore (Team.create ~width:0 ()));
  Alcotest.check_raises "shared width < 1"
    (Invalid_argument "Team.shared: width < 1") (fun () ->
      ignore (Team.shared ~width:0))

let test_pool_map_preserves_order () =
  let xs = List.init 200 Fun.id in
  let expected = List.map skewed_square xs in
  Team.with_team ~width:4 (fun team ->
      Alcotest.(check (list int))
        "item order, not completion order" expected
        (Team.map team skewed_square xs);
      Alcotest.(check (list int)) "empty list" [] (Team.map team skewed_square []))

let test_pool_jobs1_is_inline () =
  (* width = 1 spawns nothing: every item runs on the calling domain,
     in list order, and the result is List.map's *)
  let self = Domain.self () in
  Team.with_team ~width:1 (fun team ->
      Alcotest.(check int) "no domains" 0 (Team.domains team);
      let order = ref [] in
      let f x =
        Alcotest.(check bool) "same domain" true (Domain.self () = self);
        order := x :: !order;
        skewed_square x
      in
      let xs = List.init 20 Fun.id in
      Alcotest.(check (list int)) "List.map" (List.map skewed_square xs)
        (Team.map team f xs);
      Alcotest.(check (list int)) "in list order" xs (List.rev !order))

let test_pool_nested_submission () =
  (* an item may itself fan out on the same team (the nested map runs
     inline on its strand), with more items than strands *)
  Team.with_team ~width:3 (fun team ->
      let totals =
        Team.map team
          (fun i ->
            List.fold_left ( + ) 0
              (Team.map team (fun j -> (10 * i) + j) (List.init 8 Fun.id)))
          (List.init 4 Fun.id)
      in
      Alcotest.(check (list int)) "nested results"
        (List.init 4 (fun i -> (80 * i) + 28))
        totals;
      Alcotest.(check (list (list int)))
        "map inside map"
        (List.init 4 (fun i -> List.init 8 (fun j -> (10 * i) + j)))
        (Team.map team
           (fun i -> Team.map team (fun j -> (10 * i) + j) (List.init 8 Fun.id))
           (List.init 4 Fun.id)))

let test_pool_exception_propagation () =
  Team.with_team ~width:4 (fun team ->
      let ran = Array.make 64 false in
      let item i =
        ran.(i) <- true;
        if i = 9 || i = 37 then failwith (string_of_int i);
        i
      in
      (* the lowest-indexed failure wins, whatever the schedule *)
      Alcotest.check_raises "first failure by index" (Failure "9") (fun () ->
          ignore (Team.map team item (List.init 64 Fun.id)));
      (* every item ran, the failing ones and those after them too *)
      Alcotest.(check bool) "every item ran" true (Array.for_all Fun.id ran);
      (* and the team survives for the next round *)
      Alcotest.(check (list int)) "team still usable" [ 7 ]
        (Team.map team (fun x -> x) [ 7 ]))

let test_pool_exception_inline () =
  Team.with_team ~width:1 (fun team ->
      Alcotest.check_raises "inline too" (Failure "boom") (fun () ->
          ignore (Team.map team (fun _ -> failwith "boom") [ 1 ])))

let test_shared_pool () =
  let width = Team.default_width () in
  let a = Team.shared ~width and b = Team.shared ~width in
  Alcotest.(check bool) "one process-wide team per width" true (a == b);
  Alcotest.(check (list int)) "usable" [ 0; 1; 4; 9 ]
    (Team.map a (fun i -> i * i) (List.init 4 Fun.id))

(* ------------------------------------------------------------------ *)
(* Item claims: Team.map hands out one index at a time, so how many    *)
(* items each strand takes depends on width and schedule — never the   *)
(* results or which exception wins                                     *)
(* ------------------------------------------------------------------ *)

let test_chunk_results_invariant () =
  let xs = List.init 100 Fun.id in
  let expected = List.map skewed_square xs in
  List.iter
    (fun width ->
      Team.with_team ~width (fun team ->
          Alcotest.(check (list int))
            (Printf.sprintf "width %d" width)
            expected
            (Team.map team skewed_square xs)))
    [ 1; 2; 3; 4; 8 ]

let test_chunk_exception_lowest_index () =
  (* the lowest-indexed failure must win even when the failures are
     claimed by different strands on different domains *)
  let item i = if i = 9 || i = 37 then failwith (string_of_int i) in
  List.iter
    (fun width ->
      Team.with_team ~width (fun team ->
          Alcotest.check_raises
            (Printf.sprintf "width %d: first failure by index" width)
            (Failure "9")
            (fun () -> ignore (Team.map team item (List.init 64 Fun.id)))))
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Deterministic seed splitting                                        *)
(* ------------------------------------------------------------------ *)

(* item [i] draws from a stream derived from [(seed, i)] — the
   seed-splitting rule the sweeps rely on *)
let draws ~width ~seed xs =
  let root = Rng.create ~seed in
  Team.with_team ~width (fun team ->
      Team.map team
        (fun i -> Rng.int (Rng.derive root ~index:i) 1_000_000)
        xs)

let test_seeded_fan_jobs_invariant () =
  let xs = List.init 64 Fun.id in
  let seq = draws ~width:1 ~seed:42 xs in
  Alcotest.(check (list int)) "streams independent of width" seq
    (draws ~width:4 ~seed:42 xs);
  Alcotest.(check (list int)) "and reproducible" seq (draws ~width:4 ~seed:42 xs)

let test_seeded_streams_differ () =
  let draws = draws ~width:4 ~seed:7 (List.init 32 Fun.id) in
  let distinct = List.sort_uniq Int.compare draws in
  (* 32 six-digit draws colliding would be a broken derivation *)
  Alcotest.(check int) "per-index streams differ" (List.length draws)
    (List.length distinct)

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
(* Team: persistent barrier rounds                                     *)
(* ------------------------------------------------------------------ *)

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
  (* one worker per strand beyond strand 0, whatever the core count,
     except on a single core, where barrier rounds would only add
     context switches *)
  Team.with_team ~width:8 (fun team ->
      let expected = if Domain.recommended_domain_count () < 2 then 0 else 7 in
      Alcotest.(check int) "workers spawned" expected (Team.domains team))

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

let test_team_nested_run_inline () =
  (* a strand that runs its own team again gets every strand inline,
     and the outer round is unharmed *)
  Team.with_team ~width:4 (fun team ->
      let inner = Array.init 4 (fun _ -> Array.make 4 0) in
      let outer = Array.make 4 0 in
      let rounds = Team.rounds team in
      Team.run team (fun w ->
          outer.(w) <- outer.(w) + 1;
          Team.run team (fun v -> inner.(w).(v) <- inner.(w).(v) + 1));
      Alcotest.(check (list int)) "outer strands once each" [ 1; 1; 1; 1 ]
        (Array.to_list outer);
      Array.iteri
        (fun w row ->
          Alcotest.(check (list int))
            (Printf.sprintf "strand %d's nested run: every strand once" w)
            [ 1; 1; 1; 1 ] (Array.to_list row))
        inner;
      Alcotest.(check int) "only the outer round counted" (rounds + 1)
        (Team.rounds team);
      (* a nested failure propagates like any other: lowest strand *)
      Alcotest.check_raises "nested lowest strand" (Failure "nested 2")
        (fun () ->
          Team.run team (fun w ->
              if w = 0 then
                Team.run team (fun v ->
                    if v >= 2 then failwith (Printf.sprintf "nested %d" v)))))

let test_team_concurrent_callers () =
  (* two domains running rounds on one team at the same time: each
     caller sees every strand of each of its rounds run exactly once *)
  Team.with_team ~width:4 (fun team ->
      let rounds = 200 in
      let caller () =
        let hits = Array.make 4 0 in
        for _ = 1 to rounds do
          Team.run team (fun w -> hits.(w) <- hits.(w) + 1)
        done;
        Array.to_list hits
      in
      let other = Domain.spawn caller in
      let mine = caller () in
      let theirs = Domain.join other in
      let expected = [ rounds; rounds; rounds; rounds ] in
      Alcotest.(check (list int)) "this domain's rounds" expected mine;
      Alcotest.(check (list int)) "the other domain's rounds" expected theirs)

let test_team_shared_cached () =
  let a = Team.shared ~width:3 and b = Team.shared ~width:3 in
  Alcotest.(check bool) "same team per width" true (a == b);
  Alcotest.(check bool)
    "distinct widths distinct teams" false
    (Team.shared ~width:2 == a)

let () =
  Alcotest.run "horse_parallel"
    [
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
          Alcotest.test_case "exception inline" `Quick test_pool_exception_inline;
          Alcotest.test_case "shared pool" `Quick test_shared_pool;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "results invariant" `Quick
            test_chunk_results_invariant;
          Alcotest.test_case "exception lowest index" `Quick
            test_chunk_exception_lowest_index;
        ] );
      ( "seed-splitting",
        [
          Alcotest.test_case "jobs-invariant" `Quick
            test_seeded_fan_jobs_invariant;
          Alcotest.test_case "streams differ" `Quick test_seeded_streams_differ;
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
          Alcotest.test_case "nested run inline" `Quick
            test_team_nested_run_inline;
          Alcotest.test_case "concurrent callers" `Quick
            test_team_concurrent_callers;
        ] );
    ]
