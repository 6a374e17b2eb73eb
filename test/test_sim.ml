(* Tests for horse_sim: virtual time, the heap and event queue, the
   engine's determinism, statistics and the metric registry. *)

module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Heap = Horse_sim.Binary_heap
module Eq = Horse_sim.Event_queue
module Eqr = Horse_sim.Event_queue_reference
module Engine = Horse_sim.Engine
module Stats = Horse_sim.Stats
module Metrics = Horse_sim.Metrics

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_arithmetic () =
  let t = Time.add Time.zero (Time.span_ns 500) in
  Alcotest.(check int) "add" 500 (Time.to_ns t);
  let t2 = Time.add t (Time.span_us 1.0) in
  Alcotest.(check int) "us" 1500 (Time.to_ns t2);
  Alcotest.(check int) "diff" 1000 (Time.span_to_ns (Time.diff t2 t));
  Alcotest.check_raises "negative diff"
    (Invalid_argument "Time_ns.diff: negative interval") (fun () ->
      ignore (Time.diff t t2))

let test_time_conversions () =
  Alcotest.(check int) "ms" 2_500_000 (Time.span_to_ns (Time.span_ms 2.5));
  Alcotest.(check int) "s" 1_000_000_000 (Time.span_to_ns (Time.span_s 1.0));
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Time.span_to_us (Time.span_ns 1500));
  Alcotest.check_raises "negative span"
    (Invalid_argument "Time_ns.span_ns: negative") (fun () ->
      ignore (Time.span_ns (-1)))

let test_span_ops () =
  let a = Time.span_ns 300 and b = Time.span_ns 200 in
  Alcotest.(check int) "add" 500 (Time.span_to_ns (Time.add_span a b));
  Alcotest.(check int) "sub" 100 (Time.span_to_ns (Time.sub_span a b));
  Alcotest.(check int) "scale" 900 (Time.span_to_ns (Time.scale_span 3 a));
  Alcotest.(check int) "max" 300 (Time.span_to_ns (Time.max_span a b))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float r 2.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 2.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (abs_float (mean -. 5.0) < 0.2)

let test_rng_pareto_shape () =
  (* Pareto(shape=2, scale=1): mean = shape*scale/(shape-1) = 2 *)
  let r = Rng.create ~seed:5 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.pareto r ~shape:2.0 ~scale:1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f near 2" mean)
    true
    (mean > 1.8 && mean < 2.2);
  Alcotest.check_raises "bad shape"
    (Invalid_argument "Rng.pareto: shape and scale must be positive") (fun () ->
      ignore (Rng.pareto r ~shape:0.0 ~scale:1.0))

let test_rng_lognormal_median () =
  (* median of lognormal(mu, sigma) is e^mu *)
  let r = Rng.create ~seed:6 in
  let n = 20_001 in
  let draws = Array.init n (fun _ -> Rng.lognormal r ~mu:2.0 ~sigma:0.7) in
  Array.sort Float.compare draws;
  let median = draws.(n / 2) in
  let expected = exp 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median %.3f near %.3f" median expected)
    true
    (Float.abs (median -. expected) /. expected < 0.05)

let test_rng_shuffle_permutes () =
  let r = Rng.create ~seed:8 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  Alcotest.(check bool) "same multiset" true
    (List.sort Int.compare (Array.to_list b) = Array.to_list a);
  Alcotest.(check bool) "actually moved" true (a <> b)

let test_rng_split_independent () =
  let r = Rng.create ~seed:9 in
  let s = Rng.split r in
  (* The split stream must not simply replay the parent's. *)
  Alcotest.(check bool) "different" true (Rng.bits64 r <> Rng.bits64 s)

let test_rng_derive_streams () =
  (* keyed derivation: reproducible per index, distinct across
     indices, and the parent is left untouched *)
  let parent = Rng.create ~seed:123 in
  let draws index = Rng.bits64 (Rng.derive parent ~index) in
  Alcotest.(check bool) "reproducible" true (draws 5 = draws 5);
  let firsts = List.init 32 draws in
  Alcotest.(check int) "pairwise distinct" 32
    (List.length (List.sort_uniq Int64.compare firsts));
  let fresh = Rng.create ~seed:123 in
  Alcotest.(check bool) "parent not advanced" true
    (Rng.bits64 parent = Rng.bits64 fresh);
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.derive: negative index") (fun () ->
      ignore (Rng.derive parent ~index:(-1)))

(* ------------------------------------------------------------------ *)
(* Binary heap                                                         *)
(* ------------------------------------------------------------------ *)

let test_heap_orders () =
  let h = Heap.create ~compare:Int.compare () in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 8; 9 ]
    (let rec drain acc =
       match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
     in
     drain [])

let test_heap_peek_pop () =
  let h = Heap.create ~compare:Int.compare () in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.push h 4;
  Alcotest.(check (option int)) "peek" (Some 4) (Heap.peek h);
  Alcotest.(check int) "length" 1 (Heap.length h);
  Alcotest.(check (option int)) "pop" (Some 4) (Heap.pop h);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Binary_heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_grows () =
  let h = Heap.create ~capacity:2 ~compare:Int.compare () in
  for i = 100 downto 1 do
    Heap.push h i
  done;
  Alcotest.(check int) "length" 100 (Heap.length h);
  Alcotest.(check (option int)) "min" (Some 1) (Heap.peek h);
  Alcotest.(check (list int)) "to_sorted_list" (List.init 100 (fun i -> i + 1))
    (Heap.to_sorted_list h);
  Alcotest.(check int) "non destructive" 100 (Heap.length h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck2.Gen.(list_size (0 -- 200) int)
    (fun xs ->
      let h = Heap.create ~compare:Int.compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let at ns = Time.of_ns ns

let test_eq_ordering () =
  let q = Eq.create () in
  ignore (Eq.schedule q ~at:(at 30) "c");
  ignore (Eq.schedule q ~at:(at 10) "a");
  ignore (Eq.schedule q ~at:(at 20) "b");
  let pop () = snd (Option.get (Eq.pop q)) in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ())

let test_eq_fifo_ties () =
  let q = Eq.create () in
  ignore (Eq.schedule q ~at:(at 5) "first");
  ignore (Eq.schedule q ~at:(at 5) "second");
  ignore (Eq.schedule q ~at:(at 5) "third");
  let pop () = snd (Option.get (Eq.pop q)) in
  Alcotest.(check string) "fifo 1" "first" (pop ());
  Alcotest.(check string) "fifo 2" "second" (pop ());
  Alcotest.(check string) "fifo 3" "third" (pop ())

let test_eq_cancel () =
  let q = Eq.create () in
  let h = Eq.schedule q ~at:(at 1) "x" in
  ignore (Eq.schedule q ~at:(at 2) "y");
  Alcotest.(check bool) "cancel ok" true (Eq.cancel q h);
  Alcotest.(check bool) "cancel twice" false (Eq.cancel q h);
  Alcotest.(check int) "length" 1 (Eq.length q);
  Alcotest.(check string) "skips cancelled" "y" (snd (Option.get (Eq.pop q)));
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

let test_eq_next_time () =
  let q = Eq.create () in
  Alcotest.(check bool) "empty" true (Eq.next_time q = None);
  let h = Eq.schedule q ~at:(at 9) () in
  Alcotest.(check bool) "next" true (Eq.next_time q = Some (at 9));
  ignore (Eq.cancel q h);
  Alcotest.(check bool) "after cancel" true (Eq.next_time q = None)

let test_eq_pop_until () =
  let q = Eq.create () in
  ignore (Eq.schedule q ~at:(at 10) "a");
  ignore (Eq.schedule q ~at:(at 20) "b");
  ignore (Eq.schedule q ~at:(at 30) "c");
  Alcotest.(check bool) "limit before first: None" true
    (Eq.pop_until q ~limit:(Some (at 5)) = None);
  Alcotest.(check int) "nothing consumed" 3 (Eq.length q);
  Alcotest.(check bool) "limit inclusive" true
    (Eq.pop_until q ~limit:(Some (at 10)) = Some (at 10, "a"));
  Alcotest.(check bool) "limit between events" true
    (Eq.pop_until q ~limit:(Some (at 25)) = Some (at 20, "b"));
  Alcotest.(check bool) "no limit pops" true
    (Eq.pop_until q ~limit:None = Some (at 30, "c"));
  Alcotest.(check bool) "empty" true (Eq.pop_until q ~limit:None = None)

let test_eq_ring_heap_fifo_boundary () =
  (* Equal timestamps must stay FIFO even when the two events live in
     different internal structures: "far" lands in the heap (scheduled
     4096+ns out), then after the clock advances "late" lands in the
     near-horizon ring at the very same timestamp. *)
  let q = Eq.create () in
  ignore (Eq.schedule q ~at:(at 3000) "warm");
  ignore (Eq.schedule q ~at:(at 5000) "far");
  Alcotest.(check string) "advance clock" "warm" (snd (Option.get (Eq.pop q)));
  ignore (Eq.schedule q ~at:(at 5000) "late");
  Alcotest.(check string) "heap event first (older seq)" "far"
    (snd (Option.get (Eq.pop q)));
  Alcotest.(check string) "ring event second" "late"
    (snd (Option.get (Eq.pop q)));
  (* the exact near/far split: clock is now 5000, so 5000+4095 is the
     last ring tick and 5000+4096 the first heap-bound timestamp *)
  ignore (Eq.schedule q ~at:(at (5000 + 4096)) "first-heap");
  ignore (Eq.schedule q ~at:(at (5000 + 4095)) "last-ring");
  Alcotest.(check string) "edge order 1" "last-ring"
    (snd (Option.get (Eq.pop q)));
  Alcotest.(check string) "edge order 2" "first-heap"
    (snd (Option.get (Eq.pop q)));
  Alcotest.(check bool) "drained" true (Eq.is_empty q)

let test_eq_handle_reuse () =
  (* Freed slots are recycled with a bumped generation: handles to
     dead events must stay dead even after their slot is reused. *)
  let q = Eq.create () in
  let h1 = Eq.schedule q ~at:(at 10) "x" in
  Alcotest.(check bool) "cancel live" true (Eq.cancel q h1);
  let h2 = Eq.schedule q ~at:(at 20) "y" in
  Alcotest.(check bool) "stale handle, reused slot" false (Eq.cancel q h1);
  Alcotest.(check int) "one live event" 1 (Eq.length q);
  Alcotest.(check bool) "survivor pops" true (Eq.pop q = Some (at 20, "y"));
  Alcotest.(check bool) "cancel after pop" false (Eq.cancel q h2);
  Alcotest.(check bool) "empty" true (Eq.is_empty q)

(* The oracle for the flat arena+ring+heap queue: drive seeded random
   op scripts (schedules across the near/far split, pops, cancels of
   live / already-cancelled / already-popped handles, and a full final
   drain) through both the production queue and the boxed-cell
   reference via the model-based harness, requiring identical
   observable behaviour: pop results, cancel verdicts, lengths and
   next_time after every step.  On divergence the harness shrinks the
   script to a minimal one and prints the replay seed. *)

type eq_op = Schedule of int | Qpop | Cancel of int | Drain

let eq_spec : eq_op Harness.spec =
  {
    Harness.name = "flat event queue vs boxed reference";
    gen =
      (fun st ->
        match Random.State.int st 9 with
        | 0 | 1 | 2 | 3 -> Schedule (Random.State.int st 10_000)
        | 4 | 5 -> Qpop
        | 6 | 7 -> Cancel (Random.State.int st (1 lsl 20))
        | _ -> Drain);
    show =
      (function
      | Schedule d -> Printf.sprintf "Schedule %d" d
      | Qpop -> "Qpop"
      | Cancel k -> Printf.sprintf "Cancel %d" k
      | Drain -> "Drain");
    make =
      (fun () ->
        let q = Eq.create () in
        let r = Eqr.create () in
        let handles = ref [||] in
        let nhandles = ref 0 in
        let remember h1 h2 =
          if !nhandles = Array.length !handles then begin
            let grown = Array.make (max 8 (2 * !nhandles)) (None, None) in
            Array.blit !handles 0 grown 0 !nhandles;
            handles := grown
          end;
          !handles.(!nhandles) <- (Some h1, Some h2);
          incr nhandles
        in
        let now = ref 0 in
        let tag = ref 0 in
        let pop_once () =
          match (Eq.pop q, Eqr.pop r) with
          | None, None -> Ok false
          | Some (t1, v1), Some (t2, v2) when Time.equal t1 t2 && v1 = v2 ->
            now := Time.to_ns t1;
            Ok true
          | _ -> Error "pop diverged"
        in
        fun op ->
          let step_diff =
            match op with
            | Schedule d ->
              (* relative to the last popped time, so deltas straddle
                 the queue's 4096ns near-horizon window *)
              let at_ns = at (!now + d) in
              incr tag;
              remember (Eq.schedule q ~at:at_ns !tag)
                (Eqr.schedule r ~at:at_ns !tag);
              None
            | Qpop -> (
              match pop_once () with Ok _ -> None | Error e -> Some e)
            | Cancel k ->
              if !nhandles = 0 then None
              else (
                match !handles.(k mod !nhandles) with
                | Some h1, Some h2 ->
                  if Eq.cancel q h1 <> Eqr.cancel r h2 then
                    Some "cancel verdict diverged"
                  else None
                | _ -> None)
            | Drain ->
              let rec go () =
                match pop_once () with
                | Ok true -> go ()
                | Ok false ->
                  if Eq.is_empty q && Eqr.is_empty r then None
                  else Some "drain left residue"
                | Error e -> Some e
              in
              go ()
          in
          match step_diff with
          | Some _ as d -> d
          | None ->
            if Eq.length q <> Eqr.length r then
              Some
                (Printf.sprintf "length %d (flat) vs %d (reference)"
                   (Eq.length q) (Eqr.length r))
            else if Eq.next_time q <> Eqr.next_time r then
              Some "next_time diverged"
            else None);
  }

let test_eq_matches_reference () = Harness.check ~scripts:12 ~len:150 eq_spec

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag t = log := (tag, Time.to_ns (Engine.now t)) :: !log in
  ignore (Engine.schedule e ~after:(Time.span_ns 20) (note "b"));
  ignore (Engine.schedule e ~after:(Time.span_ns 10) (note "a"));
  ignore (Engine.schedule e ~after:(Time.span_ns 30) (note "c"));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "ordered" [ ("a", 10); ("b", 20); ("c", 30) ] (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.schedule e ~after:(Time.span_ns 5) (fun t ->
         incr fired;
         ignore
           (Engine.schedule t ~after:(Time.span_ns 5) (fun _ -> incr fired))));
  Engine.run e;
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check int) "clock at 10" 10 (Time.to_ns (Engine.now e))

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun ns ->
      ignore
        (Engine.schedule e ~after:(Time.span_ns ns) (fun _ ->
             fired := ns :: !fired)))
    [ 10; 20; 30 ];
  Engine.run ~until:(at 20) e;
  Alcotest.(check (list int)) "only up to 20" [ 10; 20 ] (List.rev !fired);
  Alcotest.(check int) "clock parked" 20 (Time.to_ns (Engine.now e));
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list int)) "rest fired" [ 10; 20; 30 ] (List.rev !fired)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(Time.span_ns 5) (fun _ -> fired := true) in
  Alcotest.(check bool) "cancelled" true (Engine.cancel e h);
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired

let test_engine_past_schedule_rejected () =
  let e = Engine.create () in
  ignore
    (Engine.schedule e ~after:(Time.span_ns 10) (fun t ->
         Alcotest.check_raises "past"
           (Invalid_argument "Engine.schedule_at: timestamp in the past")
           (fun () -> ignore (Engine.schedule_at t ~at:(at 3) (fun _ -> ())))));
  Engine.run e

let test_engine_reentrant_run_rejected () =
  let e = Engine.create () in
  let caught = ref None in
  ignore
    (Engine.schedule e ~after:(Time.span_ns 37) (fun _ ->
         try Engine.run e
         with Invalid_argument msg -> caught := Some msg));
  Engine.run e;
  match !caught with
  | None -> Alcotest.fail "re-entrant Engine.run did not raise"
  | Some msg ->
    Alcotest.(check string) "message names the virtual time"
      "Engine.run: re-entrant call at virtual time 37ns (the engine is \
       already draining its event queue; schedule a callback instead)"
      msg

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  ignore (Engine.schedule e ~after:(Time.span_ns 1) (fun _ -> ()));
  Alcotest.(check bool) "steps once" true (Engine.step e);
  Alcotest.(check bool) "then empty" false (Engine.step e)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_online_stats () =
  let s = Stats.Online.create () in
  List.iter (Stats.Online.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Online.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Online.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Stats.Online.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Online.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Online.max s)

let test_online_empty () =
  let s = Stats.Online.create () in
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.Online.mean s);
  Alcotest.(check (float 0.0)) "variance" 0.0 (Stats.Online.variance s);
  Alcotest.check_raises "min" (Invalid_argument "Stats.Online.min: empty")
    (fun () -> ignore (Stats.Online.min s))

let test_sample_percentiles () =
  let s = Stats.Sample.create () in
  for i = 1 to 100 do
    Stats.Sample.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Sample.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Sample.percentile s 100.0);
  Alcotest.(check (float 1e-6)) "p50" 50.5 (Stats.Sample.percentile s 50.0);
  Alcotest.(check (float 1e-6)) "p99" 99.01 (Stats.Sample.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Sample.mean s)

let test_sample_interleaved_reads () =
  (* Percentile queries between adds must not lose observations. *)
  let s = Stats.Sample.create () in
  Stats.Sample.add s 10.0;
  ignore (Stats.Sample.percentile s 50.0);
  Stats.Sample.add s 20.0;
  Alcotest.(check int) "count" 2 (Stats.Sample.count s);
  Alcotest.(check (float 1e-9)) "p100" 20.0 (Stats.Sample.percentile s 100.0)

let prop_percentile_matches_sorted =
  QCheck2.Test.make ~name:"percentile agrees with exact rank on sorted data"
    ~count:200
    QCheck2.Gen.(list_size (1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Stats.Sample.create () in
      List.iter (Stats.Sample.add s) xs;
      let sorted = List.sort Float.compare xs in
      let last = List.nth sorted (List.length sorted - 1) in
      Stats.Sample.percentile s 100.0 = last
      && Stats.Sample.percentile s 0.0 = List.hd sorted)

(* ------------------------------------------------------------------ *)
(* Streaming quantiles vs the exact sample oracle                      *)
(* ------------------------------------------------------------------ *)

let test_quantile_small_exact () =
  (* five or fewer observations answer exactly, any percentile, with
     Sample's closest-ranks rule *)
  let q = Stats.Quantile.create () in
  let s = Stats.Sample.create () in
  List.iter
    (fun v ->
      Stats.Quantile.add q v;
      Stats.Sample.add s v)
    [ 9.0; 1.0; 5.0; 2.0 ];
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g" p)
        (Stats.Sample.percentile s p)
        (Stats.Quantile.percentile q p))
    [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]

let test_quantile_rejects () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.Quantile.percentile: empty") (fun () ->
      ignore (Stats.Quantile.percentile (Stats.Quantile.create ()) 50.0));
  Alcotest.check_raises "bad target"
    (Invalid_argument "Stats.Quantile.create: target outside (0,1)")
    (fun () -> ignore (Stats.Quantile.create ~quantiles:[| 1.5 |] ()));
  let q = Stats.Quantile.create ~quantiles:[| 0.5 |] () in
  for i = 1 to 100 do
    Stats.Quantile.add q (float_of_int i)
  done;
  Alcotest.check_raises "untracked percentile on a long stream"
    (Invalid_argument "Stats.Quantile.percentile: not a configured target")
    (fun () -> ignore (Stats.Quantile.percentile q 75.0))

(* Model-based: every op appends a burst of draws to both the
   estimator and the exact Sample oracle; at every checkpoint (each
   500 observations) the tracked percentiles must be ordered
   (p50 <= p99 <= p99.9) and equal Sample's, bit for bit.  One spec
   per draw shape. *)
let quantile_ps = [ 50.0; 99.0; 99.9 ]

let quantile_spec ~name ~draw =
  {
    Harness.name;
    gen = draw;
    show =
      (fun burst -> String.concat "," (List.map (Printf.sprintf "%.3f") burst));
    make =
      (fun () ->
        let sample = Stats.Sample.create () in
        let q =
          Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ()
        in
        fun burst ->
          let before = Stats.Sample.count sample in
          List.iter
            (fun v ->
              Stats.Sample.add sample v;
              Stats.Quantile.add q v)
            burst;
          let n = Stats.Sample.count sample in
          if n < 500 || n / 500 = before / 500 then None
          else begin
            let est = List.map (Stats.Quantile.percentile q) quantile_ps in
            match est with
            | [ p50; p99; p999 ] when not (p50 <= p99 && p99 <= p999) ->
              Some
                (Printf.sprintf "n=%d: p50 %.3f, p99 %.3f, p99.9 %.3f unordered"
                   n p50 p99 p999)
            | _ ->
              List.fold_left2
                (fun acc p est ->
                  match acc with
                  | Some _ -> acc
                  | None ->
                    let exact = Stats.Sample.percentile sample p in
                    if Float.equal exact est then None
                    else
                      Some
                        (Printf.sprintf "p%g at n=%d: exact %.3f, quantile %.3f"
                           p n exact est))
                None quantile_ps est
          end);
  }

let one draw st = [ draw st ]

let test_quantile_uniform () =
  Harness.check ~scripts:6 ~len:2500
    (quantile_spec ~name:"quantile/uniform"
       ~draw:(one (fun st -> Random.State.float st 1000.0)))

let test_quantile_exponential () =
  Harness.check ~scripts:6 ~len:2500
    (quantile_spec ~name:"quantile/exponential"
       ~draw:(one (fun st -> -200.0 *. log (1.0 -. Random.State.float st 1.0))))

let test_quantile_bimodal () =
  Harness.check ~scripts:6 ~len:2500
    (quantile_spec ~name:"quantile/bimodal"
       ~draw:
         (one (fun st ->
              (if Random.State.bool st then 100.0 else 900.0)
              +. Random.State.float st 10.0)))

(* Two-mode streams shaped like the storm experiment's trigger
   latencies (µs): warm resumes near 400, slow starts near 1.7e3 or
   1.5e6, arriving in clumps of up to 48 (the storm's burst size). *)
let bursty_spec =
  quantile_spec ~name:"quantile/bursty two-mode" ~draw:(fun st ->
      (* 1% of clumps, so about 1% of observations, are slow *)
      let clump = 1 + Random.State.int st 48 in
      if Random.State.int st 100 = 0 then
        List.init clump (fun _ -> 1.5e6 +. Random.State.float st 1e5)
      else List.init clump (fun _ -> 400.0 +. Random.State.float st 8.0))

(* The storm's own order: the slow starts (518 restores of 1675–1737
   µs in 100 k triggers at seed 42) all land in the first thousand
   triggers, while the warm pools refill, in runs of 1–5 with a few of
   20–269, then the stream is warm to the end.  On this order a
   fixed-memory estimator lets p99 overtake p99.9 once both sit in the
   narrow slow mode (at n = 8500 for the storm itself). *)
let storm_script ~seed =
  let rng = Rng.create ~seed in
  let warm k = List.init k (fun _ -> 400.0 +. Rng.float rng 8.0) in
  let rec warmup acc left =
    if left = 0 then List.rev acc
    else begin
      let k =
        min left
          (if Rng.int rng 10 = 0 then 20 + Rng.int rng 250
           else 1 + Rng.int rng 5)
      in
      let slow = List.init k (fun _ -> 1675.0 +. Rng.float rng 62.0) in
      warmup (warm (2 + Rng.int rng 5) :: slow :: acc) (left - k)
    end
  in
  let head = warmup [ warm 240 ] 518 in
  let seen = List.fold_left (fun n burst -> n + List.length burst) 0 head in
  head @ List.init ((10_000 - seen) / 10) (fun _ -> warm 10)

let test_quantile_bursty_two_mode () =
  Harness.check ~scripts:6 ~len:300 bursty_spec;
  (* seed 25 is a storm order on which a P² estimator reads p99 above
     p99.9 after 8008 observations, as it did on the storm itself *)
  List.iter
    (fun seed ->
      match Harness.run bursty_spec (storm_script ~seed) with
      | None -> ()
      | Some (_, divergence) ->
        Alcotest.failf "storm-ordered stream, seed %d: %s" seed divergence)
    [ 1; 42; 1337; 25 ]

(* Adversarial streams: shapes a randomized draw never produces —
   degenerate and fully-sorted input. *)
let test_quantile_adversarial () =
  let targets = [| 0.5; 0.99; 0.999 |] in
  let ps = [ 50.0; 99.0; 99.9 ] in
  (* all-equal: every percentile is the one observed value *)
  let q = Stats.Quantile.create ~quantiles:targets () in
  for _ = 1 to 10_000 do
    Stats.Quantile.add q 42.0
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "all-equal p%g" p)
        42.0
        (Stats.Quantile.percentile q p))
    ps;
  (* monotone ramps, both directions: the answer is the exact rank
     whatever the arrival order *)
  let ramp name values =
    let q = Stats.Quantile.create ~quantiles:targets () in
    let s = Stats.Sample.create () in
    List.iter
      (fun v ->
        Stats.Quantile.add q v;
        Stats.Sample.add s v)
      values;
    List.iter
      (fun p ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s p%g" name p)
          (Stats.Sample.percentile s p)
          (Stats.Quantile.percentile q p))
      ps
  in
  let n = 10_000 in
  ramp "ascending ramp" (List.init n (fun i -> float_of_int (i + 1)));
  ramp "descending ramp" (List.init n (fun i -> float_of_int (n - i)))

let test_quantile_queries_pure () =
  (* percentile reads after observation start are pure: a stream
     interrogated at every checkpoint ends with bit-identical
     answers to an uninterrupted one *)
  let targets = [| 0.5; 0.99; 0.999 |] in
  let queried = Stats.Quantile.create ~quantiles:targets () in
  let silent = Stats.Quantile.create ~quantiles:targets () in
  let rng = Rng.create ~seed:7 in
  for i = 1 to 5_000 do
    let v = Rng.float rng 1000.0 in
    Stats.Quantile.add queried v;
    Stats.Quantile.add silent v;
    if i mod 10 = 0 then ignore (Stats.Quantile.percentile queried 99.0)
  done;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g unperturbed" p)
        (Stats.Quantile.percentile silent p)
        (Stats.Quantile.percentile queried p))
    [ 50.0; 99.0; 99.9 ]

(* Merging R per-router streams equals one stream fed every
   observation, at every tracked percentile (p1 .. p99 and p99.9). *)
let prop_quantile_merge_exact =
  let targets =
    Array.append (Array.init 99 (fun i -> float_of_int (i + 1) /. 100.0))
      [| 0.999 |]
  in
  QCheck2.Test.make ~name:"quantile merge of R streams equals one stream"
    ~count:100
    QCheck2.Gen.(
      pair (1 -- 4)
        (list_size (1 -- 300) (pair (0 -- 3) (float_bound_inclusive 1e6))))
    (fun (routers, obs) ->
      let one = Stats.Quantile.create ~quantiles:targets () in
      let parts =
        List.init routers (fun _ -> Stats.Quantile.create ~quantiles:targets ())
      in
      List.iter
        (fun (r, v) ->
          Stats.Quantile.add one v;
          Stats.Quantile.add (List.nth parts (r mod routers)) v)
        obs;
      let merged = Stats.Quantile.merge parts in
      Stats.Quantile.count merged = Stats.Quantile.count one
      && Array.for_all
           (fun f ->
             let p = 100.0 *. f in
             Float.equal
               (Stats.Quantile.percentile merged p)
               (Stats.Quantile.percentile one p))
           targets)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "resumes";
  Metrics.incr m ~by:3 "resumes";
  Alcotest.(check int) "counter" 4 (Metrics.counter m "resumes");
  Alcotest.(check int) "unknown" 0 (Metrics.counter m "nope");
  Alcotest.(check (list (pair string int)))
    "listing" [ ("resumes", 4) ] (Metrics.counters m)

(* The engine must fire callbacks in timestamp order with FIFO ties,
   even when callbacks schedule further events. *)
let prop_engine_fires_in_order =
  QCheck2.Test.make ~name:"engine fires in order under nested scheduling"
    ~count:200
    QCheck2.Gen.(list_size (1 -- 40) (pair (0 -- 10_000) (0 -- 500)))
    (fun script ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iteri
        (fun i (base, extra) ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns base) (fun t ->
                 fired := (Time.to_ns (Engine.now t), 2 * i) :: !fired;
                 (* nested event strictly later or equal *)
                 ignore
                   (Engine.schedule t ~after:(Time.span_ns extra) (fun t ->
                        fired :=
                          (Time.to_ns (Engine.now t), (2 * i) + 1) :: !fired)))))
        script;
      Engine.run e;
      let trace = List.rev !fired in
      (* timestamps non-decreasing *)
      let rec monotone = function
        | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && monotone rest
        | [ _ ] | [] -> true
      in
      monotone trace && List.length trace = 2 * List.length script)

let prop_engine_clock_matches_event_time =
  QCheck2.Test.make ~name:"engine clock equals the firing event's timestamp"
    ~count:100
    QCheck2.Gen.(list_size (1 -- 30) (0 -- 100_000))
    (fun delays ->
      let e = Engine.create () in
      let ok = ref true in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns d) (fun t ->
                 if Time.to_ns (Engine.now t) <> d then ok := false)))
        delays;
      Engine.run e;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_sorts;
      prop_percentile_matches_sorted;
      prop_quantile_merge_exact;
      prop_engine_fires_in_order;
      prop_engine_clock_matches_event_time;
    ]

let () =
  Alcotest.run "horse_sim"
    [
      ( "time",
        [
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "conversions" `Quick test_time_conversions;
          Alcotest.test_case "span ops" `Quick test_span_ops;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pareto shape" `Quick test_rng_pareto_shape;
          Alcotest.test_case "lognormal median" `Quick test_rng_lognormal_median;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "derive streams" `Quick test_rng_derive_streams;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "peek/pop" `Quick test_heap_peek_pop;
          Alcotest.test_case "grows" `Quick test_heap_grows;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_eq_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_eq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eq_cancel;
          Alcotest.test_case "next_time" `Quick test_eq_next_time;
          Alcotest.test_case "pop_until" `Quick test_eq_pop_until;
          Alcotest.test_case "ring/heap FIFO boundary" `Quick
            test_eq_ring_heap_fifo_boundary;
          Alcotest.test_case "handle reuse" `Quick test_eq_handle_reuse;
          Alcotest.test_case "matches boxed reference (harness scripts)"
            `Quick test_eq_matches_reference;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "rejects past" `Quick
            test_engine_past_schedule_rejected;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "re-entrant run rejected" `Quick
            test_engine_reentrant_run_rejected;
        ] );
      ( "stats",
        [
          Alcotest.test_case "online" `Quick test_online_stats;
          Alcotest.test_case "online empty" `Quick test_online_empty;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "interleaved reads" `Quick
            test_sample_interleaved_reads;
          Alcotest.test_case "quantile small exact" `Quick
            test_quantile_small_exact;
          Alcotest.test_case "quantile rejects" `Quick test_quantile_rejects;
          Alcotest.test_case "quantile vs sample: uniform (harness)" `Quick
            test_quantile_uniform;
          Alcotest.test_case "quantile vs sample: exponential (harness)"
            `Quick test_quantile_exponential;
          Alcotest.test_case "quantile vs sample: bimodal (harness)" `Quick
            test_quantile_bimodal;
          Alcotest.test_case "quantile vs sample: bursty two-mode (harness)"
            `Quick test_quantile_bursty_two_mode;
          Alcotest.test_case "quantile adversarial streams" `Quick
            test_quantile_adversarial;
          Alcotest.test_case "quantile queries are pure" `Quick
            test_quantile_queries_pure;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
        ] );
      ("properties", props);
    ]
