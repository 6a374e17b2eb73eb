(* Tests for horse_trace: the Azure dataset schema, the synthetic
   generator's statistical shape and the arrival samplers. *)

module Azure = Horse_trace.Azure
module Synthetic = Horse_trace.Synthetic
module Arrivals = Horse_trace.Arrivals
module Rng = Horse_sim.Rng
module Time = Horse_sim.Time_ns

let flat_counts value = Array.make Azure.minutes_per_day value

let sample_row ?(counts = flat_counts 0) () =
  Azure.make_row ~owner:"o1" ~app:"a1" ~func:"f1" ~trigger:Azure.Http ~counts

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_row_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Azure.make_row: counts must have 1440 entries")
    (fun () ->
      ignore
        (Azure.make_row ~owner:"o" ~app:"a" ~func:"f" ~trigger:Azure.Http
           ~counts:[| 1; 2 |]));
  let negative = flat_counts 0 in
  negative.(7) <- -1;
  Alcotest.check_raises "negative count"
    (Invalid_argument "Azure.make_row: negative count") (fun () ->
      ignore
        (Azure.make_row ~owner:"o" ~app:"a" ~func:"f" ~trigger:Azure.Http
           ~counts:negative))

let test_line_roundtrip () =
  let counts = flat_counts 0 in
  counts.(0) <- 3;
  counts.(719) <- 42;
  counts.(1439) <- 1;
  let row = sample_row ~counts () in
  let parsed = Azure.parse_line (Azure.to_line row) in
  Alcotest.(check string) "owner" row.Azure.owner parsed.Azure.owner;
  Alcotest.(check string) "func" row.Azure.func parsed.Azure.func;
  Alcotest.(check bool) "trigger" true (parsed.Azure.trigger = Azure.Http);
  Alcotest.(check (array int)) "counts" row.Azure.counts parsed.Azure.counts

let test_parse_rejects_garbage () =
  List.iter
    (fun line ->
      match Azure.parse_line line with
      | _ -> Alcotest.failf "accepted %S" (String.sub line 0 (min 30 (String.length line)))
      | exception Invalid_argument _ -> ())
    [
      "a,b,c";
      "a,b,c,http,1,2,3";
      "a,b,c,http," ^ String.concat "," (List.init 1440 (fun _ -> "x"));
    ]

let test_parse_string_skips_header () =
  let row = sample_row () in
  let contents = Azure.header_line ^ "\n" ^ Azure.to_line row ^ "\n\n" in
  let rows = Azure.parse_string contents in
  Alcotest.(check int) "one row" 1 (List.length rows)

let test_load_file () =
  let row = sample_row () in
  let path = Filename.temp_file "horse_trace" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Azure.header_line ^ "\n" ^ Azure.to_line row ^ "\n");
      close_out oc;
      let rows = Azure.load_file path in
      Alcotest.(check int) "one row" 1 (List.length rows);
      Alcotest.(check string) "func" "f1" (List.hd rows).Azure.func)

let test_trigger_names () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Azure.trigger_to_string t)
        true
        (Azure.trigger_of_string (Azure.trigger_to_string t) = t))
    [ Azure.Http; Azure.Queue; Azure.Timer; Azure.Event; Azure.Storage;
      Azure.Orchestration; Azure.Others ];
  Alcotest.(check bool) "unknown maps to others" true
    (Azure.trigger_of_string "weird" = Azure.Others)

(* ------------------------------------------------------------------ *)
(* Synthetic generator                                                 *)
(* ------------------------------------------------------------------ *)

let test_generate_rows_shape () =
  let rows = Synthetic.generate_rows ~seed:1 ~functions:200 in
  Alcotest.(check int) "200 rows" 200 (List.length rows);
  let totals =
    List.map Azure.total_invocations rows |> List.sort Int.compare
  in
  let sum = List.fold_left ( + ) 0 totals in
  (* heavy tail: the top 10% of functions carry most invocations *)
  let top = List.filteri (fun i _ -> i >= 180) totals in
  let top_sum = List.fold_left ( + ) 0 top in
  Alcotest.(check bool) "positive mass" true (sum > 0);
  Alcotest.(check bool)
    (Printf.sprintf "skewed popularity (top decile %d of %d)" top_sum sum)
    true
    (float_of_int top_sum > 0.5 *. float_of_int sum)

let test_generate_row_rate () =
  let rng = Rng.create ~seed:2 in
  let row = Synthetic.generate_row ~rng ~id:0 ~mean_rate_per_min:10.0 in
  let mean =
    float_of_int (Azure.total_invocations row)
    /. float_of_int Azure.minutes_per_day
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f near 10" mean)
    true
    (mean > 8.0 && mean < 12.0)

let test_generate_row_zero_rate () =
  let rng = Rng.create ~seed:3 in
  let row = Synthetic.generate_row ~rng ~id:0 ~mean_rate_per_min:0.0 in
  Alcotest.(check int) "no invocations" 0 (Azure.total_invocations row)

let test_generate_deterministic () =
  let a = Synthetic.generate_rows ~seed:7 ~functions:5 in
  let b = Synthetic.generate_rows ~seed:7 ~functions:5 in
  List.iter2
    (fun ra rb ->
      Alcotest.(check (array int)) "same counts" ra.Azure.counts rb.Azure.counts)
    a b

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)
(* ------------------------------------------------------------------ *)

let test_of_row_counts_and_order () =
  let counts = flat_counts 0 in
  counts.(3) <- 5;
  counts.(100) <- 2;
  let row = sample_row ~counts () in
  let rng = Rng.create ~seed:4 in
  let arrivals = Arrivals.of_row ~rng row in
  Alcotest.(check int) "7 arrivals" 7 (List.length arrivals);
  let ns = List.map Time.span_to_ns arrivals in
  Alcotest.(check (list int)) "sorted" (List.sort Int.compare ns) ns;
  List.iteri
    (fun i v ->
      let minute = v / 60_000_000_000 in
      Alcotest.(check bool)
        (Printf.sprintf "arrival %d in declared minute" i)
        true
        (minute = 3 || minute = 100))
    ns

let test_chunk_window () =
  let counts = flat_counts 1 in
  let row = sample_row ~counts () in
  let rng = Rng.create ~seed:5 in
  let duration = Time.span_s 30.0 in
  let arrivals = Arrivals.chunk ~rng row ~start_minute:720 ~duration in
  List.iter
    (fun a ->
      Alcotest.(check bool) "inside window" true
        (Time.span_to_ns a >= 0 && Time.span_to_ns a < Time.span_to_ns duration))
    arrivals;
  (* one invocation per minute, 30s window -> 0 or 1 arrivals *)
  Alcotest.(check bool) "at most 1" true (List.length arrivals <= 1)

let test_chunk_rejects_out_of_day () =
  let row = sample_row () in
  let rng = Rng.create ~seed:6 in
  Alcotest.check_raises "window outside"
    (Invalid_argument "Arrivals.chunk: window outside the day") (fun () ->
      ignore
        (Arrivals.chunk ~rng row ~start_minute:1439 ~duration:(Time.span_s 120.0)))

let test_poisson_process_rate () =
  let rng = Rng.create ~seed:7 in
  let arrivals =
    Arrivals.poisson_process ~rng ~rate_per_s:100.0 ~duration:(Time.span_s 50.0)
  in
  let n = List.length arrivals in
  Alcotest.(check bool)
    (Printf.sprintf "%d arrivals near 5000" n)
    true
    (n > 4500 && n < 5500)

let test_periodic () =
  let arrivals =
    Arrivals.periodic ~every:(Time.span_ms 100.0) ~duration:(Time.span_s 1.0)
  in
  Alcotest.(check int) "10 ticks" 10 (List.length arrivals);
  Alcotest.(check int) "first at 0" 0 (Time.span_to_ns (List.hd arrivals));
  Alcotest.check_raises "zero period"
    (Invalid_argument "Arrivals.periodic: zero period") (fun () ->
      ignore (Arrivals.periodic ~every:Time.span_zero ~duration:(Time.span_s 1.0)))

(* ------------------------------------------------------------------ *)
(* Batch: flat trigger traces                                          *)
(* ------------------------------------------------------------------ *)

module Batch = Horse_trace.Batch

let batch_seeds = [ 1; 42; 1337 ]

(* [bursty] hands its output straight to the windowed batch cursor,
   which requires non-decreasing arrival times — the clumped offsets
   must come out time-sorted for every seed, with the declared row
   count and every arrival inside the horizon. *)
let test_bursty_sorted () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 5_000 in
      let duration = Time.span_ms 50.0 in
      let batch = Batch.bursty ~rng ~n ~duration ~fn_id:3 ~payload:7 () in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: row count" seed)
        n (Batch.length batch);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sorted" seed)
        true (Batch.sorted batch);
      let horizon = Time.span_to_ns duration in
      for k = 0 to n - 1 do
        if k > 0 && Batch.time_ns batch k < Batch.time_ns batch (k - 1) then
          Alcotest.failf "seed %d: row %d out of order" seed k;
        let t = Batch.time_ns batch k in
        if t < 0 || t >= horizon then
          Alcotest.failf "seed %d: row %d outside horizon (%d)" seed k t
      done)
    batch_seeds

(* [stamp_payloads] rewrites the payload column in place by row index
   and must leave the time and fn-id columns — and hence row order —
   untouched. *)
let test_stamp_payloads_preserves_order () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2_000 in
      let batch =
        Batch.bursty ~rng ~n ~duration:(Time.span_ms 20.0) ~fn_id:1
          ~payload:(-1) ()
      in
      let times = Array.init n (Batch.time_ns batch) in
      let fns = Array.init n (Batch.fn_id batch) in
      Batch.stamp_payloads batch (fun i -> (i * 31) + seed);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: length unchanged" seed)
        n (Batch.length batch);
      for k = 0 to n - 1 do
        if Batch.time_ns batch k <> times.(k) then
          Alcotest.failf "seed %d: row %d time moved" seed k;
        if Batch.fn_id batch k <> fns.(k) then
          Alcotest.failf "seed %d: row %d fn-id moved" seed k;
        if Batch.payload batch k <> (k * 31) + seed then
          Alcotest.failf "seed %d: row %d payload not stamped" seed k
      done;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: still sorted" seed)
        true (Batch.sorted batch))
    batch_seeds

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse_line (to_line row) == row" ~count:100
    QCheck2.Gen.(array_repeat 1440 (0 -- 50))
    (fun counts ->
      let row = sample_row ~counts () in
      let parsed = Azure.parse_line (Azure.to_line row) in
      parsed.Azure.counts = row.Azure.counts
      && parsed.Azure.owner = row.Azure.owner)

let prop_of_row_mass_conservation =
  QCheck2.Test.make ~name:"of_row yields exactly the declared invocations"
    ~count:100
    QCheck2.Gen.(pair (array_repeat 1440 (0 -- 3)) (0 -- 1000))
    (fun (counts, seed) ->
      let row = sample_row ~counts () in
      let rng = Rng.create ~seed in
      List.length (Arrivals.of_row ~rng row) = Azure.total_invocations row)

let () =
  Alcotest.run "horse_trace"
    [
      ( "schema",
        [
          Alcotest.test_case "validation" `Quick test_row_validation;
          Alcotest.test_case "line roundtrip" `Quick test_line_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "skips header" `Quick test_parse_string_skips_header;
          Alcotest.test_case "load file" `Quick test_load_file;
          Alcotest.test_case "trigger names" `Quick test_trigger_names;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "skewed popularity" `Quick test_generate_rows_shape;
          Alcotest.test_case "rate honoured" `Quick test_generate_row_rate;
          Alcotest.test_case "zero rate" `Quick test_generate_row_zero_rate;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "of_row" `Quick test_of_row_counts_and_order;
          Alcotest.test_case "chunk window" `Quick test_chunk_window;
          Alcotest.test_case "chunk bounds" `Quick test_chunk_rejects_out_of_day;
          Alcotest.test_case "poisson rate" `Quick test_poisson_process_rate;
          Alcotest.test_case "periodic" `Quick test_periodic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "bursty time-sorted" `Quick test_bursty_sorted;
          Alcotest.test_case "stamp_payloads preserves order" `Quick
            test_stamp_payloads_preserves_order;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_of_row_mass_conservation ] );
    ]
