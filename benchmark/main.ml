(* The simulator's benchmark: four canonical workloads, host throughput,
   exact virtual tails and a per-layer trace.  See README.md.

   Usage:
     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload: untraced reps for S seconds, at least one per
         input (and with --trace 1 the traced and parallel reps); the
         last line of output is the JSON result
     main.exe [--seed N] [--json FILE]
         every workload: interleaved rounds of untraced reps, then per
         workload the traced and parallel reps; prints both metric
         tables
     main.exe --quick
         every workload at 1/50 size, in process, correctness gates only

   Reps run on one strand, where run time is steadiest and allocation
   counts are exact.  A workload that can spread over strands also gets
   a parallel rep, which must reproduce the same simulation and gives
   the barrier metrics.  Every rep runs in a fresh child process (this
   executable with --pass timed|traced|parallel), so heap and GC state
   never leak from one rep into the next, and the peak heap belongs to
   that rep alone. *)

module Json = Horse_vmm.Json

(* Metric names and units, as BENCHMARK.json declares them. *)
let end_to_end =
  [
    ("ops_per_s", "op/s");
    ("setup_s", "s");
    ("words_per_op", "words");
    ("peak_heap_mb", "MiB");
    ("sim_p999_us", "us");
  ]

let per_layer =
  [
    ("sim_p50_us", "us");
    ("sim_p99_us", "us");
    ("setup.create_s", "s");
    ("setup.provision_s", "s");
    ("setup.batch_s", "s");
    ("setup.schedule_s", "s");
    ("router.decide_calls", "count");
    ("router.decide_ns", "ns");
    ("router.hook_calls", "count");
    ("router.hook_ns", "ns");
    ("router.enqueue_frac", "ratio");
    ("router.share", "ratio");
    ("cluster.spills", "count");
    ("cluster.rejections", "count");
    ("cluster.pending_end", "count");
    ("failed_frac", "ratio");
    ("shard.epochs", "count");
    ("shard.rounds", "count");
    ("shard.fast_forwards", "count");
    ("shard.messages_per_op", "count");
    ("shard.rounds_per_op", "count");
    ("shard.events_per_op", "count");
    ("shard.imbalance", "ratio");
    ("team.barrier_wait_s", "s");
    ("team.barrier_share", "ratio");
    ("team.strand_speedup", "ratio");
    ("engine.events_per_op", "count");
    ("engine.ns_per_event", "ns");
    ("platform.completions", "count");
    ("platform.fallbacks", "count");
    ("platform.retries", "count");
    ("platform.non_warm_frac", "ratio");
    ("vmm.resume_ns", "ns");
    ("vmm.pause_ns", "ns");
    ("vmm.resumes_per_op", "count");
    ("psm.maintenance_per_op", "count");
    ("workflow.instances_completed", "count");
    ("workflow.instances_failed", "count");
    ("workflow.nodes_per_instance", "count");
    ("workflow.oracle_mismatches", "count");
    ("stats.aggregate_s", "s");
    ("stats.p2_err_p99", "ratio");
    ("stats.p2_err_p999", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words");
    ("run.unattributed_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

(* Per-layer metrics read from an untraced one-strand rep, where the
   probes' own allocation is absent, and from the parallel rep. *)
let untraced_metrics =
  [ "gc.minor_collections"; "gc.major_collections"; "gc.promoted_words_per_op" ]

let parallel_metrics = [ "team.barrier_wait_s"; "team.barrier_share" ]

let rounds = 7

(* A run measures a workload on this many inputs drawn from its seed,
   cycling through them rep by rep: how much work an op costs moves
   with the input ([storm]'s P²SM upkeep per trigger by up to a
   factor of two), and the median over inputs moves far less.  Input
   0 is the seed itself. *)
let inputs = 5

let input_seed seed k = seed + (k * 1_000_003)

(* Reps [k], [k + inputs], ... of a run measure input [k]. *)
let reps_of_input k reps = List.filteri (fun i _ -> i mod inputs = k) reps

let value (r : Workloads.rep) name =
  match List.assoc_opt name r.values with Some v -> v | None -> 0.0

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Child reps                                                          *)
(* ------------------------------------------------------------------ *)

type pass = Timed | Traced | Parallel

let pass_name = function
  | Timed -> "timed"
  | Traced -> "traced"
  | Parallel -> "parallel"

let pass_of_name = function
  | "timed" -> Timed
  | "traced" -> Traced
  | "parallel" -> Parallel
  | s -> die "unknown pass %S" s

let write_trace (w : Workloads.t) probe =
  let dir = Filename.concat "_build" "benchmark" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; dir ];
  Out_channel.with_open_bin
    (Filename.concat dir (w.name ^ ".trace.json"))
    (fun oc -> output_string oc (Json.to_string (Probe.to_chrome probe)));
  if Probe.dropped probe > 0 then
    Printf.eprintf "%s: trace dropped %d spans\n" w.name (Probe.dropped probe)

let rep_to_json (r : Workloads.rep) =
  Json.Object
    [
      ("digest", Json.String r.digest);
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) r.violations) );
      ( "values",
        Json.Object (List.map (fun (k, v) -> (k, Json.Float v)) r.values) );
    ]

let rep_of_json j : Workloads.rep =
  let field name = Option.value (Json.member name j) ~default:Json.Null in
  let number = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> nan
  in
  {
    digest = Option.value (Json.to_str (field "digest")) ~default:"";
    values =
      (match field "values" with
      | Json.Object kvs -> List.map (fun (k, v) -> (k, number v)) kvs
      | _ -> []);
    violations =
      (match field "violations" with
      | Json.List vs -> List.filter_map Json.to_str vs
      | _ -> [ "child printed no violations list" ]);
    probe = None;
  }

(* The child side: one rep, its peak heap, one JSON line on stdout. *)
let child w ~seed ~pass =
  let r =
    Workloads.rep w ~seed ~scale:1
      ~shards:(if pass = Parallel then w.Workloads.strands else 1)
      ~traced:(pass = Traced) ()
  in
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let peak = float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.0 in
  Option.iter (write_trace w) r.probe;
  let values = r.values @ [ ("peak_heap_mb", peak) ] in
  print_endline (Json.to_string (rep_to_json { r with values }))

(* The parent side: run one rep in a fresh process with an 8M-word
   minor heap and wait for it. *)
let spawn (w : Workloads.t) ~seed ~pass =
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
    |> List.cons "OCAMLRUNPARAM=s=8M" |> Array.of_list
  in
  let args =
    [|
      Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
      "--pass"; pass_name pass;
    |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env Sys.executable_name args env Unix.stdin out_w
      Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let output = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "%s: %s rep failed" w.name (pass_name pass));
  match Json.parse (String.trim output) with
  | j -> rep_of_json j
  | exception Json.Parse_error _ ->
    die "%s: unreadable rep output %S" w.name output

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

(* (q1, median, q3), the quartiles as Python's
   [statistics.quantiles(values, n=4)] computes them. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    let median =
      if n mod 2 = 1 then a.(n / 2)
      else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    (q 1, median, q 3)

type result = {
  workload : Workloads.t;
  timed : Workloads.rep list;
  traced : Workloads.rep option;
  parallel : Workloads.rep option;
}

(* The traced rep, and the parallel one where the workload has more
   than one strand; both measure input 0. *)
let extra_reps (w : Workloads.t) ~seed =
  let traced = spawn w ~seed ~pass:Traced in
  if w.strands > 1 then (Some traced, Some (spawn w ~seed ~pass:Parallel))
  else (Some traced, None)

(* Median run time of the untraced reps of input 0. *)
let median_run_s r =
  let runs = List.map (fun s -> value s "run_s") (reps_of_input 0 r.timed) in
  let _, m, _ = quartiles runs in
  m

(* name -> (q1, median, q3).  Wall-clock metrics are taken over every
   timed rep; the others repeat exactly in every rep of an input, so
   they are taken over one rep per input. *)
let end_to_end_of r =
  let first_per_input = List.filteri (fun i _ -> i < inputs) r.timed in
  List.map
    (fun (name, _) ->
      let q =
        match name with
        | "ops_per_s" ->
          quartiles
            (List.map (fun s -> value s "ops" /. value s "run_s") r.timed)
        | "setup_s" -> quartiles (List.map (fun s -> value s name) r.timed)
        | _ -> quartiles (List.map (fun s -> value s name) first_per_input)
      in
      (name, q))
    end_to_end

let per_layer_of r =
  match r.traced with
  | None -> []
  | Some t ->
    let run = median_run_s r in
    let rep_for name =
      match r.parallel with
      | Some p when List.mem name parallel_metrics -> p
      | _ -> if List.mem name untraced_metrics then List.hd r.timed else t
    in
    List.map
      (fun (name, _) ->
        let v =
          match (name, r.parallel) with
          | "trace.overhead_pct", _ ->
            100.0 *. ((value t "run_s" /. run) -. 1.0)
          | "team.strand_speedup", Some p -> run /. value p "run_s"
          | _ -> value (rep_for name) name
        in
        (name, v))
      per_layer

let all_reps r = r.timed @ Option.to_list r.traced @ Option.to_list r.parallel

(* Every rep of an input must be the same simulation, and no rep may
   break an invariant. *)
let problems r =
  let differs (reps : Workloads.rep list) =
    let digest = (List.hd reps).digest in
    List.filter_map
      (fun (s : Workloads.rep) ->
        if s.digest = digest then None
        else
          Some (Printf.sprintf "digest differs:\n  %s\n  %s" digest s.digest))
      reps
  in
  let extra = Option.to_list r.traced @ Option.to_list r.parallel in
  List.concat_map (fun (s : Workloads.rep) -> s.violations) (all_reps r)
  @ List.concat
      (List.init inputs (fun k ->
           match reps_of_input k r.timed with
           | [] -> []
           | reps -> differs (if k = 0 then reps @ extra else reps)))

let report_problems results =
  let bad =
    List.concat_map
      (fun r -> List.map (fun p -> (r.workload.name, p)) (problems r))
      results
  in
  List.iter (fun (w, p) -> Printf.eprintf "%s: %s\n" w p) bad;
  bad = []

let fmt v =
  if v = 0.0 then "0"
  else if Float.abs v >= 1e5 || Float.abs v < 1e-3 then Printf.sprintf "%.4g" v
  else Printf.sprintf "%.4f" v

let print_table r =
  Printf.printf "\n== %s: %d timed reps over %d inputs, input 0 digest %s\n"
    r.workload.name (List.length r.timed) inputs
    (Digest.to_hex (Digest.string (List.hd r.timed).digest));
  let row name unit cells =
    Printf.printf "%-28s %-6s %s\n" name unit
      (String.concat " " (List.map (Printf.sprintf "%14s") cells))
  in
  row "end-to-end" "unit" [ "q1"; "median"; "q3" ];
  List.iter2
    (fun (name, (q1, m, q3)) (_, unit) ->
      row name unit [ fmt q1; fmt m; fmt q3 ])
    (end_to_end_of r) end_to_end;
  Option.iter
    (fun p ->
      Printf.printf "run phase: median %.3f s on one strand, %.3f s on %d\n"
        (median_run_s r) (value p "run_s") r.workload.strands)
    r.parallel;
  if r.traced <> None then begin
    row "per-layer (traced rep)" "unit" [ "value" ];
    List.iter2
      (fun (name, v) (_, unit) -> row name unit [ fmt v ])
      (per_layer_of r) per_layer
  end

(* ------------------------------------------------------------------ *)
(* Modes                                                               *)
(* ------------------------------------------------------------------ *)

(* One workload for [seconds] of timed reps.  The last line of output
   is the JSON result. *)
let single w ~seed ~seconds ~trace =
  let t0 = Unix.gettimeofday () in
  let rec loop n acc =
    if n >= inputs && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else
      let rep = spawn w ~seed:(input_seed seed (n mod inputs)) ~pass:Timed in
      loop (n + 1) (rep :: acc)
  in
  let timed = loop 0 [] in
  let traced, parallel = if trace then extra_reps w ~seed else (None, None) in
  let r = { workload = w; timed; traced; parallel } in
  print_table r;
  let correct = report_problems [ r ] in
  let total name =
    List.fold_left (fun n s -> n + int_of_float (value s name)) 0 (all_reps r)
  in
  let metric (name, v) (_, unit) =
    (name, Json.Object [ ("value", Json.Float v); ("unit", Json.String unit) ])
  in
  let metrics =
    if trace then List.map2 metric (per_layer_of r) per_layer
    else
      List.map2
        (fun (name, (_, m, _)) -> metric (name, m))
        (end_to_end_of r) end_to_end
  in
  print_endline
    (Json.to_string
       (Json.Object
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (total "attempted"));
            ("failed", Json.Int (total "failed"));
            ("metrics", Json.Object metrics);
          ]));
  if not correct then exit 1

let result_json r =
  let quartile_json (name, (q1, m, q3)) =
    ( name,
      Json.Object
        [
          ("unit", Json.String (List.assoc name end_to_end));
          ("q1", Json.Float q1);
          ("median", Json.Float m);
          ("q3", Json.Float q3);
        ] )
  in
  Json.Object
    [
      ("digest", Json.String (List.hd r.timed).digest);
      ("timed_reps", Json.Int (List.length r.timed));
      ("end_to_end", Json.Object (List.map quartile_json (end_to_end_of r)));
      ( "per_layer",
        Json.Object
          (List.map (fun (name, v) -> (name, Json.Float v)) (per_layer_of r))
      );
    ]

(* Every workload, interleaved: host speed drifts, and cycling the
   workloads spreads the drift over all of them instead of letting it
   land on one. *)
let full ~seed ~json =
  let t0 = Unix.gettimeofday () in
  let rounds =
    List.init rounds (fun i ->
        let seed = input_seed seed (i mod inputs) in
        List.map (fun w -> spawn w ~seed ~pass:Timed) Workloads.all)
  in
  let results =
    List.mapi
      (fun i (w : Workloads.t) ->
        let timed = List.map (fun round -> List.nth round i) rounds in
        let traced, parallel = extra_reps w ~seed in
        { workload = w; timed; traced; parallel })
      Workloads.all
  in
  List.iter print_table results;
  let correct = report_problems results in
  let wall = Unix.gettimeofday () -. t0 in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "\nseed %d, %d rounds, %d host cores, %.1f s, %s\n" seed
    (List.length rounds) cores wall
    (if correct then "all checks passed" else "CHECKS FAILED");
  Option.iter
    (fun path ->
      let workloads =
        List.map (fun r -> (r.workload.name, result_json r)) results
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Object
                  [
                    ("seed", Json.Int seed);
                    ("rounds", Json.Int (List.length rounds));
                    ("host_cores", Json.Int cores);
                    ("wall_s", Json.Float wall);
                    ("correct", Json.Bool correct);
                    ("workloads", Json.Object workloads);
                  ]));
          output_char oc '\n'))
    json;
  if not correct then exit 1

(* The smoke test: every workload at 1/50 size in this process — an
   untraced, a traced and where it applies a parallel rep — with every
   gate and no timing. *)
let quick () =
  let results =
    List.map
      (fun (w : Workloads.t) ->
        let run ?shards traced =
          Workloads.rep w ~seed:42 ~scale:50 ?shards ~traced ()
        in
        let parallel =
          if w.strands > 1 then Some (run ~shards:w.strands false) else None
        in
        let traced = Some (run true) in
        { workload = w; timed = [ run false ]; traced; parallel })
      Workloads.all
  in
  if not (report_problems results) then exit 1;
  List.iter
    (fun r ->
      Printf.printf "%s: ok (%s)\n" r.workload.name (List.hd r.timed).digest)
    results

let usage =
  "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
  \       main.exe [--seed N] [--json FILE]\n\
  \       main.exe --quick"

let () =
  let workload = ref None and seed = ref 42 and seconds = ref None in
  let trace = ref false and json = ref None and pass = ref None in
  let quick_mode = ref false in
  let int_arg name s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> die "%s: not an integer: %S\n%s" name s usage
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick_mode := true; parse rest
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--seconds" :: n :: rest ->
      seconds := Some (int_arg "--seconds" n); parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--pass" :: p :: rest -> pass := Some (pass_of_name p); parse rest
    | arg :: _ -> die "unknown argument %S\n%s" arg usage
  in
  parse (List.tl (Array.to_list Sys.argv));
  let find name =
    match Workloads.find name with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", "
           (List.map (fun (w : Workloads.t) -> w.name) Workloads.all))
  in
  match (!quick_mode, !pass, !workload) with
  | true, _, _ -> quick ()
  | false, Some pass, Some w -> child (find w) ~seed:!seed ~pass
  | false, None, Some w ->
    let seconds =
      match !seconds with
      | Some s when s > 0 -> float_of_int s
      | _ -> die "--seconds N (N > 0) is required\n%s" usage
    in
    single (find w) ~seed:!seed ~seconds ~trace:!trace
  | false, _, None -> full ~seed:!seed ~json:!json
