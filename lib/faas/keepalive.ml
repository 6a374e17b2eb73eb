module Time = Horse_sim.Time_ns

type policy =
  | Fixed of Time.span
  | Histogram of { percentile : float; cap : Time.span }

let policy_name = function
  | Fixed span -> Printf.sprintf "fixed-%dms" (Time.span_to_ns span / 1_000_000)
  | Histogram { percentile; _ } -> Printf.sprintf "histogram-p%g" percentile

(* Minute-granularity buckets as in Shahrad et al.: gaps up to 4 hours
   tracked exactly, longer ones lumped into the overflow bucket. *)
let bucket_minutes = 240

type t = {
  policy : policy;
  buckets : int array;  (* index = gap in whole minutes, clamped *)
  mutable last_arrival : Time.t option;
}

let create policy =
  (match policy with
  | Histogram { percentile; _ } ->
    if percentile <= 0.0 || percentile > 100.0 then
      invalid_arg "Keepalive.create: percentile outside (0, 100]"
  | Fixed _ -> ());
  {
    policy;
    buckets = Array.make (bucket_minutes + 1) 0;
    last_arrival = None;
  }

let minute_of_span span = Time.span_to_ns span / 60_000_000_000

let note_arrival t ~at =
  (match t.last_arrival with
  | Some last ->
    if Time.(at < last) then
      invalid_arg "Keepalive.note_arrival: clock went backwards";
    let gap = Time.diff at last in
    let bucket = min bucket_minutes (minute_of_span gap) in
    t.buckets.(bucket) <- t.buckets.(bucket) + 1
  | None -> ());
  t.last_arrival <- Some at

let histogram_recommendation t ~percentile ~cap =
  let gaps = Array.fold_left ( + ) 0 t.buckets in
  if gaps = 0 then cap
  else begin
    let target =
      int_of_float (Float.ceil (percentile /. 100.0 *. float_of_int gaps))
    in
    let rec scan bucket seen =
      if bucket > bucket_minutes then bucket_minutes
      else begin
        let seen = seen + t.buckets.(bucket) in
        if seen >= target then bucket else scan (bucket + 1) seen
      end
    in
    let minutes = scan 0 0 in
    (* keep alive through the end of the covering minute bucket *)
    let span = Time.span_s (float_of_int ((minutes + 1) * 60)) in
    if Time.compare_span span cap > 0 then cap else span
  end

let recommendation t =
  match t.policy with
  | Fixed span -> span
  | Histogram { percentile; cap } -> histogram_recommendation t ~percentile ~cap

type evaluation = {
  invocations : int;
  warm_hits : int;
  cold_starts : int;
  warm_pool_span : Time.span;
}

let warm_hit_rate e =
  if e.invocations = 0 then 0.0
  else float_of_int e.warm_hits /. float_of_int e.invocations

let evaluate policy ~arrivals =
  let rec check = function
    | a :: (b :: _ as rest) ->
      if Time.compare_span a b > 0 then
        invalid_arg "Keepalive.evaluate: arrivals not sorted";
      check rest
    | [ _ ] | [] -> ()
  in
  check arrivals;
  let t = create policy in
  let state =
    List.fold_left
      (fun (prev, warm_hits, cold_starts, pool_ns) offset ->
        let at = Time.add Time.zero offset in
        (* the recommendation in force is the one computed from the
           history *before* this arrival *)
        let window = recommendation t in
        let outcome =
          match prev with
          | None -> `Cold
          | Some last ->
            let gap = Time.diff at last in
            if Time.compare_span gap window <= 0 then `Warm gap else `Cold
        in
        (* warm-pool time paid after the previous invocation: the idle
           span until reuse, or the full window on expiry *)
        let paid_ns =
          match (prev, outcome) with
          | None, _ -> 0
          | Some _, `Warm gap -> Time.span_to_ns gap
          | Some _, `Cold -> Time.span_to_ns window
        in
        note_arrival t ~at;
        match outcome with
        | `Warm _ -> (Some at, warm_hits + 1, cold_starts, pool_ns + paid_ns)
        | `Cold -> (Some at, warm_hits, cold_starts + 1, pool_ns + paid_ns))
      (None, 0, 0, 0) arrivals
  in
  let prev, warm_hits, cold_starts, pool_ns = state in
  (* the final instance idles through one last window *)
  let pool_ns =
    match prev with
    | None -> pool_ns
    | Some _ -> pool_ns + Time.span_to_ns (recommendation t)
  in
  {
    invocations = List.length arrivals;
    warm_hits;
    cold_starts;
    warm_pool_span = Time.span_ns pool_ns;
  }
