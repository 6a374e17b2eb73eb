(* Wall-clock probes for the traced rep, recorded from outside the
   simulator around the calls the benchmark makes into each layer.

   Spans live in fixed-capacity struct-of-arrays logs, so recording one
   allocates nothing; a log that fills up counts the spans it drops.
   Per-call probes accumulate every call (count and nanoseconds) but
   keep only every [sample_every]-th call as a span. *)

module Json = Horse_vmm.Json
module Policy = Horse_faas.Cluster.Policy

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sample_every = 64

type log = {
  tid : int;
  names : string array;
  starts : int array;
  stops : int array;
  mutable len : int;
  mutable dropped : int;
}

let log ~tid ~capacity =
  {
    tid;
    names = Array.make capacity "";
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    len = 0;
    dropped = 0;
  }

let add log name ~start ~stop =
  if log.len = Array.length log.names then log.dropped <- log.dropped + 1
  else begin
    log.names.(log.len) <- name;
    log.starts.(log.len) <- start;
    log.stops.(log.len) <- stop;
    log.len <- log.len + 1
  end

(* Calls and nanoseconds spent in one probed entry point. *)
type acc = { mutable calls : int; mutable ns : int }

let acc () = { calls = 0; ns = 0 }

(* One traced rep: the phase log (setup phases, run, aggregation) on
   tid 0, and one per-call log per probed policy instance or VMM, whose
   spans all have the run span as their parent. *)
type t = {
  phases : log;
  mutable run_span : int;  (** index of the run span in [phases] *)
  mutable call_logs : log list;
}

let create () =
  { phases = log ~tid:0 ~capacity:16; run_span = -1; call_logs = [] }

let call_log t =
  let l = log ~tid:(List.length t.call_logs + 1) ~capacity:8192 in
  t.call_logs <- l :: t.call_logs;
  l

(* [timed acc log name f] runs [f] and charges it to [acc]; every
   [sample_every]-th call is also a span in [log]. *)
let timed acc log name f =
  let t0 = now_ns () in
  let v = f () in
  let t1 = now_ns () in
  acc.calls <- acc.calls + 1;
  acc.ns <- acc.ns + (t1 - t0);
  if acc.calls mod sample_every = 0 then add log name ~start:t0 ~stop:t1;
  v

(* The router layer as the traced rep sees it: a pass-through policy
   timing every [decide] and every routing hook of each instance. *)
type router = { decide : acc; hooks : acc; mutable enqueues : int }

let traced_policy t p =
  let routers = ref [] in
  let policy =
    Policy.v ~name:(Policy.name p) (fun ~servers ->
        let inst = Policy.instantiate p ~servers in
        let r = { decide = acc (); hooks = acc (); enqueues = 0 } in
        routers := r :: !routers;
        let log = call_log t in
        let hook name f = timed r.hooks log name f in
        {
          inst with
          Policy.decide =
            (fun view ~vcpus ~needs_pool ->
              let d =
                timed r.decide log "router.decide" (fun () ->
                    inst.Policy.decide view ~vcpus ~needs_pool)
              in
              if d = Policy.Enqueue then r.enqueues <- r.enqueues + 1;
              d);
          on_completion =
            (fun view ~server ->
              hook "router.on_completion" (fun () ->
                  inst.Policy.on_completion view ~server));
          on_rejection =
            (fun view ~server ->
              hook "router.on_rejection" (fun () ->
                  inst.Policy.on_rejection view ~server));
          on_health_change =
            (fun view ~server ~up ->
              hook "router.on_health_change" (fun () ->
                  inst.Policy.on_health_change view ~server ~up));
        })
  in
  (policy, routers)

let dropped t =
  List.fold_left (fun n l -> n + l.dropped) t.phases.dropped t.call_logs

(* Chrome trace-event JSON (open in Perfetto or chrome://tracing):
   complete ("X") events in microseconds from the first span. *)
let to_chrome t =
  let logs = t.phases :: List.rev t.call_logs in
  let origin =
    List.fold_left
      (fun m l -> if l.len > 0 then min m l.starts.(0) else m)
      max_int logs
  in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let id tid i = Json.String (Printf.sprintf "%d.%d" tid i) in
  let event l i =
    Json.Object
      [
        ("name", Json.String l.names.(i));
        ("ph", Json.String "X");
        ("ts", us (l.starts.(i) - origin));
        ("dur", us (l.stops.(i) - l.starts.(i)));
        ("pid", Json.Int 1);
        ("tid", Json.Int l.tid);
        ( "args",
          Json.Object
            [
              ("id", id l.tid i);
              ("parent", if l.tid = 0 then Json.Null else id 0 t.run_span);
            ] );
      ]
  in
  Json.Object
    [
      ( "traceEvents",
        Json.List (List.concat_map (fun l -> List.init l.len (event l)) logs) );
      ("displayTimeUnit", Json.String "ns");
    ]
