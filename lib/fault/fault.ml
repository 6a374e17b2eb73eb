module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics

type trigger =
  | Pause_crash
  | Resume_crash
  | Exec_crash
  | Restore_corruption
  | Pool_expiry
  | Server_blackout
  | Vcpu_slowdown

(* Stable kebab-case name, used in metric keys
   ([fault.injected.<name>]). *)
let trigger_name = function
  | Pause_crash -> "pause-crash"
  | Resume_crash -> "resume-crash"
  | Exec_crash -> "exec-crash"
  | Restore_corruption -> "restore-corruption"
  | Pool_expiry -> "pool-expiry"
  | Server_blackout -> "server-blackout"
  | Vcpu_slowdown -> "vcpu-slowdown"

let all_triggers =
  [
    Pause_crash;
    Resume_crash;
    Exec_crash;
    Restore_corruption;
    Pool_expiry;
    Server_blackout;
    Vcpu_slowdown;
  ]

let trigger_count = List.length all_triggers

let index_of = function
  | Pause_crash -> 0
  | Resume_crash -> 1
  | Exec_crash -> 2
  | Restore_corruption -> 3
  | Pool_expiry -> 4
  | Server_blackout -> 5
  | Vcpu_slowdown -> 6

exception
  Injected of { trigger : trigger; site : string; cost : Time.span }

module Plan = struct
  type t = {
    rates : float array;  (* by [index_of] *)
    (* One private stream per trigger, derived from [root] — whether a
       hook fires depends only on how many times *its own* trigger was
       consulted, never on interleaving with other triggers. *)
    streams : Rng.t array;
    root : Rng.t;  (* never advanced: derivation key for sub-plans *)
    slowdown_factor : float;
    mutable metrics : Metrics.t option;
  }

  let build ~root ~rates ~slowdown =
    {
      rates;
      streams = Array.init trigger_count (fun i -> Rng.derive root ~index:i);
      root;
      slowdown_factor = slowdown;
      metrics = None;
    }

  let none = build ~root:(Rng.create ~seed:0) ~rates:(Array.make trigger_count 0.0) ~slowdown:1.0

  let create ?(seed = 1) ?(rates = []) ?(slowdown = 8.0) () =
    if slowdown < 1.0 then invalid_arg "Fault.Plan.create: slowdown < 1.0";
    let arr = Array.make trigger_count 0.0 in
    List.iter
      (fun (trigger, rate) ->
        if rate < 0.0 || rate > 1.0 then
          invalid_arg
            (Printf.sprintf "Fault.Plan.create: rate %g for %s outside [0, 1]"
               rate (trigger_name trigger));
        arr.(index_of trigger) <- rate)
      rates;
    build ~root:(Rng.create ~seed) ~rates:arr ~slowdown

  let uniform ?seed ?slowdown ~rate () =
    create ?seed ?slowdown
      ~rates:(List.map (fun trigger -> (trigger, rate)) all_triggers)
      ()

  let derive t ~index =
    if index < 0 then invalid_arg "Fault.Plan.derive: index < 0";
    (* offset past the per-trigger stream indices so a derived plan's
       streams never collide with the parent's *)
    build
      ~root:(Rng.derive t.root ~index:(trigger_count + index))
      ~rates:(Array.copy t.rates) ~slowdown:t.slowdown_factor

  (* Inactive plans never draw from a stream, so they need no
     metrics. *)
  let is_active t = Array.exists (fun r -> r > 0.0) t.rates

  let rate t trigger = t.rates.(index_of trigger)

  let slowdown t = t.slowdown_factor

  let attach_metrics t metrics =
    if is_active t && t.metrics = None then t.metrics <- Some metrics

  let fires t trigger =
    let i = index_of trigger in
    let r = t.rates.(i) in
    if r <= 0.0 then false
    else begin
      let hit = Rng.float t.streams.(i) 1.0 < r in
      (if hit then
         match t.metrics with
         | Some m -> Metrics.incr m ("fault.injected." ^ trigger_name trigger)
         | None -> ());
      hit
    end

  let fraction t trigger = Rng.float t.streams.(index_of trigger) 1.0

  let blackouts t ~servers ~horizon =
    let rate = t.rates.(index_of Server_blackout) in
    if rate <= 0.0 || servers <= 0 then []
    else begin
      let horizon_ns = Time.span_to_ns horizon in
      let second_ns = 1_000_000_000 in
      let rolls = max 1 (horizon_ns / second_ns) in
      let acc = ref [] in
      for server = servers - 1 downto 0 do
        (* a private stream per server, disjoint from trigger streams
           and derived-plan roots by a high offset *)
        let stream = Rng.derive t.root ~index:(1024 + server) in
        let start = ref None in
        for k = 0 to rolls - 1 do
          if !start = None && Rng.float stream 1.0 < rate then
            start :=
              Some
                (Time.span_ns
                   ((k * min second_ns horizon_ns)
                   + Rng.int stream (max 1 (min second_ns horizon_ns))))
        done;
        match !start with
        | None -> ()
        | Some at ->
          let frac = 0.05 +. (0.15 *. Rng.float stream 1.0) in
          let outage =
            Time.span_ns
              (max 1 (int_of_float (frac *. float_of_int horizon_ns)))
          in
          acc := (server, at, outage) :: !acc
      done;
      !acc
    end
end
