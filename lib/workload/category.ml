module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng

type t = Cat1 | Cat2 | Cat3

let all = [ Cat1; Cat2; Cat3 ]

let name = function Cat1 -> "cat1" | Cat2 -> "cat2" | Cat3 -> "cat3"

let description = function
  | Cat1 -> "stateless firewall (<= 20us)"
  | Cat2 -> "NAT header rewrite (<= 1us)"
  | Cat3 -> "array index filter (100s of ns)"

let service_time = function
  | Cat1 -> Time.span_us 17.0
  | Cat2 -> Time.span_us 1.5
  | Cat3 -> Time.span_us 0.7

let sample_service_time t rng =
  let base = float_of_int (Time.span_to_ns (service_time t)) in
  let noisy = base *. (0.92 +. Rng.float rng 0.16) in
  Time.span_ns (int_of_float (Float.round noisy))

type outcome =
  | Firewall_decision of Firewall.decision
  | Nat_result of Packet.header option
  | Filter_matches of int

(* Canned inputs built once: the warm sandbox holds them in memory. *)
let firewall =
  lazy
    (Firewall.create
       ~rules:
         [
           Firewall.rule_of_cidr "10.0.0.0/8" ();
           Firewall.rule_of_cidr "192.168.1.0/24" ~dst_port:443 ();
           Firewall.rule_of_cidr "172.16.0.0/12" ~protocol:Packet.Udp ();
         ])

let nat =
  lazy
    (let t = Nat.create () in
     Nat.add_rule t ~match_dst:"203.0.113.10" ~match_port:80
       ~rewrite_dst:"10.1.2.3" ~rewrite_port:8080;
     Nat.add_rule t ~match_dst:"203.0.113.10" ~match_port:443
       ~rewrite_dst:"10.1.2.4" ~rewrite_port:8443;
     t)

let filter_input = lazy (Array_filter.sample_input ~seed:11 ~size:Array_filter.standard_size)

let run_real = function
  | Cat1 ->
    let header = Packet.make ~src:"10.3.4.5" ~dst:"198.51.100.7" () in
    Firewall_decision (Firewall.evaluate (Lazy.force firewall) header)
  | Cat2 ->
    let header =
      Packet.make ~src:"198.51.100.9" ~dst:"203.0.113.10" ~dst_port:80 ()
    in
    Nat_result (Nat.translate (Lazy.force nat) header)
  | Cat3 ->
    Filter_matches
      (Array_filter.count_above (Lazy.force filter_input) ~threshold:5000)
