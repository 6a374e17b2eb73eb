(* Tests for horse_workload: the real uLL functions (firewall, NAT,
   array filter) and the thumbnail generator. *)

module Packet = Horse_workload.Packet
module Firewall = Horse_workload.Firewall
module Nat = Horse_workload.Nat
module Array_filter = Horse_workload.Array_filter
module Thumbnail = Horse_workload.Thumbnail
module Category = Horse_workload.Category
module Rng = Horse_sim.Rng
module Time = Horse_sim.Time_ns

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)
(* ------------------------------------------------------------------ *)

let test_ip_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Packet.ip_to_string (Packet.ip_of_string s)))
    [ "0.0.0.0"; "10.0.0.1"; "192.168.255.254"; "255.255.255.255" ]

let test_ip_rejects_malformed () =
  List.iter
    (fun s ->
      match Packet.ip_of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "-1.0.0.0"; "" ]

let test_make_header () =
  let h = Packet.make ~src:"10.0.0.1" ~dst:"10.0.0.2" ~dst_port:443 () in
  Alcotest.(check int) "dst port" 443 h.Packet.dst_port;
  Alcotest.(check bool) "tcp default" true (h.Packet.protocol = Packet.Tcp);
  Alcotest.check_raises "bad port" (Invalid_argument "Packet.make: port out of range")
    (fun () -> ignore (Packet.make ~src:"10.0.0.1" ~dst:"10.0.0.2" ~dst_port:70000 ()))

(* ------------------------------------------------------------------ *)
(* Firewall (Category 1)                                               *)
(* ------------------------------------------------------------------ *)

let fw =
  Firewall.create
    ~rules:
      [
        Firewall.rule_of_cidr "10.0.0.0/8" ();
        Firewall.rule_of_cidr "192.168.1.0/24" ~dst_port:443 ();
        Firewall.rule_of_cidr "172.16.0.0/12" ~protocol:Packet.Udp ();
      ]

let test_firewall_prefix_match () =
  let allow = Packet.make ~src:"10.200.3.4" ~dst:"1.1.1.1" () in
  let deny = Packet.make ~src:"11.0.0.1" ~dst:"1.1.1.1" () in
  Alcotest.(check bool) "inside /8" true (Firewall.evaluate fw allow = Firewall.Allow);
  Alcotest.(check bool) "outside /8" true (Firewall.evaluate fw deny = Firewall.Deny)

let test_firewall_port_condition () =
  let https = Packet.make ~src:"192.168.1.9" ~dst:"1.1.1.1" ~dst_port:443 () in
  let http = Packet.make ~src:"192.168.1.9" ~dst:"1.1.1.1" ~dst_port:80 () in
  Alcotest.(check bool) "matching port" true
    (Firewall.evaluate fw https = Firewall.Allow);
  Alcotest.(check bool) "wrong port" true
    (Firewall.evaluate fw http = Firewall.Deny)

let test_firewall_protocol_condition () =
  let udp =
    Packet.make ~src:"172.20.0.1" ~dst:"1.1.1.1" ~protocol:Packet.Udp ()
  in
  let tcp = Packet.make ~src:"172.20.0.1" ~dst:"1.1.1.1" () in
  Alcotest.(check bool) "udp allowed" true (Firewall.evaluate fw udp = Firewall.Allow);
  Alcotest.(check bool) "tcp denied" true (Firewall.evaluate fw tcp = Firewall.Deny)

let test_firewall_default_deny () =
  let empty = Firewall.create ~rules:[] in
  let any = Packet.make ~src:"1.2.3.4" ~dst:"5.6.7.8" () in
  Alcotest.(check bool) "empty list denies" true
    (Firewall.evaluate empty any = Firewall.Deny)

let test_firewall_zero_prefix_allows_all () =
  let open_fw = Firewall.create ~rules:[ Firewall.rule_of_cidr "0.0.0.0/0" () ] in
  let any = Packet.make ~src:"1.2.3.4" ~dst:"5.6.7.8" () in
  Alcotest.(check bool) "/0 matches everything" true
    (Firewall.evaluate open_fw any = Firewall.Allow)

let test_firewall_validation () =
  Alcotest.check_raises "bad prefix"
    (Invalid_argument "Firewall.create: prefix length outside [0, 32]")
    (fun () ->
      ignore
        (Firewall.create
           ~rules:[ { Firewall.src_prefix = 0; src_prefix_len = 33;
                      dst_port = None; protocol = None } ]))

(* ------------------------------------------------------------------ *)
(* NAT (Category 2)                                                    *)
(* ------------------------------------------------------------------ *)

let test_nat_translates () =
  let nat = Nat.create () in
  Nat.add_rule nat ~match_dst:"198.51.100.1" ~match_port:80
    ~rewrite_dst:"10.0.0.5" ~rewrite_port:8080;
  let h = Packet.make ~src:"1.2.3.4" ~dst:"198.51.100.1" ~dst_port:80 () in
  match Nat.translate nat h with
  | Some h' ->
    Alcotest.(check string) "rewritten ip" "10.0.0.5"
      (Packet.ip_to_string h'.Packet.dst_ip);
    Alcotest.(check int) "rewritten port" 8080 h'.Packet.dst_port;
    Alcotest.(check int) "src untouched" h.Packet.src_ip h'.Packet.src_ip
  | None -> Alcotest.fail "rule did not match"

let test_nat_no_match () =
  let nat = Nat.create () in
  Nat.add_rule nat ~match_dst:"198.51.100.1" ~match_port:80
    ~rewrite_dst:"10.0.0.5" ~rewrite_port:8080;
  let wrong_port = Packet.make ~src:"1.2.3.4" ~dst:"198.51.100.1" ~dst_port:81 () in
  Alcotest.(check bool) "no match" true (Nat.translate nat wrong_port = None)

let test_nat_rule_replacement () =
  let nat = Nat.create () in
  Nat.add_rule nat ~match_dst:"198.51.100.1" ~match_port:80
    ~rewrite_dst:"10.0.0.5" ~rewrite_port:8080;
  Nat.add_rule nat ~match_dst:"198.51.100.1" ~match_port:80
    ~rewrite_dst:"10.0.0.6" ~rewrite_port:9090;
  Alcotest.(check int) "still one rule" 1 (Nat.rule_count nat);
  let h = Packet.make ~src:"1.2.3.4" ~dst:"198.51.100.1" ~dst_port:80 () in
  match Nat.translate nat h with
  | Some h' -> Alcotest.(check int) "latest wins" 9090 h'.Packet.dst_port
  | None -> Alcotest.fail "rule did not match"

(* ------------------------------------------------------------------ *)
(* Array filter (Category 3)                                           *)
(* ------------------------------------------------------------------ *)

let test_filter_basic () =
  let arr = [| 5; 10; 3; 10; 1 |] in
  Alcotest.(check (list int)) "indexes" [ 1; 3 ]
    (Array_filter.indexes_above arr ~threshold:5);
  Alcotest.(check (list int)) "none" []
    (Array_filter.indexes_above arr ~threshold:100);
  Alcotest.(check (list int)) "all" [ 0; 1; 2; 3; 4 ]
    (Array_filter.indexes_above arr ~threshold:0)

let prop_filter_sound_and_complete =
  QCheck2.Test.make ~name:"every returned index exceeds the threshold, none missed"
    ~count:300
    QCheck2.Gen.(pair (array_size (0 -- 200) (0 -- 1000)) (0 -- 1000))
    (fun (arr, threshold) ->
      let idx = Array_filter.indexes_above arr ~threshold in
      List.for_all (fun i -> arr.(i) > threshold) idx
      && Array.for_all (fun x -> x <= threshold) (Array.of_list
           (List.filteri (fun i _ -> not (List.mem i idx)) (Array.to_list arr)))
      |> fun complete -> complete)

(* ------------------------------------------------------------------ *)
(* Thumbnail                                                           *)
(* ------------------------------------------------------------------ *)

let test_thumbnail_downscales () =
  let img = Thumbnail.make_test_image ~width:640 ~height:480 ~seed:1 in
  let thumb = Thumbnail.generate img ~max_dim:128 in
  Alcotest.(check int) "width" 128 thumb.Thumbnail.width;
  Alcotest.(check int) "height" 96 thumb.Thumbnail.height;
  Alcotest.(check bool) "pixels in range" true
    (Array.for_all (fun p -> p >= 0 && p <= 255) thumb.Thumbnail.pixels)

let test_thumbnail_small_image_untouched () =
  let img = Thumbnail.make_test_image ~width:100 ~height:50 ~seed:2 in
  let thumb = Thumbnail.generate img ~max_dim:128 in
  Alcotest.(check bool) "same image" true (thumb == img)

let test_thumbnail_preserves_mean_brightness () =
  (* a box filter must keep the average brightness roughly unchanged *)
  let img = Thumbnail.make_test_image ~width:512 ~height:512 ~seed:3 in
  let thumb = Thumbnail.generate img ~max_dim:64 in
  let mean pixels =
    float_of_int (Array.fold_left ( + ) 0 pixels)
    /. float_of_int (Array.length pixels)
  in
  let delta = Float.abs (mean img.Thumbnail.pixels -. mean thumb.Thumbnail.pixels) in
  Alcotest.(check bool) "brightness stable" true (delta < 4.0)

let test_thumbnail_latency_model () =
  let rng = Rng.create ~seed:9 in
  let spans =
    List.init 200 (fun _ ->
        Time.span_to_ms
          (Thumbnail.latency_model rng
             ~image_bytes:Thumbnail.default_image_bytes))
  in
  List.iter
    (fun ms ->
      Alcotest.(check bool) "sane latency" true (ms > 10.0 && ms < 5000.0))
    spans;
  let mean = List.fold_left ( +. ) 0.0 spans /. 200.0 in
  Alcotest.(check bool) "centres ~95ms" true (mean > 60.0 && mean < 160.0)

let test_thumbnail_variability_tightens () =
  let spread variability =
    let rng = Rng.create ~seed:10 in
    let spans =
      List.init 100 (fun _ ->
          Time.span_to_ms
            (Thumbnail.latency_model ~variability rng ~image_bytes:1_500_000))
    in
    List.fold_left Float.max 0.0 spans -. List.fold_left Float.min 1e9 spans
  in
  Alcotest.(check bool) "tight < loose" true (spread 0.01 < spread 1.0)

(* ------------------------------------------------------------------ *)
(* Categories                                                          *)
(* ------------------------------------------------------------------ *)

let test_category_service_times () =
  Alcotest.(check int) "cat1 17us" 17_000
    (Time.span_to_ns (Category.service_time Category.Cat1));
  Alcotest.(check int) "cat2 1.5us" 1_500
    (Time.span_to_ns (Category.service_time Category.Cat2));
  Alcotest.(check int) "cat3 0.7us" 700
    (Time.span_to_ns (Category.service_time Category.Cat3))

let test_category_sampling_noise () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 100 do
    let ns =
      Time.span_to_ns (Category.sample_service_time Category.Cat1 rng)
    in
    Alcotest.(check bool) "within +-8%" true (ns >= 15_640 && ns <= 18_360)
  done

let test_category_run_real () =
  (match Category.run_real Category.Cat1 with
  | Category.Firewall_decision Firewall.Allow -> ()
  | Category.Firewall_decision Firewall.Deny ->
    Alcotest.fail "canned firewall input should be allowed"
  | Category.Nat_result _ | Category.Filter_matches _ ->
    Alcotest.fail "wrong outcome type");
  (match Category.run_real Category.Cat2 with
  | Category.Nat_result (Some _) -> ()
  | Category.Nat_result None -> Alcotest.fail "canned NAT input should match"
  | Category.Firewall_decision _ | Category.Filter_matches _ ->
    Alcotest.fail "wrong outcome type");
  match Category.run_real Category.Cat3 with
  | Category.Filter_matches n ->
    Alcotest.(check bool) "some matches" true (n > 0 && n < 3000)
  | Category.Firewall_decision _ | Category.Nat_result _ ->
    Alcotest.fail "wrong outcome type"

let () =
  Alcotest.run "horse_workload"
    [
      ( "packet",
        [
          Alcotest.test_case "ip roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_ip_rejects_malformed;
          Alcotest.test_case "make header" `Quick test_make_header;
        ] );
      ( "firewall",
        [
          Alcotest.test_case "prefix match" `Quick test_firewall_prefix_match;
          Alcotest.test_case "port condition" `Quick test_firewall_port_condition;
          Alcotest.test_case "protocol condition" `Quick
            test_firewall_protocol_condition;
          Alcotest.test_case "default deny" `Quick test_firewall_default_deny;
          Alcotest.test_case "/0 allows all" `Quick
            test_firewall_zero_prefix_allows_all;
          Alcotest.test_case "validation" `Quick test_firewall_validation;
        ] );
      ( "nat",
        [
          Alcotest.test_case "translates" `Quick test_nat_translates;
          Alcotest.test_case "no match" `Quick test_nat_no_match;
          Alcotest.test_case "rule replacement" `Quick test_nat_rule_replacement;
        ] );
      ( "filter",
        [
          Alcotest.test_case "basic" `Quick test_filter_basic;
        ] );
      ( "thumbnail",
        [
          Alcotest.test_case "downscales" `Quick test_thumbnail_downscales;
          Alcotest.test_case "small untouched" `Quick
            test_thumbnail_small_image_untouched;
          Alcotest.test_case "brightness stable" `Quick
            test_thumbnail_preserves_mean_brightness;
          Alcotest.test_case "latency model" `Quick test_thumbnail_latency_model;
          Alcotest.test_case "variability knob" `Quick
            test_thumbnail_variability_tightens;
        ] );
      ( "category",
        [
          Alcotest.test_case "service times" `Quick test_category_service_times;
          Alcotest.test_case "sampling noise" `Quick test_category_sampling_noise;
          Alcotest.test_case "run real" `Quick test_category_run_real;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_filter_sound_and_complete ] );
    ]
