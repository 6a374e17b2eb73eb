(* Tests for horse_psm: the boxed reference list, the flat arena list
   that replaced it on the hot path, the reference merges and P²SM
   itself, including the deferred-upkeep checks and the
   arena-vs-reference trace-equality scripts. *)

module Ll = Horse_psm.Linked_list
module Al = Horse_psm.Arena_list
module Si = Horse_psm.Sorted_intf
module Psm = Horse_psm.Psm
module Reference = Horse_psm.Reference

let icmp = Int.compare

let make xs = Ll.of_sorted_list ~compare:icmp xs

let amake xs = Al.of_sorted_list (Al.create_arena ~compare:icmp ()) xs

let check_list = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Linked_list unit tests (the reference oracle, unchanged)            *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let t = Ll.create ~compare:icmp () in
  Alcotest.(check int) "length" 0 (Ll.length t);
  Alcotest.(check bool) "empty" true (Ll.is_empty t);
  check_list "to_list" [] (Ll.to_list t);
  Alcotest.(check bool) "sorted" true (Ll.is_sorted t)

let test_insert_order () =
  let t = Ll.create ~compare:icmp () in
  List.iter (fun x -> ignore (Ll.insert_sorted t x)) [ 5; 1; 3; 2; 4 ];
  check_list "sorted result" [ 1; 2; 3; 4; 5 ] (Ll.to_list t);
  Alcotest.(check int) "length" 5 (Ll.length t)

let test_insert_steps () =
  let t = make [ 10; 20; 30 ] in
  let _, s0 = Ll.insert_sorted t 5 in
  Alcotest.(check int) "head insert walks 0" 0 s0;
  let _, s1 = Ll.insert_sorted t 25 in
  Alcotest.(check int) "mid insert walks 3" 3 s1;
  let _, s2 = Ll.insert_sorted t 99 in
  Alcotest.(check int) "tail insert walks 5" 5 s2

let test_insert_stable () =
  (* Equal keys: later insertions land after earlier ones. *)
  let t = Ll.create ~compare:(fun (a, _) (b, _) -> Int.compare a b) () in
  List.iter
    (fun x -> ignore (Ll.insert_sorted t x))
    [ (1, "a"); (1, "b"); (1, "c") ];
  Alcotest.(check (list string))
    "FIFO among equals" [ "a"; "b"; "c" ]
    (List.map snd (Ll.to_list t))

let test_remove_node () =
  let t = make [ 1; 2; 3; 4 ] in
  let node = Ll.nth_node t 2 in
  let steps = Ll.remove_node t node in
  Alcotest.(check int) "walked to third" 2 steps;
  check_list "removed" [ 1; 2; 4 ] (Ll.to_list t);
  Alcotest.check_raises "second removal" Not_found (fun () ->
      ignore (Ll.remove_node t node))

let test_pop_first () =
  let t = make [ 7; 8 ] in
  Alcotest.(check (option int)) "pop 7" (Some 7) (Ll.pop_first t);
  Alcotest.(check (option int)) "pop 8" (Some 8) (Ll.pop_first t);
  Alcotest.(check (option int)) "pop empty" None (Ll.pop_first t)

let test_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Linked_list.of_sorted_list: input not sorted")
    (fun () -> ignore (make [ 3; 1 ]))

let test_nth_node () =
  let t = make [ 4; 5; 6 ] in
  Alcotest.(check int) "nth 0" 4 (Ll.value (Ll.nth_node t 0));
  Alcotest.(check int) "nth 2" 6 (Ll.value (Ll.nth_node t 2));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Linked_list.nth_node: out of range") (fun () ->
      ignore (Ll.nth_node t 3))

(* ------------------------------------------------------------------ *)
(* Arena_list unit tests                                               *)
(* ------------------------------------------------------------------ *)

let test_arena_empty () =
  let t = Al.create (Al.create_arena ~compare:icmp ()) in
  Alcotest.(check int) "length" 0 (Al.length t);
  Alcotest.(check bool) "empty" true (Al.is_empty t);
  check_list "to_list" [] (Al.to_list t);
  Alcotest.(check bool) "sorted" true (Al.is_sorted t);
  Alcotest.(check bool) "first is nil" true (Al.is_nil (Al.first t))

let test_arena_insert_order () =
  let t = Al.create (Al.create_arena ~compare:icmp ()) in
  List.iter (fun x -> ignore (Al.insert_sorted t x)) [ 5; 1; 3; 2; 4 ];
  check_list "sorted result" [ 1; 2; 3; 4; 5 ] (Al.to_list t);
  Alcotest.(check int) "length" 5 (Al.length t);
  Alcotest.(check bool) "invariants" true (Al.is_sorted t)

let test_arena_insert_steps () =
  (* Must report exactly the walk counts of the boxed oracle. *)
  let t = amake [ 10; 20; 30 ] in
  let _, s0 = Al.insert_sorted t 5 in
  Alcotest.(check int) "head insert walks 0" 0 s0;
  let _, s1 = Al.insert_sorted t 25 in
  Alcotest.(check int) "mid insert walks 3" 3 s1;
  let _, s2 = Al.insert_sorted t 99 in
  Alcotest.(check int) "tail insert walks 5" 5 s2

let test_arena_insert_stable () =
  let t =
    Al.create (Al.create_arena ~compare:(fun (a, _) (b, _) -> icmp a b) ())
  in
  List.iter
    (fun x -> ignore (Al.insert_sorted t x))
    [ (1, "a"); (1, "b"); (1, "c") ];
  Alcotest.(check (list string))
    "FIFO among equals" [ "a"; "b"; "c" ]
    (List.map snd (Al.to_list t))

let test_arena_remove_node () =
  let t = amake [ 1; 2; 3; 4 ] in
  let node = Al.nth t 2 in
  let steps = Al.remove_node t node in
  Alcotest.(check int) "reports position" 2 steps;
  check_list "removed" [ 1; 2; 4 ] (Al.to_list t);
  Alcotest.(check bool) "invariants" true (Al.is_sorted t);
  Alcotest.check_raises "stale handle detected" Not_found (fun () ->
      ignore (Al.remove_node t node))

let test_arena_pop_first () =
  let t = amake [ 7; 8 ] in
  Alcotest.(check (option int)) "pop 7" (Some 7) (Al.pop_first t);
  Alcotest.(check (option int)) "pop 8" (Some 8) (Al.pop_first t);
  Alcotest.(check (option int)) "pop empty" None (Al.pop_first t)

let test_arena_of_sorted_rejects_unsorted () =
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Arena_list.of_sorted_list: input not sorted")
    (fun () -> ignore (amake [ 3; 1 ]))

let test_arena_nth_position () =
  let t = amake [ 4; 5; 6 ] in
  Alcotest.(check int) "nth 0" 4 (Al.value t (Al.nth t 0));
  Alcotest.(check int) "nth 2" 6 (Al.value t (Al.nth t 2));
  Alcotest.(check int) "position of nth 1" 1 (Al.position t (Al.nth t 1));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Arena_list.nth: out of range") (fun () ->
      ignore (Al.nth t 3))

let test_arena_two_lists_shared () =
  (* Two lists in one arena stay independent; a foreign handle is
     rejected. *)
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.create arena and b = Al.create arena in
  List.iter (fun x -> ignore (Al.insert_sorted a x)) [ 3; 1; 5 ];
  List.iter (fun x -> ignore (Al.insert_sorted b x)) [ 4; 2 ];
  check_list "a" [ 1; 3; 5 ] (Al.to_list a);
  check_list "b" [ 2; 4 ] (Al.to_list b);
  let ha = Al.nth a 1 in
  Alcotest.check_raises "foreign handle" Not_found (fun () ->
      ignore (Al.value b ha));
  ignore (Al.remove_node a ha);
  check_list "a after remove" [ 1; 5 ] (Al.to_list a);
  check_list "b untouched" [ 2; 4 ] (Al.to_list b);
  Alcotest.(check bool) "a sorted" true (Al.is_sorted a);
  Alcotest.(check bool) "b sorted" true (Al.is_sorted b)

let test_arena_growth () =
  (* Push far past the initial capacity; mix in removals. *)
  let t = Al.create (Al.create_arena ~capacity:4 ~compare:icmp ()) in
  for i = 0 to 199 do
    ignore (Al.insert_sorted t ((i * 37) mod 100))
  done;
  for _ = 1 to 50 do
    ignore (Al.pop_first t)
  done;
  Alcotest.(check int) "length" 150 (Al.length t);
  Alcotest.(check bool) "invariants" true (Al.is_sorted t)

let test_arena_handles_survive_merge () =
  (* After a P²SM merge the source's handles are re-owned by the
     target: still valid, same values, positions now in the target. *)
  let arena = Al.create_arena ~compare:icmp () in
  let src = Al.of_sorted_list arena [ 2; 6 ]
  and tgt = Al.of_sorted_list arena [ 1; 5; 9 ] in
  let h2 = Al.nth src 0 and h6 = Al.nth src 1 in
  let plan = Psm.Plan.build ~source:src ~target:tgt in
  ignore (Psm.Plan.execute plan ~target:tgt ~source:src);
  check_list "merged" [ 1; 2; 5; 6; 9 ] (Al.to_list tgt);
  Alcotest.(check bool) "src empty" true (Al.is_empty src);
  Alcotest.(check bool) "h2 now in target" true (Al.mem tgt h2);
  Alcotest.(check int) "h2 value" 2 (Al.value tgt h2);
  Alcotest.(check int) "h2 position" 1 (Al.position tgt h2);
  Alcotest.(check int) "h6 position" 3 (Al.position tgt h6);
  Alcotest.(check bool) "no longer in source" false (Al.mem src h2)

(* ------------------------------------------------------------------ *)
(* Reference merges                                                    *)
(* ------------------------------------------------------------------ *)

let test_merge_values () =
  check_list "simple"
    [ 1; 2; 3; 4; 5; 6 ]
    (Reference.merge_values ~compare:icmp [ 2; 4; 6 ] [ 1; 3; 5 ]);
  check_list "empty a" [ 1; 2 ] (Reference.merge_values ~compare:icmp [] [ 1; 2 ]);
  check_list "empty b" [ 1; 2 ] (Reference.merge_values ~compare:icmp [ 1; 2 ] [])

let test_merge_values_stability () =
  (* Among equals, target (second argument) elements come first. *)
  let a = [ (1, "A") ] and b = [ (1, "B") ] in
  let merged =
    Reference.merge_values ~compare:(fun (x, _) (y, _) -> Int.compare x y) a b
  in
  Alcotest.(check (list string)) "b first" [ "B"; "A" ] (List.map snd merged)

let test_insert_each () =
  let source = make [ 2; 4 ] and target = make [ 1; 3; 5 ] in
  let walked = Reference.insert_each ~source ~target in
  check_list "merged" [ 1; 2; 3; 4; 5 ] (Ll.to_list target);
  Alcotest.(check bool) "source drained" true (Ll.is_empty source);
  Alcotest.(check bool) "walked some" true (walked > 0)

(* ------------------------------------------------------------------ *)
(* P²SM: Plan build + execute                                          *)
(* ------------------------------------------------------------------ *)

let run_merge ?(parallel = 0) a_vals b_vals =
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.of_sorted_list arena a_vals
  and b = Al.of_sorted_list arena b_vals in
  let plan = Psm.Plan.build ~source:a ~target:b in
  let stats =
    if parallel > 0 then
      Psm.Plan.execute_parallel ~domains:parallel plan ~target:b ~source:a
    else Psm.Plan.execute plan ~target:b ~source:a
  in
  (Al.to_list b, Al.length b, Al.is_empty a, stats)

let test_plan_simple_merge () =
  let merged, len, drained, stats = run_merge [ 2; 4; 6 ] [ 1; 3; 5 ] in
  check_list "merged" [ 1; 2; 3; 4; 5; 6 ] merged;
  Alcotest.(check int) "length" 6 len;
  Alcotest.(check bool) "source drained" true drained;
  Alcotest.(check int) "threads" 3 stats.Psm.Plan.threads;
  Alcotest.(check int) "spliced" 3 stats.Psm.Plan.spliced

let test_plan_merge_empty_target () =
  let merged, _, _, stats = run_merge [ 1; 2; 3 ] [] in
  check_list "merged" [ 1; 2; 3 ] merged;
  Alcotest.(check int) "one segment" 1 stats.Psm.Plan.threads

let test_plan_merge_empty_source () =
  let merged, _, _, stats = run_merge [] [ 1; 2 ] in
  check_list "unchanged" [ 1; 2 ] merged;
  Alcotest.(check int) "no threads" 0 stats.Psm.Plan.threads

let test_plan_merge_all_before () =
  let merged, _, _, _ = run_merge [ 1; 2 ] [ 10; 20 ] in
  check_list "prefix splice" [ 1; 2; 10; 20 ] merged

let test_plan_merge_all_after () =
  let merged, _, _, _ = run_merge [ 30; 40 ] [ 10; 20 ] in
  check_list "suffix splice" [ 10; 20; 30; 40 ] merged

let test_plan_merge_equal_values () =
  (* equal elements: target's keep priority (come first) *)
  let merged, _, _, _ = run_merge [ 5; 5 ] [ 5 ] in
  check_list "ties" [ 5; 5; 5 ] merged;
  (* with tagged equal keys, the target element must end up first *)
  let kcmp (x, _) (y, _) = Int.compare x y in
  let arena = Al.create_arena ~compare:kcmp () in
  let a = Al.of_sorted_list arena [ (5, "a1"); (5, "a2") ]
  and b = Al.of_sorted_list arena [ (5, "b") ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  ignore (Psm.Plan.execute plan ~target:b ~source:a);
  Alcotest.(check (list string))
    "target first among equals" [ "b"; "a1"; "a2" ]
    (List.map snd (Al.to_list b))

let test_plan_parallel_merge () =
  let merged, _, drained, _ =
    run_merge ~parallel:4
      [ 1; 4; 4; 7; 11; 15 ]
      [ 2; 3; 5; 8; 9; 10; 12 ]
  in
  check_list "parallel == expected"
    (Reference.merge_values ~compare:icmp
       [ 1; 4; 4; 7; 11; 15 ]
       [ 2; 3; 5; 8; 9; 10; 12 ])
    merged;
  Alcotest.(check bool) "drained" true drained

(* The source is fixed from build to merge (a paused sandbox's vCPU
   set): a change to it the plan never saw makes it stale. *)
let test_plan_stale_on_unseen_source_change () =
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.of_sorted_list arena [ 2 ]
  and b = Al.of_sorted_list arena [ 1; 3 ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  ignore (Al.insert_sorted a 5);
  Alcotest.check_raises "stale" Psm.Stale (fun () ->
      ignore (Psm.Plan.execute plan ~target:b ~source:a))

let test_plan_stale_on_unseen_source_removal () =
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.of_sorted_list arena [ 2; 4 ]
  and b = Al.of_sorted_list arena [ 1; 3; 5 ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  (* read once, so the plan holds computed keys the removal outdates *)
  Alcotest.(check (list int)) "keys" [ 1; 2 ] (Psm.Plan.keys plan);
  ignore (Al.remove_node a (Al.nth a 1));
  Alcotest.check_raises "stale read" Psm.Stale (fun () ->
      ignore (Psm.Plan.key_count plan));
  Alcotest.check_raises "stale" Psm.Stale (fun () ->
      ignore (Psm.Plan.execute plan ~target:b ~source:a))

let test_plan_stale_on_double_execute () =
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.of_sorted_list arena [ 2 ]
  and b = Al.of_sorted_list arena [ 1; 3 ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  ignore (Psm.Plan.execute plan ~target:b ~source:a);
  Alcotest.check_raises "re-execute" Psm.Stale (fun () ->
      ignore (Psm.Plan.execute plan ~target:b ~source:a))

(* ------------------------------------------------------------------ *)
(* P²SM: deferred upkeep                                               *)
(* ------------------------------------------------------------------ *)

let pair_in_arena a_vals b_vals =
  let arena = Al.create_arena ~compare:icmp () in
  (Al.of_sorted_list arena a_vals, Al.of_sorted_list arena b_vals)

let test_plan_target_insert_refresh () =
  (* source [2;4;6] vs target [5]: segment {2;4} at key 0, {6} at key 1.
     Inserting 3 into the target splits {2;4} at the next read. *)
  let a, b = pair_in_arena [ 2; 4; 6 ] [ 5 ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  Alcotest.(check (list int)) "keys before" [ 0; 1 ] (Psm.Plan.keys plan);
  ignore (Al.insert_sorted b 3);
  Alcotest.(check (list int)) "keys after" [ 0; 1; 2 ] (Psm.Plan.keys plan);
  let stats = Psm.Plan.execute plan ~target:b ~source:a in
  check_list "merged" [ 2; 3; 4; 5; 6 ] (Al.to_list b);
  Alcotest.(check int) "three segments" 3 stats.Psm.Plan.threads

let test_plan_target_remove_refresh () =
  (* source [2;6] vs target [1;5;9]: keys 1 and 2.  Removing 5 leaves
     both segments on key 1, which the merge reads without a prior
     read of the plan. *)
  let a, b = pair_in_arena [ 2; 6 ] [ 1; 5; 9 ] in
  let plan = Psm.Plan.build ~source:a ~target:b in
  Alcotest.(check (list int)) "keys before" [ 1; 2 ] (Psm.Plan.keys plan);
  ignore (Al.remove_node b (Al.nth b 1));
  let stats = Psm.Plan.execute plan ~target:b ~source:a in
  check_list "merged" [ 1; 2; 6; 9 ] (Al.to_list b);
  Alcotest.(check int) "one segment" 1 stats.Psm.Plan.threads

(* Every structural mutation bumps the list's counter, on exactly the
   lists it changes; reads leave it alone. *)
let test_arena_version () =
  let arena = Al.create_arena ~compare:icmp () in
  let a = Al.create arena and b = Al.of_sorted_list arena [ 10; 20; 30 ] in
  let step label list by f =
    let before = Al.version list in
    f ();
    Alcotest.(check int) label (before + by) (Al.version list)
  in
  Alcotest.(check int) "fresh list" 0 (Al.version a);
  Alcotest.(check int) "built from 3 elements" 3 (Al.version b);
  step "insert_sorted" a 1 (fun () -> ignore (Al.insert_sorted a 25));
  ignore (Al.insert_sorted a 5);
  step "remove_node" a 1 (fun () -> ignore (Al.remove_node a (Al.nth a 1)));
  step "pop_first" a 1 (fun () -> ignore (Al.pop_first a));
  step "pop_first on empty" a 0 (fun () -> ignore (Al.pop_first a));
  step "reads" b 0 (fun () ->
      ignore (Al.nth b 1);
      ignore (Al.value b (Al.first b));
      ignore (Al.position b (Al.first b));
      ignore (Al.upper_bound b ~from:0 15);
      ignore (Al.to_list b);
      ignore (Al.is_sorted b));
  List.iter (fun x -> ignore (Al.insert_sorted a x)) [ 15; 35 ];
  let first = Al.nth a 0 and last = Al.nth a 1 in
  step "link_after" b 1 (fun () ->
      Al.Unsafe.link_after b ~anchor:(Al.nth b 0) ~first ~last:first);
  step "link_after, source" a 0 (fun () ->
      Al.Unsafe.link_after b ~anchor:(Al.nth b 2) ~first:last ~last);
  let va = Al.version a in
  step "merge_commit, target" b 1 (fun () ->
      Al.Unsafe.merge_commit ~target:b ~source:a ~keys:[| 1; 3 |]
        ~counts:[| 1; 1 |] ~nseg:2);
  Alcotest.(check int) "merge_commit, source" (va + 1) (Al.version a);
  check_list "spliced" [ 10; 15; 20; 30; 35 ] (Al.to_list b);
  Alcotest.(check bool) "sorted" true (Al.is_sorted b)

(* ------------------------------------------------------------------ *)
(* Trace equality: arena list vs the boxed oracle                      *)
(* ------------------------------------------------------------------ *)

(* Seeded random op scripts applied through the shared signature via
   the model-based harness: both implementations must behave
   identically at every step — same walk counts, same pop results,
   same contents after every op.  On divergence the harness shrinks
   the script and prints the replay seed. *)

type script_op = Ins of int | Rem of int | Pop

let show_script_op = function
  | Ins v -> Printf.sprintf "Ins %d" v
  | Rem i -> Printf.sprintf "Rem %d" i
  | Pop -> "Pop"

let trace_spec : script_op Harness.spec =
  {
    Harness.name = "flat arena list vs boxed oracle";
    gen =
      (fun st ->
        match Random.State.int st 10 with
        | 0 | 1 | 2 | 3 | 4 -> Ins (Random.State.int st 100)
        | 5 | 6 | 7 -> Rem (Random.State.int st 1000)
        | _ -> Pop);
    show = show_script_op;
    make =
      (fun () ->
        let bx = Si.Boxed.create ~compare:icmp () in
        let fl = Si.Flat.create ~compare:icmp () in
        let fail fmt = Printf.ksprintf Option.some fmt in
        fun op ->
          let step_diff =
            match op with
            | Ins v ->
              let _, sb = Si.Boxed.insert_sorted bx v in
              let _, sf = Si.Flat.insert_sorted fl v in
              if sb <> sf then
                fail "insert %d walked %d (boxed) vs %d (flat)" v sb sf
              else None
            | Rem i when Si.Boxed.length bx > 0 ->
              let p = i mod Si.Boxed.length bx in
              let sb = Si.Boxed.remove_node bx (Si.Boxed.nth bx p) in
              let sf = Si.Flat.remove_node fl (Si.Flat.nth fl p) in
              if sb <> sf then
                fail "remove @%d walked %d (boxed) vs %d (flat)" p sb sf
              else None
            | Rem _ -> None
            | Pop -> (
              match (Si.Boxed.pop_first bx, Si.Flat.pop_first fl) with
              | None, None -> None
              | Some b, Some f when b = f -> None
              | b, f ->
                let s = function
                  | Some v -> string_of_int v
                  | None -> "-"
                in
                fail "pop %s (boxed) vs %s (flat)" (s b) (s f))
          in
          match step_diff with
          | Some _ as d -> d
          | None ->
            if Si.Boxed.to_list bx <> Si.Flat.to_list fl then
              fail "contents diverged after %s" (show_script_op op)
            else if not (Si.Flat.is_sorted fl) then
              Some "flat list invariants broken"
            else None);
  }

let test_trace_equality seed () =
  Harness.check ~seeds:[ seed ] ~scripts:4 ~len:150 trace_spec

(* Same idea with P²SM merges in the script: the arena target absorbs
   random source lists through real plans while the oracle is rebuilt
   from Reference.merge_values. *)

type merge_op = Mins of int | Mrem of int | Mpop | Mmerge of int list

let merge_spec : merge_op Harness.spec =
  {
    Harness.name = "P2SM splice vs reference merge";
    gen =
      (fun st ->
        match Random.State.int st 10 with
        | 0 | 1 | 2 | 3 -> Mins (Random.State.int st 100)
        | 4 | 5 -> Mrem (Random.State.int st 1000)
        | 6 -> Mpop
        | _ ->
          let n = Random.State.int st 8 in
          Mmerge
            (List.sort icmp (List.init n (fun _ -> Random.State.int st 100))));
    show =
      (function
      | Mins v -> Printf.sprintf "Mins %d" v
      | Mrem i -> Printf.sprintf "Mrem %d" i
      | Mpop -> "Mpop"
      | Mmerge vs ->
        Printf.sprintf "Mmerge [%s]"
          (String.concat ";" (List.map string_of_int vs)));
    make =
      (fun () ->
        let arena = Al.create_arena ~compare:icmp () in
        let fl = Al.create arena in
        let bx = ref (Ll.create ~compare:icmp ()) in
        let fail fmt = Printf.ksprintf Option.some fmt in
        fun op ->
          let step_diff =
            match op with
            | Mins v ->
              let _, s_flat = Al.insert_sorted fl v in
              let _, s_boxed = Ll.insert_sorted !bx v in
              if s_flat <> s_boxed then
                fail "insert %d walked %d (boxed) vs %d (flat)" v s_boxed
                  s_flat
              else None
            | Mrem i when Al.length fl > 0 ->
              let p = i mod Al.length fl in
              let s_flat = Al.remove_node fl (Al.nth fl p) in
              let s_boxed = Ll.remove_node !bx (Ll.nth_node !bx p) in
              if s_flat <> s_boxed then
                fail "remove @%d walked %d (boxed) vs %d (flat)" p s_boxed
                  s_flat
              else None
            | Mrem _ -> None
            | Mpop ->
              let b = Ll.pop_first !bx and f = Al.pop_first fl in
              if b <> f then fail "pop diverged" else None
            | Mmerge vals ->
              let src = Al.of_sorted_list arena vals in
              let plan = Psm.Plan.build ~source:src ~target:fl in
              ignore (Psm.Plan.execute plan ~target:fl ~source:src);
              bx :=
                Ll.of_sorted_list ~compare:icmp
                  (Reference.merge_values ~compare:icmp vals (Ll.to_list !bx));
              None
          in
          match step_diff with
          | Some _ as d -> d
          | None ->
            if Ll.length !bx <> Al.length fl then
              fail "length %d (boxed) vs %d (flat)" (Ll.length !bx)
                (Al.length fl)
            else if Ll.to_list !bx <> Al.to_list fl then
              Some "contents diverged"
            else if not (Al.is_sorted fl) then
              Some "arena list invariants broken"
            else None);
  }

let test_merge_script_equality seed () =
  Harness.check ~seeds:[ seed ] ~scripts:4 ~len:100 merge_spec

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let sorted_list_gen = QCheck2.Gen.(map (List.sort icmp) (list_size (0 -- 40) (0 -- 100)))

let prop_insert_sorted_invariant =
  QCheck2.Test.make ~name:"insert_sorted keeps the list sorted" ~count:300
    QCheck2.Gen.(list_size (0 -- 60) (0 -- 100))
    (fun xs ->
      let t = Ll.create ~compare:icmp () in
      List.iter (fun x -> ignore (Ll.insert_sorted t x)) xs;
      Ll.is_sorted t
      && Ll.length t = List.length xs
      && Ll.to_list t = List.sort icmp xs)

let prop_arena_insert_sorted_invariant =
  QCheck2.Test.make ~name:"arena insert_sorted keeps the list sorted"
    ~count:300
    QCheck2.Gen.(list_size (0 -- 60) (0 -- 100))
    (fun xs ->
      let t = Al.create (Al.create_arena ~compare:icmp ()) in
      List.iter (fun x -> ignore (Al.insert_sorted t x)) xs;
      Al.is_sorted t
      && Al.length t = List.length xs
      && Al.to_list t = List.sort icmp xs)

let prop_psm_equals_reference =
  QCheck2.Test.make ~name:"P²SM merge == reference merge" ~count:300
    QCheck2.Gen.(pair sorted_list_gen sorted_list_gen)
    (fun (a_vals, b_vals) ->
      let merged, _, drained, _ = run_merge a_vals b_vals in
      drained && merged = Reference.merge_values ~compare:icmp a_vals b_vals)

let prop_psm_parallel_equals_sequential =
  QCheck2.Test.make ~name:"parallel splice == sequential splice" ~count:60
    QCheck2.Gen.(pair sorted_list_gen sorted_list_gen)
    (fun (a_vals, b_vals) ->
      let m1, _, _, _ = run_merge a_vals b_vals in
      let m2, _, _, _ = run_merge ~parallel:4 a_vals b_vals in
      m1 = m2)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_insert_sorted_invariant;
      prop_arena_insert_sorted_invariant;
      prop_psm_equals_reference;
      prop_psm_parallel_equals_sequential;
    ]

let () =
  Alcotest.run "horse_psm"
    [
      ( "linked_list",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert keeps order" `Quick test_insert_order;
          Alcotest.test_case "insert reports steps" `Quick test_insert_steps;
          Alcotest.test_case "stable among equals" `Quick test_insert_stable;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "pop first" `Quick test_pop_first;
          Alcotest.test_case "rejects unsorted input" `Quick
            test_of_sorted_rejects_unsorted;
          Alcotest.test_case "nth node" `Quick test_nth_node;
        ] );
      ( "arena_list",
        [
          Alcotest.test_case "empty" `Quick test_arena_empty;
          Alcotest.test_case "insert keeps order" `Quick
            test_arena_insert_order;
          Alcotest.test_case "insert reports steps" `Quick
            test_arena_insert_steps;
          Alcotest.test_case "stable among equals" `Quick
            test_arena_insert_stable;
          Alcotest.test_case "remove node" `Quick test_arena_remove_node;
          Alcotest.test_case "pop first" `Quick test_arena_pop_first;
          Alcotest.test_case "rejects unsorted input" `Quick
            test_arena_of_sorted_rejects_unsorted;
          Alcotest.test_case "nth and position" `Quick test_arena_nth_position;
          Alcotest.test_case "two lists share an arena" `Quick
            test_arena_two_lists_shared;
          Alcotest.test_case "growth" `Quick test_arena_growth;
          Alcotest.test_case "handles survive merge" `Quick
            test_arena_handles_survive_merge;
          Alcotest.test_case "version counts mutations" `Quick
            test_arena_version;
        ] );
      ( "reference",
        [
          Alcotest.test_case "merge values" `Quick test_merge_values;
          Alcotest.test_case "merge stability" `Quick test_merge_values_stability;
          Alcotest.test_case "insert each" `Quick test_insert_each;
        ] );
      ( "plan",
        [
          Alcotest.test_case "simple merge" `Quick test_plan_simple_merge;
          Alcotest.test_case "empty target" `Quick test_plan_merge_empty_target;
          Alcotest.test_case "empty source" `Quick test_plan_merge_empty_source;
          Alcotest.test_case "all before" `Quick test_plan_merge_all_before;
          Alcotest.test_case "all after" `Quick test_plan_merge_all_after;
          Alcotest.test_case "equal values" `Quick test_plan_merge_equal_values;
          Alcotest.test_case "parallel merge" `Quick test_plan_parallel_merge;
          Alcotest.test_case "stale on unseen change" `Quick
            test_plan_stale_on_unseen_source_change;
          Alcotest.test_case "stale on unseen removal" `Quick
            test_plan_stale_on_unseen_source_removal;
          Alcotest.test_case "stale on double execute" `Quick
            test_plan_stale_on_double_execute;
        ] );
      ( "trace_equality",
        [
          Alcotest.test_case "ops script, seed 1" `Quick (test_trace_equality 1);
          Alcotest.test_case "ops script, seed 42" `Quick
            (test_trace_equality 42);
          Alcotest.test_case "ops script, seed 1337" `Quick
            (test_trace_equality 1337);
          Alcotest.test_case "merge script, seed 1" `Quick
            (test_merge_script_equality 1);
          Alcotest.test_case "merge script, seed 42" `Quick
            (test_merge_script_equality 42);
          Alcotest.test_case "merge script, seed 1337" `Quick
            (test_merge_script_equality 1337);
        ] );
      ( "deferred",
        [
          Alcotest.test_case "target insert refreshes" `Quick
            test_plan_target_insert_refresh;
          Alcotest.test_case "target remove refreshes" `Quick
            test_plan_target_remove_refresh;
        ] );
      ("properties", props);
    ]
