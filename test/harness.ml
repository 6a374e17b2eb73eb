(* Model-based testing harness shared by the test executables.

   A [spec] describes how to generate one operation, how to print it,
   and how to build a fresh system-under-test paired with its pure
   oracle.  [check] drives seeded random operation scripts through the
   pair; on divergence it shrinks the script to a (locally) minimal
   failing one and fails the Alcotest case with the replay seed and
   the shrunk script, so the failure is reproducible by pasting the
   seed back in.

   Setting HORSE_STRESS=1 multiplies both the script count and the
   script length by 10 (see `make test-stress`); the plain `dune
   runtest` tier stays fast. *)

type 'op spec = {
  name : string;  (** printed in failure reports *)
  gen : Random.State.t -> 'op;  (** draw one operation *)
  show : 'op -> string;  (** render one operation for the report *)
  make : unit -> 'op -> string option;
      (** build a fresh SUT + oracle; the returned closure applies one
          operation to both and returns [Some divergence] the moment
          they disagree *)
}

(* ------------------------------------------------------------------ *)
(* Running and shrinking scripts                                       *)
(* ------------------------------------------------------------------ *)

(* First divergence of [ops], as (index, description). *)
let run spec ops =
  let step = spec.make () in
  let rec go i = function
    | [] -> None
    | op :: rest -> (
      match step op with
      | Some why -> Some (i, why)
      | None -> go (i + 1) rest)
  in
  go 0 ops

let fails spec ops = run spec ops <> None

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* Truncate to the failing prefix, then greedily delete single
   operations until no deletion keeps the script failing.  The result
   is 1-minimal: every operation left is necessary. *)
let shrink spec ops =
  let ops =
    match run spec ops with
    | None -> ops
    | Some (i, _) -> List.filteri (fun j _ -> j <= i) ops
  in
  let rec pass ops i shrunk_any =
    if i >= List.length ops then (ops, shrunk_any)
    else
      let candidate = drop_nth ops i in
      if fails spec candidate then pass candidate i true
      else pass ops (i + 1) shrunk_any
  in
  let rec fixpoint ops =
    let ops, shrunk_any = pass ops 0 false in
    if shrunk_any then fixpoint ops else ops
  in
  fixpoint ops

(* ------------------------------------------------------------------ *)
(* Stress scaling                                                      *)
(* ------------------------------------------------------------------ *)

let stress_active () =
  match Sys.getenv_opt "HORSE_STRESS" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let scale n = if stress_active () then 10 * n else n

(* ------------------------------------------------------------------ *)
(* The check driver                                                    *)
(* ------------------------------------------------------------------ *)

let script_of_seed spec ~seed ~len =
  let st = Random.State.make [| seed |] in
  List.init len (fun _ -> spec.gen st)

let check ?(seeds = [ 1; 42; 1337 ]) ?(scripts = 25) ?(len = 60) spec =
  let scripts = scale scripts and len = scale len in
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      for script_i = 1 to scripts do
        let n = 1 + Random.State.int st len in
        let ops = List.init n (fun _ -> spec.gen st) in
        match run spec ops with
        | None -> ()
        | Some (i, why) ->
          let small = shrink spec ops in
          let why =
            match run spec small with Some (_, w) -> w | None -> why
          in
          Alcotest.failf
            "%s diverged: %s\n\
             seed %d, script %d of %d, first failure at op %d of %d\n\
             shrunk to %d op(s): [%s]\n\
             replay with Harness.check ~seeds:[%d] ..."
            spec.name why seed script_i scripts i n (List.length small)
            (String.concat "; " (List.map spec.show small))
            seed
      done)
    seeds

(* ------------------------------------------------------------------ *)
(* Random DAGs with shrinking                                          *)
(* ------------------------------------------------------------------ *)

module Dag = struct
  type shape = { nodes : int; edges : (int * int) list }

  let normalize nodes edges =
    {
      nodes;
      edges =
        List.sort_uniq compare
          (List.filter (fun (s, d) -> s >= 0 && s < d && d < nodes) edges);
    }

  (* Four families: chains exercise fusion end to end, diamonds
     exercise fan-out + fan-in joins, fan-outs exercise wide
     same-instant dispatch, and random forward-edge DAGs fill in the
     shapes nobody thought of.  Forward edges only, so every draw is
     acyclic by construction. *)
  let gen st ~max_nodes =
    let n = 1 + Random.State.int st max_nodes in
    match Random.State.int st 4 with
    | 0 -> normalize n (List.init (n - 1) (fun i -> (i, i + 1)))
    | 1 when n >= 3 ->
      (* diamond: source -> middles -> sink *)
      let middles = List.init (n - 2) (fun i -> i + 1) in
      normalize n
        (List.map (fun m -> (0, m)) middles
        @ List.map (fun m -> (m, n - 1)) middles)
    | 2 when n >= 2 ->
      (* fan-out: one root, all others depend on it *)
      normalize n (List.init (n - 1) (fun i -> (0, i + 1)))
    | _ ->
      (* random: each node draws up to 3 forward deps *)
      let edges = ref [] in
      for d = 1 to n - 1 do
        let k = 1 + Random.State.int st (min 3 d) in
        for _ = 1 to k do
          edges := (Random.State.int st d, d) :: !edges
        done
      done;
      normalize n !edges

  let show { nodes; edges } =
    Printf.sprintf "{n=%d; %s}" nodes
      (String.concat " "
         (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) edges))

  let drop_node { nodes; edges } v =
    let shiftv x = if x > v then x - 1 else x in
    normalize (nodes - 1)
      (List.filter_map
         (fun (s, d) ->
           if s = v || d = v then None else Some (shiftv s, shiftv d))
         edges)

  (* Greedy 1-minimization, same discipline as [shrink] on scripts:
     node deletions first (each removes its edges too), then single
     edge deletions, to a fixpoint. *)
  let shrink fails shape =
    if not (fails shape) then shape
    else begin
      let rec node_pass shape v shrunk =
        if shape.nodes <= 1 || v >= shape.nodes then (shape, shrunk)
        else
          let candidate = drop_node shape v in
          if fails candidate then node_pass candidate v true
          else node_pass shape (v + 1) shrunk
      in
      let rec edge_pass shape i shrunk =
        if i >= List.length shape.edges then (shape, shrunk)
        else
          let candidate =
            { shape with edges = List.filteri (fun j _ -> j <> i) shape.edges }
          in
          if fails candidate then edge_pass candidate i true
          else edge_pass shape (i + 1) shrunk
      in
      let rec fixpoint shape =
        let shape, a = node_pass shape 0 false in
        let shape, b = edge_pass shape 0 false in
        if a || b then fixpoint shape else shape
      in
      fixpoint shape
    end

  let check ?(seeds = [ 1; 42; 1337 ]) ?(count = 12) ?(max_nodes = 8) ~name
      prop =
    let count = scale count in
    List.iter
      (fun seed ->
        let st = Random.State.make [| seed |] in
        for shape_i = 1 to count do
          let shape = gen st ~max_nodes in
          match prop shape with
          | None -> ()
          | Some why ->
            let small = shrink (fun s -> prop s <> None) shape in
            let why =
              match prop small with Some w -> w | None -> why
            in
            Alcotest.failf
              "%s diverged: %s\n\
               seed %d, graph %d of %d: %s\n\
               shrunk to %s"
              name why seed shape_i count (show shape) (show small)
        done)
      seeds
end

(* ------------------------------------------------------------------ *)
(* State snapshots for exception-safety audits                         *)
(* ------------------------------------------------------------------ *)

module Snapshot = struct
  type t = (string * string) list

  let capture fields = fields

  let diff before after =
    let seen = Hashtbl.create 16 in
    List.iter (fun (k, v) -> Hashtbl.replace seen k v) before;
    let diffs = ref [] in
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt seen k with
        | Some v0 ->
          Hashtbl.remove seen k;
          if v0 <> v then
            diffs := Printf.sprintf "%s: %s -> %s" k v0 v :: !diffs
        | None -> diffs := Printf.sprintf "%s: (absent) -> %s" k v :: !diffs)
      after;
    Hashtbl.iter
      (fun k v -> diffs := Printf.sprintf "%s: %s -> (absent)" k v :: !diffs)
      seen;
    match List.sort compare !diffs with
    | [] -> None
    | ds -> Some (String.concat "; " ds)
end

(* Boxed views of completed invocations, for tests that compare whole
   runs: each arena row materialized through [record_of_slot]. *)
module Records = struct
  module Platform = Horse_faas.Platform
  module Cluster = Horse_faas.Cluster

  let of_platform p =
    List.init (Platform.record_count p) (Platform.record_of_slot p)

  let of_cluster c =
    let l = ref [] in
    Cluster.iter_records c (fun server slot ->
        let record = Platform.record_of_slot (Cluster.server c server) slot in
        l := (server, record) :: !l);
    List.rev !l
end
