let table ?caption ~header rows =
  let arity = List.length header in
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Report.table: ragged row")
    rows;
  let all = header :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map (fun _ -> 0) header)
      all
  in
  let pad cell width = cell ^ String.make (width - String.length cell) ' ' in
  let render_row row =
    "| " ^ String.concat " | " (List.map2 pad row widths) ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "+"
  in
  let buf = Buffer.create 256 in
  (match caption with
  | Some c ->
    Buffer.add_string buf c;
    Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_row header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.contents buf

let print ?caption ~header rows =
  print_string (table ?caption ~header rows);
  print_newline ()

let ns v =
  if v < 1_000.0 then Printf.sprintf "%.0fns" v
  else if v < 1_000_000.0 then Printf.sprintf "%.2fus" (v /. 1e3)
  else if v < 1_000_000_000.0 then Printf.sprintf "%.2fms" (v /. 1e6)
  else Printf.sprintf "%.3fs" (v /. 1e9)

let span s = ns (float_of_int (Horse_sim.Time_ns.span_to_ns s))

let pct v = Printf.sprintf "%.2f%%" v

let ratio v = Printf.sprintf "%.2fx" v
