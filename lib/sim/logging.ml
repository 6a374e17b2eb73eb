let installed = ref false

let reporter () =
  let report src level ~over k msgf =
    let k _ =
      over ();
      k ()
    in
    msgf @@ fun ?header:_ ?tags:_ fmt ->
    Format.kfprintf k Format.err_formatter
      ("[%s] %s: " ^^ fmt ^^ "@.")
      (Logs.level_to_string (Some level))
      (Logs.Src.name src)
  in
  { Logs.report }

let setup ?(level = Logs.Info) () =
  if not !installed then begin
    Logs.set_reporter (reporter ());
    installed := true
  end;
  Logs.set_level (Some level)

let known = Hashtbl.create 8

let src name =
  let full = "horse." ^ name in
  match Hashtbl.find_opt known full with
  | Some s -> s
  | None ->
    let s = Logs.Src.create full ~doc:("HORSE " ^ name ^ " subsystem") in
    Hashtbl.add known full s;
    s

let debug_enabled src =
  match Logs.Src.level src with
  | Some Logs.Debug -> true
  | Some (Logs.App | Logs.Error | Logs.Warning | Logs.Info) | None -> false
