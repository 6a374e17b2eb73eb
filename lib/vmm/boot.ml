module Time = Horse_sim.Time_ns

type phase = Vmm_create | Kernel_boot | Runtime_init | Code_load | Handler_warmup

let all_phases =
  [ Vmm_create; Kernel_boot; Runtime_init; Code_load; Handler_warmup ]

let phase_name = function
  | Vmm_create -> "vmm-create"
  | Kernel_boot -> "kernel-boot"
  | Runtime_init -> "runtime-init"
  | Code_load -> "code-load"
  | Handler_warmup -> "handler-warmup"

type profile = {
  vmm_create_ms : float;
  kernel_boot_ms : float;
  runtime_init_ms : float;
  code_load_ms : float;
  handler_warmup_ms : float;
}

(* sums to 1500 ms — the Table-1 cold anchor *)
let firecracker_nodejs =
  {
    vmm_create_ms = 125.0;
    kernel_boot_ms = 410.0;
    runtime_init_ms = 640.0;
    code_load_ms = 210.0;
    handler_warmup_ms = 115.0;
  }

let phase_ms profile = function
  | Vmm_create -> profile.vmm_create_ms
  | Kernel_boot -> profile.kernel_boot_ms
  | Runtime_init -> profile.runtime_init_ms
  | Code_load -> profile.code_load_ms
  | Handler_warmup -> profile.handler_warmup_ms

let total profile =
  Time.span_ms
    (List.fold_left (fun acc p -> acc +. phase_ms profile p) 0.0 all_phases)

type strategy = Full_boot | Resume_after of phase

let strategy_name = function
  | Full_boot -> "full-boot"
  | Resume_after p -> "resume-after-" ^ phase_name p

let phase_index p =
  let rec find i = function
    | [] -> assert false
    | q :: rest -> if q = p then i else find (i + 1) rest
  in
  find 0 all_phases

let skipped_phases = function
  | Full_boot -> []
  | Resume_after p ->
    List.filteri (fun i _ -> i <= phase_index p) all_phases

let cost ?(snapshot_restore = Time.span_ms 1.3) profile strategy =
  match strategy with
  | Full_boot -> total profile
  | Resume_after p ->
    let remaining =
      List.filteri (fun i _ -> i > phase_index p) all_phases
      |> List.fold_left (fun acc q -> acc +. phase_ms profile q) 0.0
    in
    Time.add_span snapshot_restore (Time.span_ms remaining)
