(** A Firecracker-style management API over the hypervisor.

    Firecracker drives microVMs through an HTTP/JSON socket; the
    resume path of the paper starts at that boundary (step ①: "the
    input parameters associated with the resume command are parsed").
    This module implements the boundary for real: requests carry a
    method, a path and a JSON body; they are parsed, validated and
    dispatched onto {!Vmm}.  (Transport is the caller's business —
    tests and examples call {!Server.handle} directly.)

    Endpoints (multi-VM variant of the Firecracker surface):

    {v
    PUT   /vms/<id>/config   {"vcpu_count":N,"mem_size_mib":M,"ull":B}
    PUT   /vms/<id>/actions  {"action_type":"InstanceStart"}
    PATCH /vms/<id>/state    {"state":"Paused","strategy":"horse"}
    PATCH /vms/<id>/state    {"state":"Resumed"}
    GET   /vms/<id>
    v}

    Status codes follow the obvious mapping: 200/204 success, 400
    malformed request, 404 unknown VM, 409 lifecycle violation. *)

type meth = Get | Put | Patch

type request = { meth : meth; path : string; body : string }

type response = { status : int; body : Json.t }

type command =
  | Configure of { vm_id : string; vcpus : int; memory_mb : int; ull : bool }
  | Start of { vm_id : string }
  | Pause of { vm_id : string; strategy : Sandbox.strategy }
  | Resume of { vm_id : string }
  | Describe of { vm_id : string }

val parse_request : request -> (command, string) result
(** Pure parsing/validation — the paper's step ① in isolation.  The
    error string names the first problem found. *)

module Server : sig
  type t
  (** The management plane of one hypervisor: VM registry + dispatch. *)

  val create : vmm:Vmm.t -> unit -> t

  val handle : t -> request -> response
  (** Parse and execute one request.  Successful resumes report the
      resume time in the body ([{"resume_ns":N,...}]). *)

  val find_sandbox : t -> vm_id:string -> Sandbox.t option
  (** Test/introspection access to the registry. *)

  val vm_count : t -> int
end
