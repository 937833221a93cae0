(* The VM context-switch actions (section 2.2), extended with the
   suspend-to-RAM pair the paper names as future work (section 7). Each
   action is an edge of the reconfiguration graph: it frees resources on
   a source node and/or claims resources on a destination node.

   Feasibility (section 4.1): suspend, suspend-to-RAM and stop always
   are; run, resume and migrate require enough free CPU and memory on
   the destination under the *current* (possibly intermediate)
   configuration; a RAM resume only claims CPU — the memory never left
   the host. *)

type t =
  | Run of { vm : Vm.id; dst : Node.id }
  | Stop of { vm : Vm.id; host : Node.id }
  | Migrate of { vm : Vm.id; src : Node.id; dst : Node.id }
  | Suspend of { vm : Vm.id; host : Node.id }
  | Resume of { vm : Vm.id; src : Node.id; dst : Node.id }
  | Suspend_ram of { vm : Vm.id; host : Node.id }
  | Resume_ram of { vm : Vm.id; host : Node.id }

let vm = function
  | Run { vm; _ }
  | Stop { vm; _ }
  | Migrate { vm; _ }
  | Suspend { vm; _ }
  | Resume { vm; _ }
  | Suspend_ram { vm; _ }
  | Resume_ram { vm; _ } -> vm

let destination = function
  | Run { dst; _ } | Migrate { dst; _ } | Resume { dst; _ } -> Some dst
  | Resume_ram { host; _ } -> Some host
  | Stop _ | Suspend _ | Suspend_ram _ -> None

let source = function
  | Migrate { src; _ } -> Some src
  | Stop { host; _ } | Suspend { host; _ } | Suspend_ram { host; _ } ->
    Some host
  | Resume { src; _ } -> Some src
  | Resume_ram { host; _ } -> Some host
  | Run _ -> None

let is_local = function
  | Resume { src; dst; _ } -> src = dst
  | Run _ | Stop _ | Suspend _ | Suspend_ram _ | Resume_ram _ -> true
  | Migrate _ -> false

let transition = function
  | Run _ -> Lifecycle.Run
  | Stop _ -> Lifecycle.Stop
  | Migrate _ -> Lifecycle.Migrate
  | Suspend _ | Suspend_ram _ -> Lifecycle.Suspend
  | Resume _ | Resume_ram _ -> Lifecycle.Resume

(* Resources the action claims on its destination: [(node, cpu, mem)].
   A RAM resume claims no memory (it never left the host); a same-node
   migration claims nothing. *)
let claim config demand action =
  let cpu_mem vm =
    ( Demand.cpu demand vm,
      Vm.memory_mb (Configuration.vm config vm) )
  in
  match action with
  | Stop _ | Suspend _ | Suspend_ram _ -> None
  | Run { vm; dst } | Resume { vm; dst; _ } ->
    let cpu, mem = cpu_mem vm in
    Some (dst, cpu, mem)
  | Migrate { vm; src; dst } ->
    if src = dst then None
    else
      let cpu, mem = cpu_mem vm in
      Some (dst, cpu, mem)
  | Resume_ram { vm; host } -> Some (host, Demand.cpu demand vm, 0)

let feasible config demand action =
  match claim config demand action with
  | None -> true
  | Some (node, cpu, mem) -> Configuration.fits config demand ~cpu ~mem node

exception Invalid of string

let invalid fmt = Fmt.kstr (fun s -> raise (Invalid s)) fmt

(* Apply one action to an edit, checking the source state. *)
let apply_in e action =
  let check vm expected =
    let got = Configuration.read e vm in
    if not (Configuration.equal_vm_state got expected) then
      invalid "action on VM %d: expected state %a, found %a" vm
        Configuration.pp_vm_state expected Configuration.pp_vm_state got
  in
  match action with
  | Run { vm; dst } ->
    check vm Configuration.Waiting;
    Configuration.write e vm (Configuration.Running dst)
  | Stop { vm; host } ->
    check vm (Configuration.Running host);
    Configuration.write e vm Configuration.Terminated
  | Migrate { vm; src; dst } ->
    check vm (Configuration.Running src);
    Configuration.write e vm (Configuration.Running dst)
  | Suspend { vm; host } ->
    check vm (Configuration.Running host);
    Configuration.write e vm (Configuration.Sleeping host)
  | Resume { vm; src; dst } ->
    check vm (Configuration.Sleeping src);
    Configuration.write e vm (Configuration.Running dst)
  | Suspend_ram { vm; host } ->
    check vm (Configuration.Running host);
    Configuration.write e vm (Configuration.Sleeping_ram host)
  | Resume_ram { vm; host } ->
    check vm (Configuration.Sleeping_ram host);
    Configuration.write e vm (Configuration.Running host)

let apply_all config actions =
  Configuration.edit config (fun e -> List.iter (apply_in e) actions)

let apply config action = apply_all config [ action ]

let equal (a : t) b = a = b

let pp ppf = function
  | Run { vm; dst } -> Fmt.pf ppf "run(VM%d->N%d)" vm dst
  | Stop { vm; host } -> Fmt.pf ppf "stop(VM%d@@N%d)" vm host
  | Migrate { vm; src; dst } -> Fmt.pf ppf "migrate(VM%d:N%d->N%d)" vm src dst
  | Suspend { vm; host } -> Fmt.pf ppf "suspend(VM%d@@N%d)" vm host
  | Resume { vm; src; dst } -> Fmt.pf ppf "resume(VM%d:N%d->N%d)" vm src dst
  | Suspend_ram { vm; host } -> Fmt.pf ppf "suspend-ram(VM%d@@N%d)" vm host
  | Resume_ram { vm; host } -> Fmt.pf ppf "resume-ram(VM%d@@N%d)" vm host
