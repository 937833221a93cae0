(* The chunked state vector against a flat-array model. Configurations
   of 0, 1, 63, 64, 65 and 750 VMs (empty, one partial chunk, around the
   64-entry chunk boundary, burst scale) grow a tree of versions by
   random set_state, edit and Action.apply_all steps, each from a random
   earlier version. Every version must keep reading its own model after
   all the later writes (writes share chunks, never write them in
   place), and equal, running_on, ram_sleeping_on, running_vms and loads
   must agree with the model. *)

open Entropy_core

let node_count = 3
let sizes = [| 0; 1; 63; 64; 65; 750 |]

let base_config vm_count =
  let nodes =
    Array.init node_count (fun i ->
        Node.make ~id:i ~name:(Printf.sprintf "N%d" i) ~cpu_capacity:400
          ~memory_mb:4096)
  in
  let vms =
    Array.init vm_count (fun i ->
        Vm.make ~id:i ~name:(Printf.sprintf "VM%d" i)
          ~memory_mb:(256 * (1 + (i mod 3))))
  in
  Configuration.make ~nodes ~vms

let random_state rng =
  let n = Random.State.int rng node_count in
  match Random.State.int rng 5 with
  | 0 -> Configuration.Waiting
  | 1 -> Configuration.Running n
  | 2 -> Configuration.Sleeping n
  | 3 -> Configuration.Sleeping_ram n
  | _ -> Configuration.Terminated

(* An action valid on the model's current state, or (one time in six,
   or from Terminated) an arbitrary one that may be invalid. *)
let random_action rng model vm =
  let node () = Random.State.int rng node_count in
  let arbitrary () =
    match Random.State.int rng 3 with
    | 0 -> Action.Run { vm; dst = node () }
    | 1 -> Action.Stop { vm; host = node () }
    | _ -> Action.Resume { vm; src = node (); dst = node () }
  in
  if Random.State.int rng 6 = 0 then arbitrary ()
  else
    match model.(vm) with
    | Configuration.Waiting -> Action.Run { vm; dst = node () }
    | Configuration.Running h -> (
      match Random.State.int rng 4 with
      | 0 -> Action.Stop { vm; host = h }
      | 1 -> Action.Migrate { vm; src = h; dst = node () }
      | 2 -> Action.Suspend { vm; host = h }
      | _ -> Action.Suspend_ram { vm; host = h })
    | Configuration.Sleeping h -> Action.Resume { vm; src = h; dst = node () }
    | Configuration.Sleeping_ram h -> Action.Resume_ram { vm; host = h }
    | Configuration.Terminated -> arbitrary ()

(* The model's answer to an action list: the states it leads to, or
   None when some action does not apply to the state it meets. *)
let model_apply model actions =
  let m = Array.copy model in
  let ok =
    List.for_all
      (fun a ->
        let vm = Action.vm a in
        let expect s = Configuration.equal_vm_state m.(vm) s in
        let next =
          match a with
          | Action.Run { dst; _ } when expect Configuration.Waiting ->
            Some (Configuration.Running dst)
          | Action.Stop { host; _ } when expect (Configuration.Running host) ->
            Some Configuration.Terminated
          | Action.Migrate { src; dst; _ } when expect (Configuration.Running src)
            -> Some (Configuration.Running dst)
          | Action.Suspend { host; _ } when expect (Configuration.Running host) ->
            Some (Configuration.Sleeping host)
          | Action.Resume { src; dst; _ } when expect (Configuration.Sleeping src)
            -> Some (Configuration.Running dst)
          | Action.Suspend_ram { host; _ } when expect (Configuration.Running host)
            -> Some (Configuration.Sleeping_ram host)
          | Action.Resume_ram { host; _ }
            when expect (Configuration.Sleeping_ram host) ->
            Some (Configuration.Running host)
          | _ -> None
        in
        match next with
        | Some s ->
          m.(vm) <- s;
          true
        | None -> false)
      actions
  in
  if ok then Some m else None

let model_on model pick node =
  List.filter (fun vm -> pick model.(vm) = Some node)
    (List.init (Array.length model) Fun.id)

let running = function Configuration.Running n -> Some n | _ -> None
let ram = function Configuration.Sleeping_ram n -> Some n | _ -> None

let model_loads config demand model =
  let cpu = Array.make node_count 0 and mem = Array.make node_count 0 in
  Array.iteri
    (fun vm s ->
      let m = Vm.memory_mb (Configuration.vm config vm) in
      match s with
      | Configuration.Running n ->
        cpu.(n) <- cpu.(n) + Demand.cpu demand vm;
        mem.(n) <- mem.(n) + m
      | Configuration.Sleeping_ram n -> mem.(n) <- mem.(n) + m
      | _ -> ())
    model;
  (cpu, mem)

let reads_model config model =
  Configuration.vm_count config = Array.length model
  && Array.for_all Fun.id
       (Array.mapi
          (fun vm s -> Configuration.equal_vm_state (Configuration.state config vm) s)
          model)

let agrees config model =
  let demand =
    Demand.of_fn ~vm_count:(Array.length model) (fun vm -> 10 + (vm mod 7))
  in
  reads_model config model
  && List.for_all
       (fun n ->
         Configuration.running_on config n = model_on model running n
         && Configuration.ram_sleeping_on config n = model_on model ram n)
       (List.init node_count Fun.id)
  && Configuration.running_vms config
     = List.filter
         (fun vm -> running model.(vm) <> None)
         (List.init (Array.length model) Fun.id)
  && Configuration.loads config demand = model_loads config demand model
  (* a configuration rebuilt from the model shares no chunk with it *)
  && Configuration.equal config
       (Configuration.with_states (base_config (Array.length model)) model)

let model_test =
  QCheck.Test.make ~name:"chunked states agree with a flat model" ~count:120
    QCheck.(pair (int_bound (Array.length sizes - 1)) int)
    (fun (size, seed) ->
      let vm_count = sizes.(size) in
      let rng = Random.State.make [| seed; vm_count |] in
      let config = base_config vm_count in
      let versions = ref [ (config, Array.make vm_count Configuration.Waiting) ] in
      let some_vm () = Random.State.int rng vm_count in
      let ok = ref true in
      for _ = 1 to 12 do
        let parent, pmodel =
          List.nth !versions (Random.State.int rng (List.length !versions))
        in
        let child =
          if vm_count = 0 then Some (parent, pmodel)
          else
            match Random.State.int rng 3 with
            | 0 ->
              let vm = some_vm () and s = random_state rng in
              let m = Array.copy pmodel in
              m.(vm) <- s;
              Some (Configuration.set_state parent vm s, m)
            | 1 ->
              (* several writes, some to the same VM, read back inside
                 the edit *)
              let m = Array.copy pmodel in
              let writes =
                List.init (Random.State.int rng 20) (fun _ ->
                    (some_vm (), random_state rng))
              in
              let c =
                Configuration.edit parent (fun e ->
                    List.iter
                      (fun (vm, s) ->
                        Configuration.write e vm s;
                        m.(vm) <- s;
                        if
                          not
                            (Configuration.equal_vm_state
                               (Configuration.read e vm) s)
                        then ok := false)
                      writes)
              in
              if writes = [] && c != parent then ok := false;
              Some (c, m)
            | _ -> (
              let rec actions k m acc =
                if k = 0 then List.rev acc
                else
                  let a = random_action rng m (some_vm ()) in
                  let m = Option.value ~default:m (model_apply m [ a ]) in
                  actions (k - 1) m (a :: acc)
              in
              let actions = actions (1 + Random.State.int rng 8) pmodel [] in
              match
                (Action.apply_all parent actions, model_apply pmodel actions)
              with
              | c, Some m -> Some (c, m)
              | _, None -> ok := false; None
              | exception Action.Invalid _ ->
                (* the model agrees the list does not apply *)
                if model_apply pmodel actions <> None then ok := false;
                None)
        in
        match child with
        | Some (c, m) ->
          if not (agrees c m) then ok := false;
          if Configuration.equal c parent <> (m = pmodel) then ok := false;
          versions := (c, m) :: !versions
        | None -> ()
      done;
      (* every ancestor still reads its own model *)
      !ok && List.for_all (fun (c, m) -> reads_model c m) !versions)

(* One write on a 10,000-VM configuration copies the spine (157
   chunks) and one 64-entry chunk, each with its header, and builds the
   two small records around them (7 words; 230 in all): the state
   vector is never copied whole. *)
let test_set_state_words () =
  let config = base_config 10_000 in
  let s = Configuration.Running 1 in
  let words f =
    let before = Gc.minor_words () in
    let after_nothing = Gc.minor_words () in
    let r = f () in
    let after = Gc.minor_words () in
    (r, after -. after_nothing -. (after_nothing -. before))
  in
  let spine = (10_000 + Chunked.width - 1) / Chunked.width in
  let bound = float_of_int (spine + 1 + Chunked.width + 1 + 16) in
  let c, w = words (fun () -> Configuration.set_state config 5_000 s) in
  Alcotest.(check bool)
    (Printf.sprintf "set_state: %.0f words, at most %.0f" w bound)
    true (w <= bound);
  Alcotest.(check bool) "written" true
    (Configuration.equal_vm_state (Configuration.state c 5_000) s);
  Alcotest.(check bool) "original unchanged" true
    (Configuration.equal_vm_state (Configuration.state config 5_000)
       Configuration.Waiting)

let () =
  Alcotest.run "entropy_core_chunked"
    [
      ("model", [ QCheck_alcotest.to_alcotest ~long:false model_test ]);
      ( "alloc",
        [ Alcotest.test_case "set_state on 10k VMs" `Quick test_set_state_words ] );
    ]
