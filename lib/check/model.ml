(* The abstract transition system the checker explores: the pool-based
   executor under adversarial timing. A state maps every plan action to
   Idle / In_flight / Done over a configuration; the two transition
   kinds mirror the executor's observable commit points — starting an
   action (its claim becomes visible, an [Action_started] record is
   appended) and finishing it (its effect is applied *after* the
   terminal record, preserving the write-ahead order). Pools are
   barriers: only the current pool's actions may start, and draining a
   pool appends [Pool_committed] (then [Switch_end] after the last).

   Durations are abstracted away entirely — any interleaving of starts
   and finishes the barrier structure admits is reachable, which covers
   every timing the discrete-event executor (contention, slowdowns,
   pipelining) could produce and more. [accepts] replays the executor's
   own journal records through the same transitions. *)

open Entropy_core
module Record = Entropy_journal.Record
module Verifier = Entropy_analysis.Verifier

type ctx = {
  source : Configuration.t;
  target : Configuration.t;  (* sleeping locations normalized *)
  demand : Demand.t;
  vjobs : Vjob.t list;
  plan : Plan.t;
  actions : Action.t array;  (* pools flattened, global index *)
  pool_of : int array;
  n_pools : int;
  allowed_cpu : int array;
      (* capacity, or the source's own load where it already exceeded
         capacity: the relative-overload allowance *)
  allowed_mem : int array;
  costs : int array;  (* Table 1 local cost per action *)
  total_cost : int;
  invariants : Invariant.id list;
  switch : int;
}

type status = Idle | In_flight | Done_ok | Failed

(* done or failed: the action holds no claim and its pool may drain *)
let terminal_status = function
  | Done_ok | Failed -> true
  | Idle | In_flight -> false

type state = {
  config : Configuration.t;
  status : status array;
  pool : int;  (* current pool; [n_pools] once the switch completed *)
  cost : int;  (* cumulative Table 1 cost of finished actions *)
  nsteps : int;
  rev_steps : Witness.step list;
  rev_records : Record.t list;  (* newest first, [Switch_begin] last *)
}

let make_ctx ?(vjobs = []) ?(invariants = Invariant.all) ~source ~target
    ~demand plan =
  let target = Rgraph.normalize_sleeping ~current:source target in
  let pools = Plan.pools plan in
  let actions = Array.of_list (Plan.actions plan) in
  let pool_of = Array.make (Array.length actions) 0 in
  let n_pools = List.length pools in
  let i = ref 0 in
  List.iteri
    (fun p pool ->
      List.iter
        (fun _ ->
          pool_of.(!i) <- p;
          incr i)
        pool)
    pools;
  let n = Configuration.node_count source in
  let cpu, mem = Configuration.loads source demand in
  let allowed_cpu =
    Array.init n (fun i ->
        max (Node.cpu_capacity (Configuration.node source i)) cpu.(i))
  in
  let allowed_mem =
    Array.init n (fun i ->
        max (Node.memory_mb (Configuration.node source i)) mem.(i))
  in
  let costs = Array.map (Verifier.table1_action_cost source) actions in
  {
    source;
    target;
    demand;
    vjobs;
    plan;
    actions;
    pool_of;
    n_pools;
    allowed_cpu;
    allowed_mem;
    costs;
    total_cost = Array.fold_left ( + ) 0 costs;
    invariants;
    switch = 0;
  }

let want ctx inv = List.mem inv ctx.invariants

let init ctx =
  {
    config = ctx.source;
    status = Array.make (Array.length ctx.actions) Idle;
    pool = 0;
    cost = 0;
    nsteps = 0;
    rev_steps = [];
    rev_records =
      [
        Record.Switch_begin
          {
            switch = ctx.switch;
            at_s = 0.;
            source = ctx.source;
            target = ctx.target;
            plan = ctx.plan;
            demand = ctx.demand;
            seed = None;
          };
      ];
  }

let finished ctx state = state.pool >= ctx.n_pools

(* Canonical dedup key: per-action status plus the current pool. The
   configuration and cumulative cost are functions of the done set, so
   the status vector determines the whole state. *)
let key state =
  let n = Array.length state.status in
  let b = Bytes.create (n + 1) in
  Array.iteri
    (fun i s ->
      Bytes.unsafe_set b i
        (match s with
        | Idle -> '.' | In_flight -> '+' | Done_ok -> '#' | Failed -> 'x'))
    state.status;
  Bytes.set b n (Char.chr (state.pool land 0xff));
  Bytes.unsafe_to_string b

let enabled ctx state =
  if finished ctx state then []
  else begin
    let starts = ref [] and finishes = ref [] in
    for i = Array.length state.status - 1 downto 0 do
      match state.status.(i) with
      | Idle -> if ctx.pool_of.(i) = state.pool then starts := Witness.Start i :: !starts
      | In_flight -> finishes := Witness.Finish i :: !finishes
      | Done_ok | Failed -> ()
    done;
    !starts @ !finishes
  end

(* Two steps commute when they involve disjoint VMs and disjoint nodes:
   neither affects the other's enabledness, legality, or any per-node
   quantity the invariants read. Exploring one order of such a pair is
   enough (sleep-set pruning relies on exactly this relation). *)
let independent ctx a b =
  let ia = Witness.step_index a and ib = Witness.step_index b in
  ia <> ib
  &&
  let aa = ctx.actions.(ia) and ab = ctx.actions.(ib) in
  Action.vm aa <> Action.vm ab
  &&
  let nodes x =
    List.filter_map Fun.id [ Action.source x; Action.destination x ]
  in
  List.for_all (fun n -> not (List.mem n (nodes ab))) (nodes aa)

let violation invariant step detail = { Invariant.invariant; step; detail }

let fmt = Printf.sprintf
let action_str a = Format.asprintf "%a" Action.pp a

(* State invariants: evaluated at every explored state. *)
let state_violations ctx state =
  let vs = ref [] in
  (if want ctx Capacity then begin
     let cpu, mem = Configuration.loads state.config ctx.demand in
     Array.iteri
       (fun i s ->
         if s = In_flight then
           match Action.claim state.config ctx.demand ctx.actions.(i) with
           | None -> ()
           | Some (node, c, m) ->
             cpu.(node) <- cpu.(node) + c;
             mem.(node) <- mem.(node) + m)
       state.status;
     Array.iteri
       (fun node c ->
         if c > ctx.allowed_cpu.(node) then
           vs :=
             violation Capacity state.nsteps
               (fmt "node %d cpu load+claims %d exceeds allowance %d" node c
                  ctx.allowed_cpu.(node))
             :: !vs;
         if mem.(node) > ctx.allowed_mem.(node) then
           vs :=
             violation Capacity state.nsteps
               (fmt "node %d mem load+claims %d exceeds allowance %d" node
                  mem.(node) ctx.allowed_mem.(node))
             :: !vs)
       cpu
   end);
  (* a switch with a failed action is degraded, not complete: the repair
     chase, not the target, decides where it goes next *)
  if finished ctx state && not (Array.mem Failed state.status) then begin
    (if want ctx Termination then
       Array.iteri
         (fun vm _ ->
           let got = Configuration.state state.config vm in
           let wanted = Configuration.state ctx.target vm in
           if not (Configuration.equal_vm_state got wanted) then
             vs :=
               violation Termination state.nsteps
                 (Format.asprintf "vm %d ended %a, target wants %a" vm
                    Configuration.pp_vm_state got Configuration.pp_vm_state
                    wanted)
               :: !vs)
         (Configuration.vms state.config));
    if want ctx Cost_monotone && state.cost <> ctx.total_cost then
      vs :=
        violation Cost_monotone state.nsteps
          (fmt "executed cost %d differs from plan cost %d at switch end"
             state.cost ctx.total_cost)
        :: !vs
  end;
  List.rev !vs

(* Action [i] reached its terminal record [terminal] (at [nsteps]),
   leaving [config] and [cost]: the record precedes the configuration
   change, and every pool it drains appends its [Pool_committed]
   (the last also [Switch_end]). *)
let terminate ctx state ~status ~nsteps ~rev_steps ~terminal ~config ~cost =
  let at_s = float_of_int nsteps in
  let rev_records = terminal :: state.rev_records in
  let pool_done p =
    Array.for_all2 (fun q s -> q <> p || terminal_status s) ctx.pool_of status
  in
  let rec advance p rev_records =
    if p < ctx.n_pools && pool_done p then
      advance (p + 1)
        (Record.Pool_committed { switch = ctx.switch; pool = p; at_s }
        :: rev_records)
    else (p, rev_records)
  in
  let pool', rev_records =
    if pool_done state.pool then advance state.pool rev_records
    else (state.pool, rev_records)
  in
  let rev_records =
    if pool' >= ctx.n_pools then
      Record.Switch_end { switch = ctx.switch; at_s; aborted = false }
      :: rev_records
    else rev_records
  in
  { config; status; pool = pool'; cost; nsteps; rev_steps; rev_records }

let apply ctx state step =
  let vs = ref [] in
  let nsteps = state.nsteps + 1 in
  let at_s = float_of_int nsteps in
  let note inv detail = vs := violation inv state.nsteps detail :: !vs in
  let status = Array.copy state.status in
  let state' =
    match step with
    | Witness.Start i ->
      let a = ctx.actions.(i) in
      let vm = Action.vm a in
      (if want ctx Precedence then
         Array.iteri
           (fun j s ->
             if
               j < i && Action.vm ctx.actions.(j) = vm
               && not (terminal_status s)
             then
               note Precedence
                 (fmt "%s started before earlier action %d on vm %d finished"
                    (action_str a) j vm))
           state.status);
      (if want ctx Lifecycle then
         let lstate = Configuration.lifecycle state.config vm in
         if not (Lifecycle.can lstate (Action.transition a)) then
           note Lifecycle
             (fmt "%s illegal from life-cycle state %s" (action_str a)
                (Lifecycle.state_to_string lstate)));
      status.(i) <- In_flight;
      {
        state with
        status;
        nsteps;
        rev_steps = step :: state.rev_steps;
        rev_records =
          Record.Action_started
            {
              switch = ctx.switch;
              pool = ctx.pool_of.(i);
              attempt = 1;
              at_s;
              action = a;
            }
          :: state.rev_records;
      }
    | Witness.Finish i ->
      let a = ctx.actions.(i) in
      let pool = ctx.pool_of.(i) in
      status.(i) <- Done_ok;
      let config, terminal, cost =
        match Action.apply state.config a with
        | config ->
          ( config,
            Record.Action_done { switch = ctx.switch; pool; at_s; action = a },
            state.cost + ctx.costs.(i) )
        | exception Action.Invalid reason ->
          if want ctx Lifecycle then
            note Lifecycle (fmt "%s failed to apply: %s" (action_str a) reason);
          ( state.config,
            Record.Action_failed { switch = ctx.switch; pool; at_s; action = a },
            state.cost )
      in
      if want ctx Cost_monotone && cost > ctx.total_cost then
        note Cost_monotone
          (fmt "executed cost %d overshoots plan cost %d" cost ctx.total_cost);
      terminate ctx state ~status ~nsteps ~rev_steps:(step :: state.rev_steps)
        ~terminal ~config ~cost
  in
  (state', List.rev !vs)

type move = Step of Witness.step | Fail of int

(* The one replay fold, for a witness and for a journal alike: [next]
   names the move [x] makes from the current state, none (a record
   that changes no state), or refuses it, which ends the replay. Every
   transition and state violation along the way is collected, oldest
   first. *)
let replay ctx ~next xs =
  let rec go st acc = function
    | [] -> (st, List.rev acc, None)
    | x :: rest -> (
      match next st x with
      | Error e -> (st, List.rev acc, Some e)
      | Ok None -> go st acc rest
      | Ok (Some move) ->
        let st', tvs =
          match move with
          | Step s -> apply ctx st s
          | Fail i ->
            (* a journaled terminal failure, in flight or still idle (a
               lost node fails actions that never started): the
               configuration stays, and the action counts as drained;
               the witness trace does not record it *)
            let status = Array.copy st.status in
            status.(i) <- Failed;
            let nsteps = st.nsteps + 1 in
            let terminal =
              Record.Action_failed
                {
                  switch = ctx.switch;
                  pool = ctx.pool_of.(i);
                  at_s = float_of_int nsteps;
                  action = ctx.actions.(i);
                }
            in
            ( terminate ctx st ~status ~nsteps ~rev_steps:st.rev_steps
                ~terminal ~config:st.config ~cost:st.cost,
              [] )
        in
        go st'
          (List.rev_append (state_violations ctx st') (List.rev_append tvs acc))
          rest)
  in
  let st = init ctx in
  go st (List.rev (state_violations ctx st)) xs

(* -- journal acceptance --------------------------------------------------- *)

(* The first action of [pool] equal to [a] with status [st]. *)
let find ctx state ~pool a st =
  let rec go i =
    if i >= Array.length ctx.actions then None
    else if
      ctx.pool_of.(i) = pool && state.status.(i) = st
      && Action.equal ctx.actions.(i) a
    then Some i
    else go (i + 1)
  in
  go 0

let accepts ctx records =
  (* pools whose [Pool_committed] the journal wrote; the model drains
     them in order, so the next commit due is pool [!committed] *)
  let committed = ref 0 and ended = ref false in
  let refuse inv st r why =
    Error
      (violation inv st.nsteps
         (fmt "%s: %s" (Entropy_obs.Json.to_string (Record.to_json r)) why))
  in
  let action st r ~pool a =
    let first = find ctx st ~pool a in
    (* only the current pool's actions may start or fail idle *)
    let in_pool i move =
      if ctx.pool_of.(i) = st.pool then Ok (Some move)
      else refuse Precedence st r (fmt "pool %d has not drained" st.pool)
    in
    if !committed < st.pool then
      refuse Precedence st r
        (fmt "pool %d drained but not committed" !committed)
    else
      match (r, first In_flight, first Idle) with
      | Record.Action_started { attempt = 1; _ }, _, Some i ->
        in_pool i (Step (Witness.Start i))
      | Record.Action_started { attempt; _ }, Some _, _ when attempt > 1 ->
        Ok None
      | Record.Action_started _, _, _ ->
        refuse Lifecycle st r "no idle (attempt 1) or in-flight (retry) action"
      | Record.Action_done _, Some i, _ -> Ok (Some (Step (Witness.Finish i)))
      | Record.Action_failed _, Some i, _ -> Ok (Some (Fail i))
      | Record.Action_failed _, None, Some i -> in_pool i (Fail i)
      | Record.Action_done _, None, Some _ ->
        refuse Lifecycle st r "done with no start"
      | _ -> refuse Lifecycle st r "a second terminal record"
  in
  (* an aborted end: at a pool boundary, after a failure *)
  let boundary st =
    (not (finished ctx st))
    && Array.mem Failed st.status
    && Array.for_all2
         (fun p s -> p <> st.pool || s = Idle)
         ctx.pool_of st.status
  in
  let next st r =
    if !ended then refuse Termination st r "after Switch_end"
    else
      match r with
      | Record.Action_started { pool; action = a; _ }
      | Record.Action_done { pool; action = a; _ }
      | Record.Action_failed { pool; action = a; _ } ->
        action st r ~pool a
      | Record.Pool_committed { pool; _ } ->
        if pool = !committed && pool < st.pool then begin
          incr committed;
          Ok None
        end
        else
          refuse Precedence st r
            (fmt "not the next pool to commit (%d committed, %d drained)"
               !committed st.pool)
      | Record.Switch_end { aborted; _ } ->
        if
          !committed = st.pool
          && if aborted then boundary st else finished ctx st
        then begin
          ended := true;
          Ok None
        end
        else
          refuse Termination st r
            (if aborted then "not at a pool boundary after a failure"
             else fmt "pool %d has not drained and committed" !committed)
      | Record.Switch_begin _ -> refuse Lifecycle st r "a second Switch_begin"
      | Record.Submission _ | Record.Ladder _ -> Ok None
  in
  match replay ctx ~next records with
  | _, v :: _, _ | _, [], Some v -> Error v
  | st, [], None -> Ok st

let witness ?crash state =
  { Witness.steps = List.rev state.rev_steps; crash }

let records state = List.rev state.rev_records
