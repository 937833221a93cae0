(* The checker driver: depth-first stateless exploration of the
   abstract switch model with visited-state dedup and sleep-set
   pruning, crash-state exploration at every state, optional
   conformance runs on the real executor, and ddmin minimization of
   the first counterexample. *)

open Entropy_core
module Json = Entropy_obs.Json

type limits = {
  depth : int;
  max_states : int;
  max_crash_checks : int;
  max_violations : int;
  exhaustive : bool;
  crash : bool;
  torn : bool;
  sim_runs : int;
}

let default_limits =
  {
    depth = 8;
    max_states = 200_000;
    max_crash_checks = 4_000;
    max_violations = 16;
    exhaustive = false;
    crash = true;
    torn = true;
    sim_runs = 8;
  }

type stats = {
  mutable states : int;
  mutable transitions : int;
  mutable deduped : int;
  mutable sleep_pruned : int;
  mutable crash_checks : int;
  mutable torn_cuts : int;
  mutable sim_runs : int;
  mutable sim_decision_points : int;
  mutable elapsed_s : float;
}

let new_stats () =
  {
    states = 0;
    transitions = 0;
    deduped = 0;
    sleep_pruned = 0;
    crash_checks = 0;
    torn_cuts = 0;
    sim_runs = 0;
    sim_decision_points = 0;
    elapsed_s = 0.;
  }

type counterexample = {
  violation : Invariant.violation;
  witness : Witness.t;
  minimized : Witness.t;
}

type report = {
  violations : Invariant.violation list;
  counterexample : counterexample option;
  stats : stats;
  complete : bool;
  invariants : Invariant.id list;
  action_count : int;
  pool_count : int;
}

(* -- witness replay --------------------------------------------------------- *)

(* Replay a witness on the model: every step must be enabled (an
   inexecutable schedule yields [None]); otherwise all violations seen
   along the way — transition, state, and crash-spec checks at the
   final state — in order. *)
let replay ctx (w : Witness.t) =
  let next st step =
    if List.exists (Witness.step_equal step) (Model.enabled ctx st) then
      Ok (Some (Model.Step step))
    else Error ()
  in
  match Model.replay ctx ~next w.steps with
  | _, _, Some () -> None
  | state, vs, None ->
    let crash_vs =
      match w.crash with
      | None -> []
      | Some c -> Crash.check_spec ctx state c
    in
    Some (vs @ crash_vs)

(* -- exploration ------------------------------------------------------------ *)

exception Stop_exploring

let subset small big =
  List.for_all (fun x -> List.exists (Witness.step_equal x) big) small

let explore ctx limits stats note =
  (* visited: state key -> sleep sets it was expanded under; a revisit
     whose sleep set is a superset of a stored one cannot reach
     anything new *)
  let visited : (string, Witness.step list list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let crash_seen : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  (* exhaustive means exhaustive: no crash budget *)
  let crash_budget =
    ref (if limits.exhaustive then max_int else limits.max_crash_checks)
  in
  let crash_checks = ref 0 and torn_cuts = ref 0 in
  let complete = ref true in
  let rec go state sleep =
    if stats.states >= limits.max_states then begin
      complete := false
    end
    else begin
      let k = Model.key state in
      let stored = Option.value ~default:[] (Hashtbl.find_opt visited k) in
      if List.exists (fun s -> subset s sleep) stored then
        stats.deduped <- stats.deduped + 1
      else begin
        Hashtbl.replace visited k (sleep :: stored);
        let first_visit = stored = [] in
        if first_visit then begin
          stats.states <- stats.states + 1;
          List.iter
            (fun v -> note (Model.witness state) v)
            (Model.state_violations ctx state);
          if limits.crash then begin
            List.iter
              (fun (crash, v) -> note (Model.witness ~crash state) v)
              (Crash.explore ctx state ~torn:limits.torn
                 ~exhaustive:limits.exhaustive ~seen:crash_seen
                 ~budget:crash_budget ~crash_checks ~torn_cuts);
            if !crash_budget <= 0 then complete := false
          end
        end;
        let en = Model.enabled ctx state in
        if en <> [] then begin
          let branching =
            limits.exhaustive || state.Model.nsteps < limits.depth
          in
          if branching then begin
            let explored = ref [] in
            List.iter
              (fun step ->
                if
                  (not limits.exhaustive)
                  && List.exists (Witness.step_equal step) sleep
                then stats.sleep_pruned <- stats.sleep_pruned + 1
                else begin
                  stats.transitions <- stats.transitions + 1;
                  let st', tvs = Model.apply ctx state step in
                  List.iter (fun v -> note (Model.witness st') v) tvs;
                  let child_sleep =
                    if limits.exhaustive then []
                    else
                      List.filter
                        (fun u -> Model.independent ctx u step)
                        (!explored @ sleep)
                  in
                  go st' child_sleep;
                  explored := step :: !explored
                end)
              en
          end
          else begin
            (* past the branching depth: follow the canonical schedule *)
            complete := false;
            let step = List.hd en in
            stats.transitions <- stats.transitions + 1;
            let st', tvs = Model.apply ctx state step in
            List.iter (fun v -> note (Model.witness st') v) tvs;
            go st' []
          end
        end
      end
    end
  in
  (try go (Model.init ctx) [] with Stop_exploring -> complete := false);
  stats.crash_checks <- !crash_checks;
  stats.torn_cuts <- !torn_cuts;
  !complete

(* -- driver ----------------------------------------------------------------- *)

let check ?(vjobs = []) ?(invariants = Invariant.all) ?(limits = default_limits)
    ~source ~target ~demand plan =
  let ctx = Model.make_ctx ~vjobs ~invariants ~source ~target ~demand plan in
  let stats = new_stats () in
  let t0 = Sys.time () in
  let seen_violations : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  let first : (Invariant.violation * Witness.t) option ref = ref None in
  let count = ref 0 in
  let note witness (v : Invariant.violation) =
    let key = Invariant.to_string v.invariant ^ "|" ^ v.detail in
    if not (Hashtbl.mem seen_violations key) then begin
      Hashtbl.add seen_violations key ();
      violations := v :: !violations;
      if !first = None then first := Some (v, witness);
      incr count;
      Log.debug (fun m ->
          m "violation %a (witness %a)" Invariant.pp_violation v Witness.pp
            witness);
      if !count >= limits.max_violations then raise Stop_exploring
    end
  in
  let complete = explore ctx limits stats note in
  (* conformance runs on the real executor *)
  let sim_complete =
    if limits.sim_runs > 0 then begin
      let sim = Sim_check.run ctx ~max_runs:limits.sim_runs in
      stats.sim_runs <- sim.Sim_check.runs;
      stats.sim_decision_points <- sim.Sim_check.decision_points;
      (try
         List.iter
           (fun (v, choices) ->
             let v =
               {
                 v with
                 Invariant.detail =
                   Printf.sprintf "%s (tie-breaks [%s])" v.Invariant.detail
                     (String.concat ";" (List.map string_of_int choices));
               }
             in
             note { Witness.steps = []; crash = None } v)
           sim.Sim_check.violations
       with Stop_exploring -> ());
      sim.Sim_check.complete
    end
    else true
  in
  (* minimize the first counterexample that has a real witness *)
  let counterexample =
    match !first with
    | Some (v, w) when w.Witness.steps <> [] || w.Witness.crash <> None ->
      let inv = v.Invariant.invariant in
      let reproduces cand =
        match replay ctx cand with
        | None -> false
        | Some vs ->
          List.exists (fun v' -> v'.Invariant.invariant = inv) vs
      in
      let minimized = if reproduces w then Shrink.minimize ~reproduces w else w in
      Some { violation = v; witness = w; minimized }
    | _ -> None
  in
  stats.elapsed_s <- Sys.time () -. t0;
  {
    violations = List.rev !violations;
    counterexample;
    stats;
    complete = complete && sim_complete;
    invariants;
    action_count = Plan.action_count plan;
    pool_count = Plan.pool_count plan;
  }

let states_per_sec r =
  float_of_int r.stats.states /. Float.max r.stats.elapsed_s 1e-9

let report_to_json r =
  let v_json (v : Invariant.violation) =
    Json.Obj
      [
        ("invariant", Json.String (Invariant.to_string v.invariant));
        ("step", Json.Int v.step);
        ("detail", Json.String v.detail);
      ]
  in
  Json.Obj
    [
      ("actions", Json.Int r.action_count);
      ("pools", Json.Int r.pool_count);
      ( "invariants",
        Json.List
          (List.map
             (fun i -> Json.String (Invariant.to_string i))
             r.invariants) );
      ("complete", Json.Bool r.complete);
      ("states", Json.Int r.stats.states);
      ("transitions", Json.Int r.stats.transitions);
      ("deduped", Json.Int r.stats.deduped);
      ("sleep_pruned", Json.Int r.stats.sleep_pruned);
      ("crash_checks", Json.Int r.stats.crash_checks);
      ("torn_cuts", Json.Int r.stats.torn_cuts);
      ("sim_runs", Json.Int r.stats.sim_runs);
      ("sim_decision_points", Json.Int r.stats.sim_decision_points);
      ("elapsed_s", Json.Float r.stats.elapsed_s);
      ("states_per_sec", Json.Float (states_per_sec r));
      ("violations", Json.Int (List.length r.violations));
      ("violation_details", Json.List (List.map v_json r.violations));
      ( "counterexample",
        match r.counterexample with
        | None -> Json.Null
        | Some c ->
          Json.Obj
            [
              ( "invariant",
                Json.String (Invariant.to_string c.violation.Invariant.invariant)
              );
              ("detail", Json.String c.violation.Invariant.detail);
              ("witness", Witness.to_json c.witness);
              ("minimized", Witness.to_json c.minimized);
              ( "minimized_steps",
                Json.Int (List.length c.minimized.Witness.steps) );
            ] );
    ]

let pp_report ppf r =
  Format.fprintf ppf
    "model check: %d actions / %d pools, %d states, %d transitions (%d \
     deduped, %d sleep-pruned), %d crash cuts, %d torn cuts, %d sim runs \
     (%d decision points), %.3f s (%.0f states/s)%s@."
    r.action_count r.pool_count r.stats.states r.stats.transitions
    r.stats.deduped r.stats.sleep_pruned r.stats.crash_checks
    r.stats.torn_cuts r.stats.sim_runs r.stats.sim_decision_points
    r.stats.elapsed_s (states_per_sec r)
    (if r.complete then "" else " [bounded: state space not exhausted]");
  match r.violations with
  | [] -> Format.fprintf ppf "0 violations@."
  | vs ->
    Format.fprintf ppf "%d violation(s):@." (List.length vs);
    List.iter
      (fun v -> Format.fprintf ppf "  %a@." Invariant.pp_violation v)
      vs;
    match r.counterexample with
    | None -> ()
    | Some c ->
      Format.fprintf ppf "counterexample (%d steps, minimized to %d): %a@."
        (List.length c.witness.Witness.steps)
        (List.length c.minimized.Witness.steps)
        Witness.pp c.minimized
