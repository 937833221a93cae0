(* Propagator sanitizer for the hand-rolled CP kernel (lib/cp).

   The kernel trusts its propagators on four contracts that nothing
   enforced until now:

   - trail safety: every domain narrowing and every trailed int cell is
     restored exactly by [Store.undo_to] — a propagator mutating a
     domain behind the store's back (or keeping untrailed incremental
     state) drifts from the search tree;
   - idempotence at fixpoint: once [Store.propagate] returns, re-running
     any propagator must not prune further — if it does, the propagator
     silently relied on a wake-up it never subscribed to;
   - no silent wipeout: an empty domain must surface as
     [Store.Inconsistent], never as a dead store;
   - subscription soundness: a propagator must only read variables it
     subscribed to — an unsubscribed read is pruning-relevant state the
     propagator will never be woken on.

   The checks are behavioural: the probe drives a posted model through
   randomized mark / instantiate / propagate / undo cycles (exactly the
   cycle the search performs) and compares full domain snapshots. A
   descent is replayed twice from the same mark: any divergence proves
   hidden state that backtracking did not restore, which catches
   trailed-cell corruption even though propagator internals are not
   observable. Reads are tracked through [Var.read_hook], scoped to
   each propagator run. *)

open Fdcp

type finding =
  | Trail_corruption of { var : string; before : string; after : string }
  | Non_idempotent of { prop : string; var : string; before : string; after : string }
  | Late_failure of { prop : string; message : string }
  | Silent_wipeout of { var : string }
  | Unsubscribed_read of { prop : string; var : string }
  | Replay_divergence of { var : string; first : string; second : string }

let pp_finding ppf = function
  | Trail_corruption { var; before; after } ->
    Fmt.pf ppf "trail corruption: %s was %s before the descent, %s after undo"
      var before after
  | Non_idempotent { prop; var; before; after } ->
    Fmt.pf ppf "%s not idempotent at fixpoint: re-run narrowed %s from %s to %s"
      prop var before after
  | Late_failure { prop; message } ->
    Fmt.pf ppf "%s fails when re-run at a consistent fixpoint: %s" prop message
  | Silent_wipeout { var } ->
    Fmt.pf ppf "silent wipeout: %s is empty but propagate returned normally"
      var
  | Unsubscribed_read { prop; var } ->
    Fmt.pf ppf "%s reads %s without any subscription on it" prop var
  | Replay_divergence { var; first; second } ->
    Fmt.pf ppf "replaying the same descent diverged on %s: %s then %s" var
      first second

let dom_str d = Fmt.str "%a" Dom.pp d

(* -- propagator discovery -------------------------------------------------- *)

module Int_set = Set.Make (Int)

(* Every propagator reachable from the store's variables, with the set
   of variable ids it subscribed to. *)
let discover vars =
  let by_id = Hashtbl.create 32 in
  List.iter
    (fun (v : Var.t) ->
      List.iter
        (fun (_mask, (p : Prop.t)) ->
          let subs =
            match Hashtbl.find_opt by_id p.Prop.id with
            | Some (_, subs) -> subs
            | None -> Int_set.empty
          in
          Hashtbl.replace by_id p.Prop.id (p, Int_set.add v.Var.id subs))
        v.Var.watchers)
    vars;
  Hashtbl.fold (fun _ pv acc -> pv :: acc) by_id []
  |> List.sort (fun ((a : Prop.t), _) ((b : Prop.t), _) ->
         Int.compare a.Prop.id b.Prop.id)

(* -- the probe ------------------------------------------------------------- *)

type outcome = Solved of Dom.t array | Failed of string

let outcome_equal a b =
  match (a, b) with
  | Solved x, Solved y ->
    Array.length x = Array.length y
    &&
    let ok = ref true in
    Array.iteri (fun i d -> if not (Dom.equal d y.(i)) then ok := false) x;
    !ok
  | Failed x, Failed y -> x = y
  | Solved _, Failed _ | Failed _, Solved _ -> false

let probe ?(steps = 40) ?(seed = 0) store =
  let rng = Random.State.make [| 0x5a17; seed |] in
  let findings = ref [] in
  let noted = Hashtbl.create 16 in
  (* findings repeat along a probe; keep the first of each shape *)
  let note key f =
    if not (Hashtbl.mem noted key) then begin
      Hashtbl.replace noted key ();
      findings := f :: !findings
    end
  in
  let vars = Array.of_list (Store.vars store) in
  let props = discover (Array.to_list vars) in
  (* read tracking, scoped to each propagator's run *)
  let originals = List.map (fun ((p : Prop.t), _) -> (p, p.Prop.run)) props in
  List.iter
    (fun ((p : Prop.t), subs) ->
      let orig = p.Prop.run in
      p.Prop.run <-
        (fun () ->
          let saved = !Var.read_hook in
          Var.read_hook :=
            Some
              (fun v ->
                if not (Int_set.mem v.Var.id subs) then
                  note
                    ("read", p.Prop.name, p.Prop.id, v.Var.id)
                    (Unsubscribed_read
                       { prop = Fmt.str "%a" Prop.pp p; var = Var.name v }));
          Fun.protect
            ~finally:(fun () -> Var.read_hook := saved)
            orig))
    props;
  let snapshot () = Array.map (fun (v : Var.t) -> v.Var.dom) vars in
  let check_wipeout () =
    Array.iter
      (fun (v : Var.t) ->
        if Dom.is_empty v.Var.dom then
          note ("wipeout", "", 0, v.Var.id)
            (Silent_wipeout { var = Var.name v }))
      vars
  in
  let compare_snapshots kind before after =
    Array.iteri
      (fun i d ->
        if not (Dom.equal d after.(i)) then begin
          let v = vars.(i) in
          match kind with
          | `Trail ->
            note ("trail", "", 0, v.Var.id)
              (Trail_corruption
                 {
                   var = Var.name v;
                   before = dom_str d;
                   after = dom_str after.(i);
                 })
          | `Replay ->
            note ("replay", "", 0, v.Var.id)
              (Replay_divergence
                 {
                   var = Var.name v;
                   first = dom_str d;
                   second = dom_str after.(i);
                 })
        end)
      before
  in
  (* idempotence: at a consistent fixpoint, re-scheduling any single
     propagator must neither prune nor fail *)
  let check_idempotence () =
    List.iter
      (fun ((p : Prop.t), _) ->
        let before = snapshot () in
        let m = Store.mark store in
        Store.schedule store p;
        (match Store.propagate store with
        | () ->
          let after = snapshot () in
          Array.iteri
            (fun i d ->
              if not (Dom.equal d after.(i)) then
                note ("idem", p.Prop.name, p.Prop.id, vars.(i).Var.id)
                  (Non_idempotent
                     {
                       prop = Fmt.str "%a" Prop.pp p;
                       var = Var.name vars.(i);
                       before = dom_str d;
                       after = dom_str after.(i);
                     }))
            before
        | exception Store.Inconsistent message ->
          note ("late", p.Prop.name, p.Prop.id, 0)
            (Late_failure { prop = Fmt.str "%a" Prop.pp p; message }));
        Store.undo_to store m)
      props
  in
  let propagate_outcome () =
    match Store.propagate store with
    | () ->
      check_wipeout ();
      Solved (snapshot ())
    | exception Store.Inconsistent m -> Failed m
  in
  let unbound () =
    (* strictly more than one value: empty domains (a detected silent
       wipeout) are not probed further *)
    Array.to_list vars
    |> List.filter (fun (v : Var.t) -> Dom.size v.Var.dom > 1)
  in
  let random_value rng (v : Var.t) =
    let d = v.Var.dom in
    if Dom.enumerable d then begin
      let values = Dom.to_list d in
      List.nth values (Random.State.int rng (List.length values))
    end
    else Dom.lo d + Random.State.int rng (Dom.hi d - Dom.lo d + 1)
  in
  (* root fixpoint *)
  (match propagate_outcome () with
  | Failed _ -> () (* inconsistent model: nothing further to probe *)
  | Solved _ ->
    (* committed descents below are undone here, leaving the store at
       the root fixpoint as documented *)
    let root = Store.mark store in
    check_idempotence ();
    let steps_left = ref steps in
    let misses = ref 0 in
    let continue = ref true in
    while !continue && !steps_left > 0 && !misses < 8 do
      decr steps_left;
      match unbound () with
      | [] -> continue := false
      | candidates ->
        let v =
          List.nth candidates (Random.State.int rng (List.length candidates))
        in
        let x = random_value rng v in
        let pre = snapshot () in
        let m = Store.mark store in
        let descend () =
          match
            Store.instantiate store v x;
            Store.propagate store
          with
          | () ->
            check_wipeout ();
            Solved (snapshot ())
          | exception Store.Inconsistent msg -> Failed msg
        in
        let first = descend () in
        Store.undo_to store m;
        compare_snapshots `Trail pre (snapshot ());
        let second = descend () in
        Store.undo_to store m;
        compare_snapshots `Trail pre (snapshot ());
        if not (outcome_equal first second) then begin
          match (first, second) with
          | Solved a, Solved b ->
            compare_snapshots `Replay a b
          | (Failed m1, Failed m2) ->
            note ("replaymsg", "", 0, 0)
              (Replay_divergence
                 { var = "(failure)"; first = m1; second = m2 })
          | Solved _, Failed m2 ->
            note ("replayout", "", 0, 0)
              (Replay_divergence
                 { var = "(outcome)"; first = "solved"; second = m2 })
          | Failed m1, Solved _ ->
            note ("replayout", "", 0, 0)
              (Replay_divergence
                 { var = "(outcome)"; first = m1; second = "solved" })
        end;
        (match first with
        | Solved _ ->
          (* commit the step and keep descending *)
          (match descend () with
          | Solved _ -> check_idempotence ()
          | Failed _ ->
            (* diverged on the third replay: already a divergence *)
            note ("replayout", "", 0, 0)
              (Replay_divergence
                 {
                   var = "(outcome)";
                   first = "solved";
                   second = "failed on commit";
                 });
            continue := false)
        | Failed _ -> incr misses)
    done;
    Store.undo_to store root);
  (* restore the original (unwrapped) propagator closures *)
  List.iter (fun ((p : Prop.t), orig) -> p.Prop.run <- orig) originals;
  List.rev !findings

(* -- randomized models ----------------------------------------------------- *)

(* A small random CSP touching every propagator family of the kernel.
   Everything is driven by the seeded [rng], so a sweep is reproducible
   bit for bit. *)
let random_model rng =
  let store = Store.create () in
  let nvars = 3 + Random.State.int rng 4 in
  let hi () = 3 + Random.State.int rng 6 in
  let vars =
    Array.init nvars (fun i ->
        Store.new_var ~name:(Printf.sprintf "x%d" i) store ~lo:0 ~hi:(hi ()))
  in
  let pick () = vars.(Random.State.int rng nvars) in
  let post_one () =
    match Random.State.int rng 11 with
    | 0 -> Arith.le store (pick ()) (pick ())
    | 1 -> Arith.lt store (pick ()) (pick ())
    | 2 -> Arith.eq_offset store (pick ()) (pick ()) (Random.State.int rng 3 - 1)
    | 3 -> Arith.neq store (pick ()) (pick ())
    | 4 ->
      let table = Array.init 6 (fun _ -> Random.State.int rng 8) in
      let x = pick () and y = pick () in
      if x.Var.id <> y.Var.id then Element.post store x table y
    | 5 -> Alldiff.post store [ pick (); pick (); pick () ]
    | 6 ->
      Count.at_most store
        [| pick (); pick (); pick () |]
        ~value:(Random.State.int rng 4)
        ~count:(1 + Random.State.int rng 2)
    | 7 ->
      let x = pick () and y = pick () in
      if x.Var.id <> y.Var.id then begin
        let tuples =
          List.init
            (3 + Random.State.int rng 5)
            (fun _ ->
              [| Random.State.int rng 6; Random.State.int rng 6 |])
        in
        Table.post store [ x; y ] tuples
      end
    | 8 ->
      let b = Store.new_var ~name:"b" store ~lo:0 ~hi:1 in
      Reif.eq_const store (pick ()) (Random.State.int rng 4) b
    | 9 ->
      Linear.sum_le store
        [ (1, pick ()); (2, pick ()) ]
        (4 + Random.State.int rng 10)
    | _ ->
      let items =
        Array.init
          (2 + Random.State.int rng 2)
          (fun _ ->
            let stay = Random.State.int rng 4 in
            Movecost.item (pick ()) ~home:(Random.State.int rng 4) ~stay
              ~move:(stay + Random.State.int rng 5))
      in
      (* a cost cap somewhere between all-stay and all-move, so the
         forcing prunings fire *)
      let floor, gaps =
        Array.fold_left
          (fun (f, g) it ->
            (f + it.Movecost.stay, g + it.Movecost.move - it.Movecost.stay))
          (0, 0) items
      in
      let obj =
        Store.new_var ~name:"cost" store ~lo:0
          ~hi:(floor + Random.State.int rng (gaps + 1))
      in
      Movecost.post store ~items ~obj
  in
  let nconstraints = 2 + Random.State.int rng 4 in
  (try
     for _ = 1 to nconstraints do
       post_one ()
     done;
     (* one global packing model on top: the kernel's workhorse *)
     if Random.State.int rng 2 = 0 then begin
       let nbins = 2 + Random.State.int rng 2 in
       let items =
         Array.map
           (fun v ->
             (* placement variables constrained to the bins *)
             Store.remove_above store v (nbins - 1);
             Pack.item v (1 + Random.State.int rng 3))
           vars
       in
       let capacities =
         Array.init nbins (fun _ -> 3 + Random.State.int rng 5)
       in
       Pack.post store ~items ~capacities ()
     end
     else begin
       let selectors =
         Array.init 3 (fun i ->
             Store.new_var ~name:(Printf.sprintf "s%d" i) store ~lo:0 ~hi:1)
       in
       let sizes = Array.init 3 (fun _ -> 1 + Random.State.int rng 4) in
       let load = Store.new_var ~name:"load" store ~lo:0 ~hi:12 in
       ignore (Knapsack.post store ~sizes ~selectors ~load)
     end
   with Store.Inconsistent _ -> ());
  store

let random_sweep ?(models = 30) ?(steps = 30) ~seed () =
  let rng = Random.State.make [| 0xca5e; seed |] in
  let findings = ref [] in
  for i = 1 to models do
    let store = random_model rng in
    let fs = probe ~steps ~seed:(seed + (i * 7919)) store in
    findings := !findings @ fs
  done;
  !findings
