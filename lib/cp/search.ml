(* Depth-first search with pluggable variable/value ordering, optional
   wall-clock timeout and branch-and-bound minimisation.

   The paper's optimiser (section 4.3) relies on exactly this machinery:
   a first-fail variable ordering that treats the most demanding VMs
   first, a value ordering that tries a VM's current location first, and
   branch & bound on the reconfiguration-cost variable with a timeout
   after which the best solution so far is kept.

   Each node tries its variable's values one at a time, in the value
   iterator's order (d-way branching). Once the first value v is
   explored, the node propagates x <> v once, on its own store: every
   value that refutation removes, or all of them when it fails, would
   have failed at its first propagation, so the node counts each as a
   fail without trying it. Propagators are monotone, so the nodes, fails,
   solutions and answers are exactly those of trying every value. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace
module Metrics = Entropy_obs.Metrics

type limit = Node_cap | Clock

type stats = {
  mutable nodes : int;
  mutable fails : int;
  mutable backtracks : int;
  mutable solutions : int;
  mutable elapsed : float;
  mutable timed_out : bool;
  mutable stopped_by : limit option;
}

let fresh_stats () =
  {
    nodes = 0;
    fails = 0;
    backtracks = 0;
    solutions = 0;
    elapsed = 0.;
    timed_out = false;
    stopped_by = None;
  }

let pp_stats ppf s =
  Fmt.pf ppf "nodes=%d fails=%d backtracks=%d solutions=%d elapsed=%.3fs%s"
    s.nodes s.fails s.backtracks s.solutions s.elapsed
    (match s.stopped_by with
    | Some Node_cap -> " (node cap)"
    | Some Clock -> " (clock)"
    | None -> "")

(* Metric handles, created on first traced search; [Metrics.reset] zeroes
   them in place so the lazies stay valid across runs. *)
let m_nodes = lazy (Metrics.counter "cp.search.nodes")
let m_fails = lazy (Metrics.counter "cp.search.fails")
let m_backtracks = lazy (Metrics.counter "cp.search.backtracks")
let m_solutions = lazy (Metrics.counter "cp.search.solutions")
let m_timeouts = lazy (Metrics.counter "cp.search.timeouts")
let m_improvements = lazy (Metrics.counter "cp.search.improvements")

type var_select = Var.t array -> Var.t option
type val_iter = Var.t -> (int -> unit) -> unit

exception Stop
exception Limit_reached of limit

(* -- variable orderings -------------------------------------------------- *)

let first_fail vars =
  let best = ref None in
  Array.iter
    (fun x ->
      if not (Var.is_bound x) then
        match !best with
        | Some b when Var.size b <= Var.size x -> ()
        | _ -> best := Some x)
    vars;
  !best

let by_key key vars =
  let best = ref None in
  Array.iter
    (fun x ->
      if not (Var.is_bound x) then
        match !best with
        | Some b when key b <= key x -> ()
        | _ -> best := Some x)
    vars;
  !best

(* -- value ordering -------------------------------------------------------- *)

(* The domain is snapshotted first: the live domain changes under the
   callback. *)
let ascending x f = List.iter f (Dom.to_list (Var.dom x))

(* -- DFS ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

(* How often (in nodes) the wall clock is consulted. gettimeofday costs
   more than a typical node expansion, so the deadline is only checked
   every [deadline_stride] nodes; node limits stay exact. *)
let deadline_stride_mask = 63

let solve_internal store ~vars ~var_select ~val_iter ~timeout ~node_limit
    ~on_node ~on_solution stats =
  let deadline =
    match timeout with Some t -> now () +. t | None -> infinity
  in
  let has_deadline = deadline < infinity in
  let check_limits () =
    if
      has_deadline
      && stats.nodes land deadline_stride_mask = 0
      && now () > deadline
    then raise (Limit_reached Clock);
    match node_limit with
    | Some l when stats.nodes >= l -> raise (Limit_reached Node_cap)
    | _ -> ()
  in
  (* a value that failed, at its first propagation or by refutation *)
  let fail () =
    stats.fails <- stats.fails + 1;
    stats.backtracks <- stats.backtracks + 1;
    (* fail-heavy regions advance few nodes: keep the deadline honest
       from the failure path as well *)
    if
      has_deadline
      && stats.fails land deadline_stride_mask = 0
      && now () > deadline
    then raise (Limit_reached Clock)
  in
  let rec descend () =
    stats.nodes <- stats.nodes + 1;
    check_limits ();
    on_node ();
    match var_select vars with
    | None ->
      stats.solutions <- stats.solutions + 1;
      if !Obs.enabled then
        Obs.instant ~cat:"cp" ~args:[ ("nodes", Trace.I stats.nodes) ]
          "cp.solution";
      on_solution ()
    | Some x -> branch x
  and explore x v =
    let m = Store.mark store in
    match
      Store.instantiate store x v;
      Store.propagate store;
      descend ()
    with
    | () ->
      stats.backtracks <- stats.backtracks + 1;
      Store.undo_to store m
    | exception Store.Inconsistent _ ->
      Store.undo_to store m;
      fail ()
  (* After the first value v, x <> v is propagated once, without the
     bound a subtree may have tightened: that applies at the next
     [descend], as for a tried value. A later value it removed, or every
     one when it failed, counts one fail in the iterator's order. Nothing
     reads the store after a failed refutation; either kind is undone
     with the value the parent explores (at the root, when the search
     ends). *)
  and branch x =
    (* 0: before the first value; 1: x <> v propagated; 2: x <> v
       failed *)
    let phase = ref 0 in
    val_iter x (fun v ->
        if !phase = 0 then begin
          explore x v;
          phase :=
            match
              Store.remove store x v;
              Store.propagate store
            with
            | () -> 1
            | exception Store.Inconsistent _ -> 2
        end
        else if !phase = 1 && Var.mem v x then explore x v
        else fail ())
  in
  let start = now () in
  let span_start = if !Obs.enabled then Trace.now_us () else 0. in
  let root = Store.mark store in
  (try
     Store.propagate store;
     descend ()
   with
  | Store.Inconsistent _ -> stats.fails <- stats.fails + 1
  | Limit_reached l ->
    stats.timed_out <- true;
    stats.stopped_by <- Some l
  | Stop -> ());
  Store.undo_to store root;
  Store.release store;
  stats.elapsed <- now () -. start;
  if !Obs.enabled then begin
    Trace.complete ~cat:"cp" ~name:"cp.search"
      ~args:
        [
          ("nodes", Trace.I stats.nodes);
          ("fails", Trace.I stats.fails);
          ("solutions", Trace.I stats.solutions);
          ("timed_out", Trace.B stats.timed_out);
        ]
      ~ts_us:span_start
      ~dur_us:(Trace.now_us () -. span_start)
      ();
    Metrics.add (Lazy.force m_nodes) stats.nodes;
    Metrics.add (Lazy.force m_fails) stats.fails;
    Metrics.add (Lazy.force m_backtracks) stats.backtracks;
    Metrics.add (Lazy.force m_solutions) stats.solutions;
    if stats.timed_out then Metrics.incr (Lazy.force m_timeouts)
  end

let solve store ~vars ?(var_select = first_fail) ?(val_iter = ascending)
    ?timeout ?node_limit ~on_solution () =
  let stats = fresh_stats () in
  solve_internal store ~vars ~var_select ~val_iter ~timeout ~node_limit
    ~on_node:(fun () -> ())
    ~on_solution stats;
  stats

let find_first store ~vars ?var_select ?val_iter ?timeout ?node_limit () =
  let snapshot = ref None in
  let on_solution () =
    snapshot := Some (Array.map Var.value_exn vars);
    raise Stop
  in
  let stats =
    solve store ~vars ?var_select ?val_iter ?timeout ?node_limit ~on_solution
      ()
  in
  (!snapshot, stats)

(* Branch & bound stops as soon as its incumbent reaches a proven lower
   bound: no strictly better solution exists, so the rest of the tree
   could only fail. The bound is the larger of the caller's and obj's
   lower bound at the root fixpoint; the first [on_node] runs there. *)
let minimize store ~vars ~obj ?(var_select = first_fail)
    ?(val_iter = ascending) ?timeout ?node_limit ?(lower_bound = min_int) ()
    =
  let stats = fresh_stats () in
  let best = ref max_int in
  let best_snapshot = ref None in
  let proven = ref lower_bound in
  let on_node () =
    if stats.nodes = 1 then proven := max lower_bound (Var.lo obj);
    (* branch & bound: require strict improvement over the incumbent *)
    if !best < max_int then begin
      Store.remove_above store obj (!best - 1);
      Store.propagate store
    end
  in
  let on_solution () =
    let value = Var.lo obj in
    if value < !best then begin
      best := value;
      best_snapshot := Some (value, Array.map Var.value_exn vars);
      if !Obs.enabled then begin
        (* cost-vs-time pair: the instant's timestamp is the time axis *)
        Obs.instant ~cat:"cp"
          ~args:[ ("cost", Trace.I value); ("nodes", Trace.I stats.nodes) ]
          "cp.improvement";
        Metrics.incr (Lazy.force m_improvements)
      end;
      if value <= !proven then raise Stop
    end
  in
  solve_internal store ~vars ~var_select ~val_iter ~timeout ~node_limit
    ~on_node ~on_solution stats;
  (!best_snapshot, stats)
