(* The constraint store: owns variables, the backtracking trail and the
   propagation queues.

   Trailing strategy: every domain update pushes the (variable, previous
   domain) pair; [undo_to] pops entries back to a mark. Domains being
   immutable values, restoration is a single field write. Propagators
   with incremental internal state (e.g. Pack's committed bin loads)
   trail individual int-array cells through [save_cell]; the same
   [undo_to] restores them in lockstep with the domains, so propagator
   state never drifts from the search tree.

   Scheduling: two FIFO queues by [Prop.priority]. [propagate] drains
   every Cheap propagator before running one Expensive propagator, then
   returns to the cheap queue — the costly global constraints always see
   domains at the cheap fixpoint. Watchers are woken only when an update
   fires an event they subscribed to (instantiate / bounds / domain).

   Change reporting: a watcher posted with an item index reports it to
   the propagator's change list ([Prop.changes]) on every wake, so a
   propagator over many items folds in only the ones that fired. A
   propagator declared idempotent is neither woken nor told by its own
   updates ([running] names the propagator being run). A failure
   empties the change lists of the queued and the running propagators:
   the caller undoes past every change they held.

   A change list is not trailed, its priming cell is. A run that reads
   every item ([first_run]) trails the cell, so an undo past that run
   makes the next run read every item again. A mark taken while a
   propagator holds reported changes (the caller updated domains and
   has not propagated yet) pushes an entry that resets the cell on
   undo: its next run may have consumed changes the undo keeps. Every
   other mark sits at a fixpoint, where an undo restores domains and
   propagator state to a point at which nothing was pending. *)

module Obs = Entropy_obs.Obs
module Trace = Entropy_obs.Trace

(* A failure carries its message unformatted: the search catches and
   drops almost every [Inconsistent], so the text is built only when a
   reader asks for it. The thunk closes over values read at the moment
   of failure, never over live state, so [message] still reports them
   after the store has been undone. *)
type failure = unit -> string

exception Inconsistent of failure

let fail (message : failure) = raise (Inconsistent message)
let message (f : failure) = f ()

(* Per-propagator observability counters, populated only while
   [Obs.enabled]: wake events (a watched variable fired a subscribed
   event), runs, and cumulative run time. Keyed by [Prop.id]; aggregated
   by name on export. *)
type prop_stat = {
  ps_name : string;
  mutable wakes : int;
  mutable runs : int;
  mutable time_us : float;
}

type trail_entry =
  | Trail_dom of Var.t * Dom.t       (* variable, previous domain *)
  | Trail_cell of int array * int * int  (* array, index, previous value *)

let dummy_entry = Trail_cell ([||], 0, 0)

type t = {
  mutable vars : Var.t list;       (* newest first *)
  mutable nvars : int;
  mutable trail : trail_entry array;
  mutable trail_len : int;
  queue_cheap : Prop.t Queue.t;
  queue_expensive : Prop.t Queue.t;
  mutable running : int;           (* [Prop.id] being run, or -1 *)
  mutable propagations : int;      (* cumulative propagator runs *)
  mutable updates : int;           (* cumulative domain updates *)
  obs_stats : (int, prop_stat) Hashtbl.t;
}

type mark = int

let create () =
  {
    vars = [];
    nvars = 0;
    trail = Array.make 256 dummy_entry;
    trail_len = 0;
    queue_cheap = Queue.create ();
    queue_expensive = Queue.create ();
    running = -1;
    propagations = 0;
    updates = 0;
    obs_stats = Hashtbl.create 16;
  }

let vars t = List.rev t.vars
let propagation_count t = t.propagations
let update_count t = t.updates

let prop_stat t (p : Prop.t) =
  match Hashtbl.find_opt t.obs_stats p.Prop.id with
  | Some s -> s
  | None ->
    let s = { ps_name = p.Prop.name; wakes = 0; runs = 0; time_us = 0. } in
    Hashtbl.add t.obs_stats p.Prop.id s;
    s

let prop_stats t =
  let by_name = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ s ->
      let w, r, us =
        Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt by_name s.ps_name)
      in
      Hashtbl.replace by_name s.ps_name
        (w + s.wakes, r + s.runs, us +. s.time_us))
    t.obs_stats;
  Hashtbl.fold (fun name (w, r, us) acc -> (name, w, r, us) :: acc) by_name []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> String.compare a b)

let new_var ?(name = "") t ~lo ~hi =
  if lo > hi then begin
    let shown = if name = "" then "v" ^ string_of_int t.nvars else name in
    fail (fun () ->
        Fmt.str "new_var %s: empty initial domain [%d,%d]" shown lo hi)
  end;
  let v =
    { Var.id = t.nvars; name; dom = Dom.interval lo hi; watchers = [] }
  in
  t.nvars <- t.nvars + 1;
  t.vars <- v :: t.vars;
  v

let new_var_of_values ?name t values =
  let d = Dom.of_list values in
  if Dom.is_empty d then fail (fun () -> "new_var_of_values: empty domain");
  let v = new_var ?name t ~lo:(Dom.lo d) ~hi:(Dom.hi d) in
  v.Var.dom <- d;
  v

let constant t c = new_var ~name:(Printf.sprintf "const%d" c) t ~lo:c ~hi:c

(* -- trail --------------------------------------------------------------- *)

let push_trail t entry =
  if t.trail_len = Array.length t.trail then begin
    let bigger = Array.make (2 * Array.length t.trail) dummy_entry in
    Array.blit t.trail 0 bigger 0 t.trail_len;
    t.trail <- bigger
  end;
  t.trail.(t.trail_len) <- entry;
  t.trail_len <- t.trail_len + 1

let save_cell t arr i = push_trail t (Trail_cell (arr, i, arr.(i)))

(* Above the mark, an entry per queued propagator holding reported
   changes: undoing it resets the propagator's priming cell. *)
let guard_queued t q =
  Queue.iter
    (fun (p : Prop.t) ->
      if p.changes.count > 0 then
        push_trail t (Trail_cell (p.changes.primed, 0, 0)))
    q

let mark t =
  let m = t.trail_len in
  if not (Queue.is_empty t.queue_cheap) then guard_queued t t.queue_cheap;
  if not (Queue.is_empty t.queue_expensive) then
    guard_queued t t.queue_expensive;
  m

let first_run t (c : Prop.changes) =
  if c.primed.(0) = 0 then begin
    save_cell t c.primed 0;
    c.primed.(0) <- 1;
    Prop.clear c;
    true
  end
  else false

let undo_to t m =
  while t.trail_len > m do
    t.trail_len <- t.trail_len - 1;
    match t.trail.(t.trail_len) with
    | Trail_dom (v, old_dom) -> v.Var.dom <- old_dom
    | Trail_cell (arr, i, old) -> arr.(i) <- old
  done

(* The slots above the top that hold popped entries are contiguous: a
   release leaves every slot above the top empty, and pushes fill the
   slots above the top in order. *)
let release t =
  let i = ref t.trail_len in
  while !i < Array.length t.trail && t.trail.(!i) != dummy_entry do
    t.trail.(!i) <- dummy_entry;
    incr i
  done

(* -- scheduling and updates ---------------------------------------------- *)

let schedule t (p : Prop.t) =
  if !Obs.enabled then begin
    let s = prop_stat t p in
    s.wakes <- s.wakes + 1
  end;
  if not p.scheduled then begin
    p.scheduled <- true;
    Queue.add p
      (match p.priority with
      | Prop.Cheap -> t.queue_cheap
      | Prop.Expensive -> t.queue_expensive)
  end

(* A top-level recursion rather than [List.iter] with a closure over
   [t] and [fired]: it runs on every effective domain update. *)
let rec schedule_watchers t fired = function
  | [] -> ()
  | (w : Var.watcher) :: rest ->
    if w.mask land fired <> 0 then begin
      let p = w.prop in
      if not (p.idempotent && p.id = t.running) then begin
        if w.item >= 0 then Prop.report p.changes w.item;
        schedule t p
      end
    end;
    schedule_watchers t fired rest

let set_dom t (v : Var.t) d =
  if Dom.is_empty d then begin
    (* wake nobody; the search will undo *)
    fail (fun () -> Fmt.str "%s: domain wiped out" (Var.name v))
  end;
  let old = v.Var.dom in
  if Dom.size d < Dom.size old then begin
    push_trail t (Trail_dom (v, old));
    v.Var.dom <- d;
    t.updates <- t.updates + 1;
    let fired =
      Prop.fired_domain
      lor (if Dom.lo d <> Dom.lo old || Dom.hi d <> Dom.hi old then
             Prop.fired_bounds
           else 0)
      lor (if Dom.is_bound d then Prop.fired_instantiate else 0)
    in
    schedule_watchers t fired v.Var.watchers
  end

let remove t v x = set_dom t v (Dom.remove x (Var.dom v))
let remove_below t v x = set_dom t v (Dom.remove_below x (Var.dom v))
let remove_above t v x = set_dom t v (Dom.remove_above x (Var.dom v))

let instantiate t v x =
  if not (Var.mem x v) then begin
    let d = Var.dom v in
    fail (fun () ->
        Fmt.str "%s: cannot instantiate to %d (not in %a)" (Var.name v) x
          Dom.pp d)
  end;
  set_dom t v (Dom.keep_only x (Var.dom v))

(* -- propagation --------------------------------------------------------- *)

let clear_queue t =
  let clear q =
    Queue.iter
      (fun (p : Prop.t) ->
        p.scheduled <- false;
        Prop.clear p.changes)
      q;
    Queue.clear q
  in
  clear t.queue_cheap;
  clear t.queue_expensive

(* The failing propagator's own list is emptied here; [clear_queue]
   empties the queued ones'. *)
let run_body t (p : Prop.t) =
  t.running <- p.id;
  match p.run () with
  | () -> t.running <- -1
  | exception e ->
    t.running <- -1;
    Prop.clear p.changes;
    raise e

let run_one t (p : Prop.t) =
  p.Prop.scheduled <- false;
  t.propagations <- t.propagations + 1;
  if !Obs.enabled then begin
    let s = prop_stat t p in
    s.runs <- s.runs + 1;
    let t0 = Unix.gettimeofday () in
    match run_body t p with
    | () -> s.time_us <- s.time_us +. ((Unix.gettimeofday () -. t0) *. 1e6)
    | exception e ->
      s.time_us <- s.time_us +. ((Unix.gettimeofday () -. t0) *. 1e6);
      raise e
  end
  else run_body t p

(* Top-level, like [schedule_watchers]: a local loop would allocate a
   closure over [t] on every call. *)
let rec drain t =
  if not (Queue.is_empty t.queue_cheap) then begin
    run_one t (Queue.pop t.queue_cheap);
    drain t
  end
  else if not (Queue.is_empty t.queue_expensive) then begin
    run_one t (Queue.pop t.queue_expensive);
    drain t
  end

let propagate_plain t =
  try drain t
  with Inconsistent _ as e ->
    clear_queue t;
    raise e

(* Traced fixpoint: a [cp.propagate] span carrying the number of
   propagator runs and effective domain updates it triggered. Spans with
   zero runs are skipped (empty-queue calls at every search node would
   drown the ring buffer). *)
let propagate_traced t =
  let t0 = Trace.now_us () in
  let p0 = t.propagations and u0 = t.updates in
  let record raised =
    if t.propagations > p0 || raised then
      Trace.complete ~cat:"cp" ~name:"cp.propagate"
        ~args:
          [
            ("runs", Trace.I (t.propagations - p0));
            ("updates", Trace.I (t.updates - u0));
            ("failed", Trace.B raised);
          ]
        ~ts_us:t0 ~dur_us:(Trace.now_us () -. t0) ()
  in
  match propagate_plain t with
  | () -> record false
  | exception e ->
    record true;
    raise e

let propagate t =
  if !Obs.enabled then propagate_traced t else propagate_plain t

let post_on t ?items (p : Prop.t) ~on =
  Option.iter
    (fun (event, vars) ->
      Array.iteri (fun item v -> Var.watch v ~event ~item p) vars)
    items;
  List.iter
    (fun (event, vars) -> List.iter (fun v -> Var.watch v ~event p) vars)
    on;
  schedule t p

let post t (p : Prop.t) ~on = post_on t p ~on:[ (Prop.On_domain, on) ]
