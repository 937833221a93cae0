(* Critical-path extraction and exhaustive makespan attribution.

   Both walks run backwards from the action that finished last. At each
   action the "enabling edge" — the latest of (pool open, same-VM
   dependency end, switch begin) — decides where the walk goes next:

   - the causal walk follows what actually gated the start: across a
     barrier it continues through the straggler that closed the
     previous pool, so consecutive steps abut in time and the chain
     spans the whole makespan;

   - the attribution walk follows the last finisher's own chain,
     charging ready-but-blocked time at a barrier to the barrier
     bucket and continuing through the same-VM dependency (if any), so
     every instant of the makespan lands in exactly one bucket.

   Per-action time splits are shared: the final attempt is work up to
   the contention-free estimate and contention beyond it, earlier
   attempts (and terminally failed actions) are retry/backoff, and the
   edge-to-first-attempt gap is charged to whichever edge was binding
   (contention for a bandwidth/pipeline slot inside an open pool,
   dependency wait, or barrier wait).

   The what-if estimator replays the observed lags and spans forward
   over the same DAG (pool by pool, dependencies inside), with one
   action zeroed or all barriers removed — no simulator involved.

   The switch is the journal fold's [Recovery.switch]. [analyze]
   prepares one view of it: every action's same-VM predecessor,
   duration estimate, bounds and enabling edge, each pool's straggler,
   and the executed actions in dispatch order, sorted once. Both walks,
   the top-k what-ifs and the no-barrier replay read it, so a walk step
   costs O(1) and a replay O(n). *)

open Entropy_core
module R = Entropy_journal.Recovery
module T = Timeline

type buckets = {
  work_s : float;
  contention_s : float;
  barrier_s : float;
  dependency_s : float;
  retry_s : float;
  recovery_s : float;
}

let zero_buckets =
  {
    work_s = 0.;
    contention_s = 0.;
    barrier_s = 0.;
    dependency_s = 0.;
    retry_s = 0.;
    recovery_s = 0.;
  }

let bucket_total b =
  b.work_s +. b.contention_s +. b.barrier_s +. b.dependency_s +. b.retry_s
  +. b.recovery_s

let add_buckets a b =
  {
    work_s = a.work_s +. b.work_s;
    contention_s = a.contention_s +. b.contention_s;
    barrier_s = a.barrier_s +. b.barrier_s;
    dependency_s = a.dependency_s +. b.dependency_s;
    retry_s = a.retry_s +. b.retry_s;
    recovery_s = a.recovery_s +. b.recovery_s;
  }

type edge = Start | Dep of int | Barrier of int

type step = {
  index : int;
  action : Action.t;
  pool : int;
  edge : edge;
  start_s : float;
  finish_s : float;
  gap_s : float;
  retry_s : float;
  work_s : float;
  contention_s : float;
}

type t = {
  switch : int;
  makespan_s : float;
  path : step list;
  path_span_s : float;
  tail_s : float;
  buckets : buckets;
  bucket_sum_s : float;
  exact : bool;
  what_if : (int * float) list;
  no_barrier_makespan_s : float;
  est_makespan_s : float;
  est_cost_mb : int;
  rederived_cost_mb : int;
  drift : (int * float * float) list;
}

(* -- per-switch prepared view ---------------------------------------------- *)

(* first attempt (the finish when none), final attempt, finish *)
let bounds sw (s : R.slot) =
  let fin = T.finish_time sw s in
  let s1 = Option.value ~default:fin (T.first_start s) in
  (s1, List.fold_left Float.max s1 s.attempts, fin)

(* (work, contention, retry) inside [s1, fin] *)
let split (s : R.slot) ~est ~s1 ~sn ~fin =
  match s.terminal with
  | Some (R.Failed _) -> (0., 0., Float.max 0. (fin -. s1))
  | Some (R.Done _) | None ->
    let dur = Float.max 0. (fin -. sn) in
    let w = Float.min dur est in
    (w, dur -. w, Float.max 0. (sn -. s1))

type enabling =
  | E_start
  | E_dep of int * float
  | E_barrier of int * float * (int * float) option
      (** pool crossed, its commit time, and the dependency (if any)
          that finished before the barrier opened *)

(* Everything the walks and the replays read, computed once per switch.
   Pool ids are journal data (varints, not bounded by the plan), so the
   per-pool readings are tables keyed by pool, built in one pass each. *)
type view = {
  sw : R.switch;
  prereq : int option array;  (** previous plan action on the same VM *)
  est : float array;
      (** planner-side contention-free duration estimate
          ({!Schedule.action_duration}) *)
  s1 : float array;  (** first attempt (the finish when none) *)
  sn : float array;  (** final attempt *)
  fin : float array;  (** terminal time, or the horizon *)
  enab : enabling array;  (** the observed enabling edge *)
  ready : float array;  (** its time *)
  stragglers : (int, int * float) Hashtbl.t;
      (** pool -> the action whose terminal closed it, and that time *)
  order : int array;
      (** executed actions by record pool, first attempt, index: the
          replays' dispatch order *)
  entry : int option;  (** the last finisher *)
}

(* The first commit of each pool, as an association lookup finds it. *)
let commit_times (sw : R.switch) =
  let t = Hashtbl.create 8 in
  List.iter
    (fun (p, at) -> if not (Hashtbl.mem t p) then Hashtbl.add t p at)
    sw.commits;
  t

let pool_open (sw : R.switch) commits (s : R.slot) =
  if s.record_pool <= 0 then sw.begun_at
  else
    match Hashtbl.find_opt commits (s.record_pool - 1) with
    | Some t -> t
    | None -> sw.begun_at

(* Terminal time of the same-VM dependency, when it ran to a terminal. *)
let dep_end (sw : R.switch) = function
  | None -> None
  | Some j -> (
    match sw.slots.(j).terminal with
    | Some t -> Some (j, R.terminal_at t)
    | None -> None)

let enabling (sw : R.switch) commits prereq (s : R.slot) =
  let po = pool_open sw commits s in
  let de = dep_end sw prereq in
  match de with
  | Some (j, t) when t >= po && t > sw.begun_at -> E_dep (j, t)
  | _ ->
    if po > sw.begun_at then E_barrier (s.record_pool - 1, po, de)
    else E_start

let enabling_time (sw : R.switch) = function
  | E_start -> sw.begun_at
  | E_dep (_, t) -> t
  | E_barrier (_, po, _) -> po

(* Each pool's latest terminal; among equal times the first action. *)
let stragglers (sw : R.switch) =
  let best = Hashtbl.create 8 in
  Array.iteri
    (fun i (s : R.slot) ->
      match s.terminal with
      | Some t -> (
        let ft = R.terminal_at t in
        match Hashtbl.find_opt best s.record_pool with
        | Some (_, bt) when bt >= ft -> ()
        | _ -> Hashtbl.replace best s.record_pool (i, ft))
      | None -> ())
    sw.slots;
  best

(* The observed end of the line: latest finisher, preferring an action
   still in flight at the horizon (it is the one "currently critical"). *)
let last_finisher (sw : R.switch) fin =
  let best = ref None in
  Array.iteri
    (fun i (s : R.slot) ->
      if T.executed s then begin
        let f = fin.(i) in
        let in_flight = s.terminal = None in
        match !best with
        | Some (_, bf, bif)
          when bf > f || (bf = f && (bif || not in_flight)) ->
          ()
        | _ -> best := Some (i, f, in_flight)
      end)
    sw.slots;
  Option.map (fun (i, _, _) -> i) !best

let prepare (sw : R.switch) =
  let n = Array.length sw.slots in
  let prereq = Continuous.vm_prerequisites sw.plan in
  let est =
    Array.map
      (fun (s : R.slot) -> Schedule.action_duration sw.source s.action)
      sw.slots
  in
  let s1 = Array.make n 0. and sn = Array.make n 0. and fin = Array.make n 0. in
  Array.iteri
    (fun i s ->
      let a1, an, f = bounds sw s in
      s1.(i) <- a1;
      sn.(i) <- an;
      fin.(i) <- f)
    sw.slots;
  let commits = commit_times sw in
  let enab = Array.mapi (fun i -> enabling sw commits prereq.(i)) sw.slots in
  let order =
    Array.of_list
      (List.filter (fun i -> T.executed sw.slots.(i)) (List.init n Fun.id))
  in
  (* a merge sort: pools run in plan order, so runs are long *)
  Array.stable_sort
    (fun i j ->
      match compare sw.slots.(i).record_pool sw.slots.(j).record_pool with
      | 0 -> ( match Float.compare s1.(i) s1.(j) with 0 -> compare i j | c -> c)
      | c -> c)
    order;
  {
    sw;
    prereq;
    est;
    s1;
    sn;
    fin;
    enab;
    ready = Array.map (enabling_time sw) enab;
    stragglers = stragglers sw;
    order;
    entry = last_finisher sw fin;
  }

(* -- causal critical path -------------------------------------------------- *)

let causal_path v =
  let sw = v.sw in
  match v.entry with
  | None -> []
  | Some entry ->
    let visited = Array.make (Array.length sw.R.slots) false in
    let rec walk acc idx =
      if visited.(idx) then acc
      else begin
        visited.(idx) <- true;
        let a = sw.R.slots.(idx) in
        let s1 = v.s1.(idx) and fin = v.fin.(idx) in
        let w, c, r = split a ~est:v.est.(idx) ~s1 ~sn:v.sn.(idx) ~fin in
        let gap = Float.max 0. (s1 -. v.ready.(idx)) in
        let edge =
          match v.enab.(idx) with
          | E_start -> Start
          | E_dep (j, _) -> Dep j
          | E_barrier (p, _, _) -> Barrier p
        in
        let step =
          {
            index = idx;
            action = a.R.action;
            pool = a.R.record_pool;
            edge;
            start_s = s1 -. sw.R.begun_at;
            finish_s = fin -. sw.R.begun_at;
            gap_s = gap;
            retry_s = r;
            work_s = w;
            contention_s = c;
          }
        in
        let acc = step :: acc in
        match v.enab.(idx) with
        | E_start -> acc
        | E_dep (j, _) -> walk acc j
        | E_barrier (p, _, _) -> (
          match Hashtbl.find_opt v.stragglers p with
          | Some (j, _) -> walk acc j
          | None -> acc)
      end
    in
    walk [] entry

(* -- attribution buckets --------------------------------------------------- *)

let attribute v =
  let sw = v.sw in
  let b = ref zero_buckets in
  let charge f = b := f !b in
  (match v.entry with
  | None -> ()
  | Some entry ->
    let visited = Array.make (Array.length sw.R.slots) false in
    let rec walk idx =
      if not visited.(idx) then begin
        visited.(idx) <- true;
        let a = sw.R.slots.(idx) in
        let s1 = v.s1.(idx) in
        let w, c, r =
          split a ~est:v.est.(idx) ~s1 ~sn:v.sn.(idx) ~fin:v.fin.(idx)
        in
        charge (fun b ->
            {
              b with
              work_s = b.work_s +. w;
              contention_s = b.contention_s +. c;
              retry_s = b.retry_s +. r;
            });
        match v.enab.(idx) with
        | E_start ->
          (* slot wait inside the first open pool *)
          charge (fun b ->
              {
                b with
                contention_s =
                  b.contention_s +. Float.max 0. (s1 -. sw.R.begun_at);
              })
        | E_dep (j, t) ->
          charge (fun b ->
              {
                b with
                dependency_s = b.dependency_s +. Float.max 0. (s1 -. t);
              });
          walk j
        | E_barrier (_, po, de) -> (
          charge (fun b ->
              {
                b with
                contention_s = b.contention_s +. Float.max 0. (s1 -. po);
              });
          let lower =
            match de with
            | Some (_, t) -> Float.max sw.R.begun_at t
            | None -> sw.R.begun_at
          in
          charge (fun b ->
              { b with barrier_s = b.barrier_s +. Float.max 0. (po -. lower) });
          match de with Some (j, _) -> walk j | None -> ())
      end
    in
    walk entry);
  !b

(* -- what-if forward replay ------------------------------------------------ *)

(* Replay the observed dispatch lags and running spans over the
   dependency/barrier DAG. [free] zeroes one action; [barriers:false]
   removes every pool barrier (continuous execution of the same
   observations). *)
let replay ?(free = -1) ?(barriers = true) v =
  let sw = v.sw in
  let fin' = Array.make (Array.length sw.R.slots) nan in
  let horizon = ref sw.R.begun_at in
  let commit = ref sw.R.begun_at in
  let current_pool = ref min_int in
  let pool_max = ref sw.R.begun_at in
  Array.iter
    (fun i ->
      let pool = sw.R.slots.(i).record_pool in
      if pool <> !current_pool then begin
        if !current_pool <> min_int then commit := Float.max !commit !pool_max;
        current_pool := pool;
        pool_max := sw.R.begun_at
      end;
      let s1 = v.s1.(i) and fin = v.fin.(i) in
      let dep' =
        match v.prereq.(i) with
        | Some j when not (Float.is_nan fin'.(j)) -> fin'.(j)
        | _ -> sw.R.begun_at
      in
      let ready' =
        Float.max (if barriers then !commit else sw.R.begun_at) dep'
      in
      let lag = Float.max 0. (s1 -. v.ready.(i)) in
      let span = Float.max 0. (fin -. s1) in
      let f = if i = free then ready' else ready' +. lag +. span in
      fin'.(i) <- f;
      if f > !pool_max then pool_max := f;
      if f > !horizon then horizon := f)
    v.order;
  Float.max 0. (!horizon -. sw.R.begun_at)

let what_if_free sw idx = replay ~free:idx (prepare sw)

(* -- estimates ------------------------------------------------------------- *)

let action_drift v =
  let drift = ref [] in
  for i = Array.length v.sw.R.slots - 1 downto 0 do
    match v.sw.R.slots.(i).terminal with
    | Some (R.Done _) ->
      drift := (i, v.est.(i), Float.max 0. (v.fin.(i) -. v.sn.(i))) :: !drift
    | _ -> ()
  done;
  !drift

(* The planner's estimate of the switch's duration, [Schedule.of_plan]'s
   makespan, from the view's estimates: each pool starts when the
   previous one's last action finishes, its pipelined actions start
   [pipeline_gap_s] apart, the others at once. The float operations are
   [of_plan]'s, in the same order; the slots are the plan's actions in
   pool order. *)
let est_makespan v =
  let pool = ref (-1) and start = ref 0. and finish = ref 0. in
  let pipelined = ref 0 in
  Array.iteri
    (fun i (s : R.slot) ->
      if s.plan_pool <> !pool then begin
        pool := s.plan_pool;
        start := !finish;
        pipelined := 0
      end;
      let offset =
        if Schedule.is_pipelined s.action then begin
          let o =
            float_of_int !pipelined *. Schedule.durations.pipeline_gap_s
          in
          incr pipelined;
          o
        end
        else 0.
      in
      let f = !start +. offset +. v.est.(i) in
      if f > !finish then finish := f)
    v.sw.slots;
  !finish

(* -- entry point ----------------------------------------------------------- *)

let analyze ?(top_k = 3) sw =
  let v = prepare sw in
  let makespan = T.makespan sw in
  let path = causal_path v in
  let covered =
    List.fold_left
      (fun acc s -> acc +. s.gap_s +. s.retry_s +. s.work_s +. s.contention_s)
      0. path
  in
  let tail =
    match path with
    | [] -> makespan
    | _ ->
      let last = List.nth path (List.length path - 1) in
      Float.max 0. (makespan -. last.finish_s)
  in
  let path_span = covered +. tail in
  let buckets = attribute v in
  let buckets = { buckets with recovery_s = buckets.recovery_s +. tail } in
  let bucket_sum = bucket_total buckets in
  let tol = 1e-6 *. Float.max 1. makespan in
  let exact =
    Float.abs (bucket_sum -. makespan) <= tol
    && Float.abs (path_span -. makespan) <= tol
  in
  let ranked =
    List.sort
      (fun a b ->
        Float.compare
          (b.work_s +. b.contention_s +. b.retry_s)
          (a.work_s +. a.contention_s +. a.retry_s))
      path
  in
  let what_if =
    List.filteri (fun i _ -> i < top_k) ranked
    |> List.map (fun s -> (s.index, replay ~free:s.index v))
  in
  let est_cost, rederived =
    Entropy_analysis.Verifier.cost_cross_check sw.R.source sw.R.plan
  in
  {
    switch = sw.R.switch;
    makespan_s = makespan;
    path;
    path_span_s = path_span;
    tail_s = tail;
    buckets;
    bucket_sum_s = bucket_sum;
    exact;
    what_if;
    no_barrier_makespan_s = replay ~barriers:false v;
    est_makespan_s = est_makespan v;
    est_cost_mb = est_cost;
    rederived_cost_mb = rederived;
    drift = action_drift v;
  }

(* -- cross-switch (episode) view ------------------------------------------- *)

(* The runner chases a degraded switch with an immediate repair plan.
   Degraded means the executor terminally lost actions: either it
   aborted at a pool boundary, or it ran to the end with [Failed]
   terminals (a last-pool failure leaves nothing pending, so the
   journal's aborted flag stays false). The chase is immediate, so the
   repair begins at the very engine instant its predecessor ended. *)
let degraded (sw : R.switch) =
  sw.aborted
  || Array.exists
       (fun (s : R.slot) ->
         match s.terminal with Some (R.Failed _) -> true | _ -> false)
       sw.slots

let repair_switches sws =
  let rec go acc = function
    | (a : R.switch) :: ((b : R.switch) :: _ as rest) ->
      let acc =
        match a.end_at with
        | Some e when degraded a && Float.abs (b.begun_at -. e) <= 1e-9 ->
          b.switch :: acc
        | _ -> acc
      in
      go acc rest
    | _ -> List.rev acc
  in
  go [] sws

let aggregate pairs =
  let repairs = repair_switches (List.map fst pairs) in
  let is_repair (sw : R.switch) = List.mem sw.switch repairs in
  List.fold_left
    (fun (acc, total) (sw, an) ->
      let m = T.makespan sw in
      if is_repair sw then
        ({ acc with recovery_s = acc.recovery_s +. m }, total +. m)
      else (add_buckets acc an.buckets, total +. m))
    (zero_buckets, 0.) pairs
