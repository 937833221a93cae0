(* The four workloads. Each draws its inputs from a fixed pool in an
   order taken from the run seed, times one public entry point per
   operation from outside, and checks the operation's output after the
   clock has stopped. Spans named [bench.*] mark the benchmark's own
   calls; they cost nothing unless [Obs.enabled]. *)

open Entropy_core
module Obs = Entropy_obs.Obs
module Journal = Entropy_journal.Journal
module Jrecord = Entropy_journal.Record
module Daemon = Entropy_daemon.Daemon
module Portfolio = Entropy_place.Portfolio
module Verifier = Entropy_analysis.Verifier

(* What one operation achieved, in the units of the end-to-end metrics:
   summed over operations, [cost / switches] is the mean switch cost. *)
type outcome = {
  switches : int;
  cost : int;  (** Σ Table 1 cost of the switches *)
  switch_time_s : float;  (** Σ switch durations, simulated seconds *)
  makespan_s : float;
      (** simulated time the work took: the last vjob's completion, or the
          plan's estimated duration for place-dense *)
  vjobs : int;  (** vjobs submitted *)
  served : int;  (** vjobs that ran to completion (placed, for place-dense) *)
}

type op_result = {
  outcome : outcome;
  digest : string;
      (** the operation's deterministic results; a traced rerun must
          reproduce it exactly *)
  problems : string list;  (** failed correctness checks *)
  extras : (string * float) list;
      (** per-layer numbers only the benchmark sees (portfolio winner,
          journal size), summed over operations *)
}

(* One operation: [run] is timed, [finish] checks it afterwards. *)
type op = { run : unit -> unit; finish : unit -> op_result }

type t = {
  name : string;
  wall_clock_bound : bool;
      (** operations end at a wall-clock deadline, so their times do not
          scale with host speed *)
  root_layer : string;  (** layer charged with the [bench.op] self time *)
  op : tmp:string -> traced:bool -> int -> op;
      (** the operation on input [n]; its input is built here, untimed *)
  input : seed:int -> int -> int;  (** the input of operation [i] of a run *)
  batch : int;
      (** a run stops only after a multiple of this many operations *)
  warmup : int;
      (** input of the untimed operation that ends set-up: fixed, so
          set-up time does not depend on the run seed *)
}

let now = Unix.gettimeofday

(* Inputs come from a fixed pool per workload, about as many as one run
   covers on the reference host. Single inputs vary widely (episode
   times by 20%, plan costs by 10x), so runs of independent inputs could
   not repeat their medians; runs of one pool play nearly the same
   inputs and do. The seed orders the pool: operation [i] plays input
   [i mod P] of pass [i / P], each pass in its own seeded order. *)
let draw pool ~seed i =
  let p = Array.length pool in
  let order = Array.copy pool in
  let rng = Random.State.make [| seed; i / p |] in
  for j = p - 1 downto 1 do
    let r = Random.State.int rng (j + 1) in
    let x = order.(j) in
    order.(j) <- order.(r);
    order.(r) <- x
  done;
  order.(i mod p)

(* Inputs 1..n; input 0 is the warm-up's. *)
let pool n = Array.init n (fun j -> j + 1)

let remove path = if Sys.file_exists path then Sys.remove path

let problem ok fmt =
  Printf.ksprintf (fun s -> if ok then [] else [ s ]) fmt

(* -- journals -------------------------------------------------------------- *)

(* Switches of a journal: (cost, duration) per [Switch_begin], the
   duration closed by its [Switch_end] (0 for a switch left open). *)
let journal_switches records =
  let ends = Hashtbl.create 64 in
  List.iter
    (function
      | Jrecord.Switch_end { switch; at_s; _ } -> Hashtbl.replace ends switch at_s
      | _ -> ())
    records;
  List.filter_map
    (function
      | Jrecord.Switch_begin { switch; at_s; source; plan; _ } ->
        let dur =
          match Hashtbl.find_opt ends switch with
          | Some e -> e -. at_s
          | None -> 0.
        in
        Some (Plan.cost source plan, dur)
      | _ -> None)
    records

let outcome_of_switches sw ~makespan_s ~vjobs ~served =
  {
    switches = List.length sw;
    cost = Stats.sum_int_by fst sw;
    switch_time_s = Stats.sum_by snd sw;
    makespan_s;
    vjobs;
    served;
  }

(* Per-layer cost of the journal write path: the operation's records
   appended one by one into a fresh file journal. *)
let append_ms ~tmp records =
  let path = Filename.concat tmp "append.wal" in
  remove path;
  let t0 = now () in
  let j = Journal.open_file path in
  List.iter (Journal.append j) records;
  Journal.close j;
  let dt = now () -. t0 in
  remove path;
  1000. *. dt

(* -- ngb-cp ---------------------------------------------------------------- *)

(* The paper's section 5.2 run: 8 NGB class-W vjobs of 9 VMs on the
   11-node testbed, all submitted at t=0, decided by the consolidation
   module. A node budget instead of the wall-clock timeout stops each CP
   search, so an input always yields the same plans and wall time
   measures solver work. At 5000 nodes the plans equalled those of the
   module's default 1 s timeout on every panel instance below, on the
   2-vCPU host of the README's measurements. *)
let ngb_node_limit = 5000
let ngb_cp_timeout = 60.

(* Trace bases 8k of the instances a run plays, k = 0 being the paper's
   own workload. All are from the 39 of 71 sampled bases on which three
   runs under the 1 s timeout ended with the makespan and switch cost of
   the 5000-node run, and whose plans pass the verifier (k = 22 and 260
   do not); they span episode times of 0.15-1.7 s and switch costs of
   43 000-533 000. A pass takes some 7 s, and runs end on a whole pass,
   so every run plays each instance equally often. *)
let ngb_panel = [| 0; 1; 8; 57; 71; 155; 302; 358; 407; 456 |]

let testbed =
  Array.init 11 (fun i -> Node.testbed ~id:i ~name:(Printf.sprintf "N%d" i))

let ngb_traces base =
  List.init 8 (fun i ->
      Vworkload.Trace.make ~seed:(base + i) ~vm_count:9
        (List.nth Vworkload.Nasgrid.families (i mod 4))
        Vworkload.Nasgrid.W)

let live_vjobs (obs : Decision.observation) =
  List.filter
    (fun v -> not (List.mem (Vjob.id v) obs.Decision.finished))
    obs.Decision.queue

let ngb_op ~tmp:_ ~traced:_ k =
  let traces = ngb_traces (8 * k) in
  let inner =
    Decision.consolidation ~cp_timeout:ngb_cp_timeout
      ~cp_node_limit:ngb_node_limit ()
  in
  let decided = ref [] in
  let decision =
    {
      inner with
      Decision.decide =
        (fun obs ->
          let r = inner.Decision.decide obs in
          decided := (obs, r) :: !decided;
          r);
    }
  in
  let result = ref None in
  let run () =
    result := Some (Vsim.Runner.run_entropy ~decision ~nodes:testbed ~traces ())
  in
  let finish () =
    let r = Option.get !result in
    let decided = !decided in
    let t0 = now () in
    let unclean =
      List.length
        (List.filter
           (fun ((obs : Decision.observation), (res : Optimizer.result)) ->
             not
               (Verifier.is_clean ~vjobs:(live_vjobs obs) ~current:obs.Decision.config
                  ~target:res.Optimizer.target ~demand:obs.Decision.demand
                  res.Optimizer.plan))
           decided)
    in
    let verify_ms = 1000. *. (now () -. t0) in
    let stats = List.filter_map (fun (_, res) -> res.Optimizer.stats) decided in
    (* the node budget also raises [timed_out]; only a search that stopped
       short of it hit the wall clock *)
    let clock_stops =
      List.length
        (List.filter
           (fun s -> s.Fdcp.Search.timed_out && s.Fdcp.Search.nodes < ngb_node_limit)
           stats)
    in
    let served = List.length r.Vsim.Runner.completions in
    let outcome =
      outcome_of_switches
        (List.map
           (fun (s : Vsim.Executor.record) -> (s.Vsim.Executor.cost, Vsim.Executor.duration s))
           r.Vsim.Runner.switches)
        ~makespan_s:r.Vsim.Runner.makespan ~vjobs:(List.length traces) ~served
    in
    {
      outcome;
      digest =
        Printf.sprintf "makespan=%.6f cost=%d switches=%d cp_nodes=%d"
          r.Vsim.Runner.makespan outcome.cost outcome.switches
          (Stats.sum_int_by (fun s -> s.Fdcp.Search.nodes) stats);
      problems =
        problem (unclean = 0) "base %d: %d plans fail the verifier" (8 * k) unclean
        @ problem (clock_stops = 0) "base %d: %d searches hit the wall-clock timeout" (8 * k)
            clock_stops
        @ problem
            (served = List.length traces && not r.Vsim.Runner.killed)
            "base %d: %d of %d vjobs completed" (8 * k) served (List.length traces);
      extras =
        [ ("verifier.ms", verify_ms); ("verifier.plans", float_of_int (List.length decided)) ];
    }
  in
  { run; finish }

let ngb_cp =
  {
    name = "ngb-cp";
    wall_clock_bound = false;
    root_layer = "loop";
    op = ngb_op;
    input = draw ngb_panel;
    batch = Array.length ngb_panel;
    (* the panel's shortest episode (0.15 s), so that five set-ups and
       whole passes keep a run near 30 s *)
    warmup = 71;
  }

(* -- burst-daemon ---------------------------------------------------------- *)

(* The online daemon in deterministic mode (FFD at every ladder rung, so
   a seed reproduces the run bit for bit): open MMPP arrivals with
   bursts, 5% action failures, two scripted node crashes and a file
   journal. 500 submissions overload the admission queue in bursts and
   keep an episode near 0.5 s, so a run averages some thirty of them. *)
let daemon_config seed =
  {
    Daemon.default_config with
    seed;
    nodes = 24;
    submissions = 500;
    fail_rate = 0.05;
    crashes = 2;
    deterministic = true;
  }

let daemon_gates (r : Daemon.report) =
  problem r.Daemon.all_terminated "an admitted vjob did not terminate"
  @ problem r.Daemon.final_viable "final configuration not viable"
  @ problem r.Daemon.queue_bounded "admission queue reached its cap"
  @ problem r.Daemon.degradation_bounded "degradation unbounded"

let burst_op ~tmp ~traced n =
  let config = daemon_config n in
  let path = Filename.concat tmp "burst.wal" in
  remove path;
  let report = ref None in
  let run () =
    let j = Journal.open_file path in
    report := Some (Daemon.run ~journal:j config);
    Journal.close j
  in
  let finish () =
    let r = Option.get !report in
    let records, dropped = Journal.load path in
    let bytes = (Unix.stat path).Unix.st_size in
    remove path;
    let outcome =
      outcome_of_switches (journal_switches records) ~makespan_s:r.Daemon.makespan
        ~vjobs:r.Daemon.submissions ~served:r.Daemon.completed
    in
    {
      outcome;
      digest =
        Printf.sprintf "makespan=%.6f cost=%d switches=%d rejected=%d bytes=%d"
          r.Daemon.makespan outcome.cost outcome.switches r.Daemon.rejected bytes;
      problems = daemon_gates r @ problem (dropped = 0) "journal reload dropped %d" dropped;
      extras =
        [
          ("journal.records", float_of_int (List.length records));
          ("journal.bytes", float_of_int bytes);
          ("journal.switches", float_of_int outcome.switches);
          ("daemon.triggers_raised", float_of_int r.Daemon.triggers_raised);
          ("daemon.triggers_coalesced", float_of_int r.Daemon.triggers_coalesced);
        ]
        @ if traced then [ ("journal.append_ms", append_ms ~tmp records) ] else [];
    }
  in
  { run; finish }

let burst_daemon =
  {
    name = "burst-daemon";
    wall_clock_bound = false;
    root_layer = "daemon";
    op = burst_op;
    (* some 0.6 s each: a run covers 22-36 *)
    input = draw (pool 32);
    batch = 1;
    warmup = 0;
  }

(* -- place-dense ----------------------------------------------------------- *)

(* The placement portfolio alone on dense 216-VM / 54-node generator
   instances. The deadline pins latency, so what a user gains or loses is
   plan cost at that deadline. *)
let place_deadline = 0.5

let place_op ~tmp:_ ~traced:_ n =
  let { Vworkload.Generator.config; demand; vjobs } =
    Vworkload.Generator.generate
      { Vworkload.Generator.default_spec with node_count = 54; vm_target = 216; seed = n }
  in
  let o = Rjsp.solve ~config ~demand ~queue:vjobs () in
  let placed = List.concat_map Vjob.vms o.Rjsp.running in
  let report = ref None in
  let run () =
    report :=
      Some
        (Portfolio.solve ~deadline:place_deadline ~engine:`Portfolio ~vjobs
           ~current:config ~demand ~placed ~target_base:o.Rjsp.ffd_config
           ~fallback:o.Rjsp.ffd_config ())
  in
  let finish () =
    let rep = Option.get !report in
    let r = rep.Portfolio.result in
    let t0 = now () in
    let clean =
      Verifier.is_clean ~vjobs ~current:config ~target:r.Optimizer.target ~demand
        r.Optimizer.plan
    in
    let verify_ms = 1000. *. (now () -. t0) in
    let ffd = rep.Portfolio.ffd_cost in
    let winner w = if rep.Portfolio.winner = w then 1. else 0. in
    let duration = Schedule.makespan (Schedule.of_plan config r.Optimizer.plan) in
    {
      outcome =
        {
          switches = 1;
          cost = r.Optimizer.cost;
          switch_time_s = duration;
          makespan_s = duration;
          vjobs = List.length vjobs;
          served = List.length o.Rjsp.running;
        };
      (* the portfolio's own answer depends on the wall clock; its inputs
         and the FFD incumbent do not *)
      digest =
        Printf.sprintf "ffd=%d vjobs=%d placed=%d" ffd (List.length vjobs)
          (List.length placed);
      problems =
        problem clean "portfolio plan fails the verifier"
        @ problem (r.Optimizer.cost <= ffd) "portfolio cost %d above FFD %d"
            r.Optimizer.cost ffd;
      extras =
        [
          ("place.overrun_ms", 1000. *. (rep.Portfolio.elapsed -. place_deadline));
          ("place.improved", if r.Optimizer.cost < ffd then 1. else 0.);
          ("place.winner.ffd", winner "ffd");
          ("place.winner.sa", winner "sa");
          ("place.winner.lns", winner "lns");
          ("place.winner.cp", winner "cp");
          ("verifier.ms", verify_ms);
          ("verifier.plans", 1.);
        ];
    }
  in
  { run; finish }

let place_dense =
  {
    name = "place-dense";
    wall_clock_bound = true;
    root_layer = "bench";
    op = place_op;
    (* 0.5 s each: a run covers 40 *)
    input = draw (pool 40);
    batch = 1;
    warmup = 0;
  }

(* -- crash-resume ---------------------------------------------------------- *)

(* An operator's restart after a controller crash. Untimed, a
   burst-daemon episode is killed mid-storm at simulated time [kill_s]
   (about 40% of the episode), leaving its file journal, and that journal
   is resumed to completion on a copy: the correctness gate and the
   outcome. Timed, on a fresh copy of the crashed journal each time: load
   it, resume the daemon until it has run one simulated second (replay,
   reconcile, back in control), and explain the crash. *)
let kill_s = 6000.

type crash = {
  journal : string;  (** the file as the crash left it *)
  gate : outcome * string list;
}

(* The crash of the last input, shared by the operations timed on it. *)
let last_crash = ref None

(* Forget shared inputs, so a repeated set-up redoes all its work. *)
let forget_inputs () = last_crash := None

let crash_of ~path config =
  let n = config.Daemon.seed in
  match !last_crash with
  | Some (m, c) when m = n -> c
  | _ ->
    remove path;
    let jr = Journal.open_file path in
    let killed = Daemon.run ~journal:jr { config with Daemon.kill_at = Some kill_s } in
    Journal.close jr;
    let journal = In_channel.with_open_bin path In_channel.input_all in
    let records, _ = Journal.load path in
    let jr = Journal.open_file path in
    let full = Daemon.resume ~journal:jr ~records config in
    Journal.close jr;
    let n_before = List.length records in
    let after = List.filteri (fun k _ -> k >= n_before) (fst (Journal.load path)) in
    let outcome =
      outcome_of_switches (journal_switches after)
        ~makespan_s:(kill_s +. full.Daemon.makespan)
        ~vjobs:full.Daemon.submissions ~served:full.Daemon.completed
    in
    let problems =
      problem killed.Daemon.killed "episode ended before the kill"
      @ problem
          (full.Daemon.all_terminated && full.Daemon.final_viable)
          "full resume not terminated and viable"
    in
    let c = { journal; gate = (outcome, problems) } in
    last_crash := Some (n, c);
    c

let crash_op ~tmp ~traced:_ n =
  let config = daemon_config n in
  let path = Filename.concat tmp "crash.wal" in
  let crash = crash_of ~path config in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc crash.journal);
  let out = ref None in
  let run () =
    let records, dropped =
      Obs.span ~name:"bench.journal.load" (fun () -> Journal.load path)
    in
    let report =
      Obs.span ~name:"bench.resume" (fun () ->
          let jr = Journal.open_file path in
          let r = Daemon.resume ~journal:jr ~records { config with Daemon.kill_at = Some 1.0 } in
          Journal.close jr;
          r)
    in
    (* [Report.analyze_records], split so the trace shows both stages *)
    let timelines =
      Obs.span ~name:"bench.flight.timeline" (fun () ->
          Entropy_flight.Timeline.of_records records)
    in
    let analyses =
      Obs.span ~name:"bench.flight.critical" (fun () ->
          List.map (fun sw -> (sw, Entropy_flight.Critical.analyze sw)) timelines)
    in
    out := Some (records, dropped, report, analyses)
  in
  let finish () =
    let records, dropped, (r : Daemon.report), analyses = Option.get !out in
    remove path;
    let unhealthy =
      List.length (List.filter (fun a -> not (Entropy_flight.Report.healthy a)) analyses)
    in
    let outcome, gate_problems = crash.gate in
    {
      outcome;
      digest =
        Printf.sprintf "records=%d admitted=%d rejected=%d switches=%d explained=%d"
          (List.length records) r.Daemon.admitted r.Daemon.rejected r.Daemon.switches
          (List.length analyses);
      problems =
        gate_problems
        @ problem (dropped = 0) "journal load dropped %d" dropped
        @ problem r.Daemon.resumed "daemon did not resume"
        @ problem (unhealthy = 0) "%d explained switches unhealthy" unhealthy;
      extras = [];
    }
  in
  { run; finish }

let crash_resume =
  {
    name = "crash-resume";
    wall_clock_bound = false;
    root_layer = "bench";
    op = crash_op;
    (* building a crashed journal costs as much as ten restarts, so each
       is timed three times; a run covers 21-32 journals *)
    input = (fun ~seed i -> draw (pool 28) ~seed (i / 3));
    batch = 3;
    warmup = 0;
  }

let all = [ ngb_cp; burst_daemon; place_dense; crash_resume ]
let find name = List.find_opt (fun w -> w.name = name) all
