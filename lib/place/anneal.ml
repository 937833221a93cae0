(* Simulated annealing over placement states.

   Metropolis acceptance with geometric cooling: improving moves are
   always taken, worsening moves with probability exp(-delta/T). The
   temperature floors at 1 (pure hill climbing) instead of reheating —
   the portfolio restarts the annealer per time slice, which plays the
   reheating role. The incumbent stream is monotone: [on_incumbent]
   fires only when the best cost strictly improves. *)

module Obs = Entropy_obs.Obs
module Metrics = Entropy_obs.Metrics

let m_moves = lazy (Metrics.counter "place.moves")
let m_accepted = lazy (Metrics.counter "place.accepted")
let m_incumbents = lazy (Metrics.counter "place.incumbents")

(* initial temperature, in objective (MB) units *)
let t0 = 1024.

(* geometric cooling factor, applied every step *)
let cooling = 0.9995

(* steps between wall-clock reads *)
let check_every = 64

type outcome = {
  best_cost : int;  (* objective (estimator) value, not plan cost *)
  best_hosts : int array;
  steps : int;
  accepted : int;
  incumbents : int;
}

let now () = Unix.gettimeofday ()

let run ?max_steps ?(seed = 0x5a11) ?(on_incumbent = fun ~cost:_ _ -> ())
    ~deadline state =
  Obs.span ~cat:"place" ~name:"place.sa" @@ fun () ->
  let gen = Moves.make_gen ~seed state in
  let rng = Random.State.make [| seed lxor 0x5eed |] in
  let temp = ref t0 in
  let best_cost = ref (State.cost state) in
  let best_hosts = ref (State.copy_hosts state) in
  let steps = ref 0 and accepted = ref 0 and incumbents = ref 0 in
  let budget = match max_steps with Some s -> s | None -> max_int in
  let stop = ref false in
  while (not !stop) && !steps < budget do
    incr steps;
    (match Moves.propose gen state with
    | None -> ()
    | Some m ->
      let d = Moves.delta state m in
      if
        d <= 0
        || Random.State.float rng 1.0 < exp (-.float_of_int d /. !temp)
      then begin
        Moves.apply gen state m;
        incr accepted;
        let c = State.cost state in
        if c < !best_cost then begin
          best_cost := c;
          best_hosts := State.copy_hosts state;
          incr incumbents;
          on_incumbent ~cost:c !best_hosts
        end
      end);
    temp := !temp *. cooling;
    if !temp < 1. then temp := 1.;
    if !steps mod check_every = 0 && now () >= deadline then
      stop := true
  done;
  (* leave the state at the best placement seen *)
  if State.cost state > !best_cost then State.load_hosts state !best_hosts;
  if !Obs.enabled then begin
    Metrics.add (Lazy.force m_moves) !steps;
    Metrics.add (Lazy.force m_accepted) !accepted;
    Metrics.add (Lazy.force m_incumbents) !incumbents
  end;
  {
    best_cost = !best_cost;
    best_hosts = !best_hosts;
    steps = !steps;
    accepted = !accepted;
    incumbents = !incumbents;
  }
