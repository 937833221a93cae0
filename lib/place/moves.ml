(* Move generators over placement states.

   Two elementary neighbourhoods drive the annealer: migrate-one (pick a
   VM, try another node) and swap-pair (exchange the hosts of two VMs —
   reaches packings a single migration cannot, because each VM's
   resources count as freed for the other). Proposals are sampled with a
   bounded number of candidate draws per call (the distance limit: the
   generator gives up rather than scanning the whole neighbourhood) and
   a tabu tenure per VM so the search does not undo its own recent moves
   for a few steps. The vjob-eject and node-eject neighbourhoods are the
   large moves of {!Lns}. *)

type t =
  | Migrate of { idx : int; dst : int }
  | Swap of { a : int; b : int }

(* steps during which a just-moved VM is not proposed again *)
let tenure = 8

(* the distance limit: draws attempted per proposal *)
let candidates = 16

(* percentage of draws that try a swap *)
let swap_bias = 30

type gen = {
  rng : Random.State.t;
  tabu : int array;  (* tabu.(i): clock tick until which VM i is tabu *)
  mutable clock : int;
}

let make_gen ~seed state =
  {
    rng = Random.State.make [| seed |];
    tabu = Array.make (max 1 (State.vm_count state)) 0;
    clock = 0;
  }

let delta state = function
  | Migrate { idx; dst } -> State.move_delta state idx dst
  | Swap { a; b } -> State.swap_delta state a b

let feasible state = function
  | Migrate { idx; dst } ->
    dst <> State.host state idx && State.fits state idx dst
  | Swap { a; b } -> State.can_swap state a b

let apply gen state m =
  gen.clock <- gen.clock + 1;
  match m with
  | Migrate { idx; dst } ->
    State.move state idx dst;
    gen.tabu.(idx) <- gen.clock + tenure
  | Swap { a; b } ->
    State.swap state a b;
    gen.tabu.(a) <- gen.clock + tenure;
    gen.tabu.(b) <- gen.clock + tenure

let propose gen state =
  let k = State.vm_count state and n = State.node_count state in
  if k = 0 || n < 2 then None
  else
    let rec draw attempts =
      if attempts <= 0 then None
      else
        let i = Random.State.int gen.rng k in
        if gen.tabu.(i) > gen.clock then draw (attempts - 1)
        else if
          k > 1 && Random.State.int gen.rng 100 < swap_bias
        then begin
          let b = Random.State.int gen.rng k in
          if b <> i && gen.tabu.(b) <= gen.clock && State.can_swap state i b
          then Some (Swap { a = i; b })
          else draw (attempts - 1)
        end
        else begin
          let dst = Random.State.int gen.rng n in
          if dst <> State.host state i && State.fits state i dst then
            Some (Migrate { idx = i; dst })
          else draw (attempts - 1)
        end
    in
    draw candidates
