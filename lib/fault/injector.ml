(* Deterministic, seeded fault injection. An injector is a list of
   failure models consulted once per action *attempt*: the composed
   decision says whether the attempt fails (state unchanged) and by how
   much it is slowed down. Node crashes are carried by the injector as
   scripted events ([node_crashes]) but enacted by the environment (the
   simulator's cluster), not by [decide].

   Determinism: all randomness comes from one [Random.State] seeded at
   [create]; a rate model draws only when its kind matches, so runs with
   the same seed and the same action-attempt sequence decide
   identically. *)

open Entropy_core

type kind = Run | Stop | Migrate | Suspend | Resume | Suspend_ram | Resume_ram

let kind_of_action = function
  | Action.Run _ -> Run
  | Action.Stop _ -> Stop
  | Action.Migrate _ -> Migrate
  | Action.Suspend _ -> Suspend
  | Action.Resume _ -> Resume
  | Action.Suspend_ram _ -> Suspend_ram
  | Action.Resume_ram _ -> Resume_ram

let kind_to_string = function
  | Run -> "run"
  | Stop -> "stop"
  | Migrate -> "migrate"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Suspend_ram -> "suspend-ram"
  | Resume_ram -> "resume-ram"

let kind_of_string = function
  | "run" -> Some Run
  | "stop" -> Some Stop
  | "migrate" -> Some Migrate
  | "suspend" -> Some Suspend
  | "resume" -> Some Resume
  | "suspend-ram" -> Some Suspend_ram
  | "resume-ram" -> Some Resume_ram
  | _ -> None

let kind_index = function
  | Run -> 0
  | Stop -> 1
  | Migrate -> 2
  | Suspend -> 3
  | Resume -> 4
  | Suspend_ram -> 5
  | Resume_ram -> 6


type model =
  | Fail_rate of { kind : kind option; rate : float }
  | Fail_nth of { kind : kind; nth : int }
  | Slowdown of { kind : kind option; factor : float }
  | Crash_node of { node : Node.id; at_s : float }
  | Predicate of (Action.t -> bool)

type decision = { fail : bool; slowdown : float }

let proceed = { fail = false; slowdown = 1. }

type t = {
  models : model list;
  seed : int;
  rng : Random.State.t;
  seen : int array;  (* attempts decided so far, per action kind *)
  mutable decisions : int;
}

let check_model = function
  | Fail_rate { rate; _ } when rate < 0. || rate > 1. ->
    invalid_arg "Injector.create: failure rate outside [0,1]"
  | Fail_nth { nth; _ } when nth <= 0 ->
    invalid_arg "Injector.create: nth must be >= 1"
  | Slowdown { factor; _ } when factor < 1. ->
    invalid_arg "Injector.create: slowdown factor < 1"
  | Crash_node { at_s; _ } when at_s < 0. ->
    invalid_arg "Injector.create: crash time < 0"
  | Fail_rate _ | Fail_nth _ | Slowdown _ | Crash_node _ | Predicate _ -> ()

let create ?(seed = 0) models =
  List.iter check_model models;
  {
    models;
    seed;
    rng = Random.State.make [| seed; 0x9e3779b9 |];
    seen = Array.make 7 0;
    decisions = 0;
  }

let none = create []
let of_predicate p = create [ Predicate p ]
let is_none t = t.models = []
let decided t = t.decisions
let seed t = t.seed

let matches k = function None -> true | Some k' -> k = k'

let decide t action =
  if t.models = [] then proceed
  else begin
    let k = kind_of_action action in
    let i = kind_index k in
    t.seen.(i) <- t.seen.(i) + 1;
    t.decisions <- t.decisions + 1;
    let occurrence = t.seen.(i) in
    List.fold_left
      (fun acc model ->
        match model with
        | Fail_rate { kind; rate } ->
          if matches k kind && Random.State.float t.rng 1. < rate then
            { acc with fail = true }
          else acc
        | Fail_nth { kind; nth } ->
          if kind = k && nth = occurrence then { acc with fail = true }
          else acc
        | Slowdown { kind; factor } ->
          if matches k kind then { acc with slowdown = acc.slowdown *. factor }
          else acc
        | Crash_node _ -> acc
        | Predicate p -> if p action then { acc with fail = true } else acc)
      proceed t.models
  end

let node_crashes t =
  List.filter_map
    (function
      | Crash_node { node; at_s } -> Some (node, at_s)
      | Fail_rate _ | Fail_nth _ | Slowdown _ | Predicate _ -> None)
    t.models

(* Seeded crash schedule for soak runs: [count] distinct nodes crash at
   times drawn uniformly over (0, horizon_s], in time order. A separate
   salt keeps the schedule independent of the attempt-fate stream, so
   the same seed can drive both. *)
let crash_script ?(seed = 0) ~node_count ~horizon_s ~count () =
  if count < 0 then invalid_arg "Injector.crash_script: negative count";
  if count > node_count then
    invalid_arg "Injector.crash_script: more crashes than nodes";
  if horizon_s <= 0. then
    invalid_arg "Injector.crash_script: non-positive horizon";
  let rng = Random.State.make [| seed; 0xc4a5 |] in
  let order = Array.init node_count Fun.id in
  for i = node_count - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  List.init count (fun k ->
      (order.(k), horizon_s *. (1. -. Random.State.float rng 1.)))
  |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
  |> List.map (fun (node, at_s) -> Crash_node { node; at_s })
