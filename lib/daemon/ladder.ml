(* The graceful-degradation ladder: immediate escalation on any hot
   pressure signal, hysteretic relaxation (calm streak over lower
   thresholds), and a timed hold at Defer so the bottom rung cannot
   become a parking orbit. *)

type level = Full | Shrunk | Heuristic | Defer

let index = function Full -> 0 | Shrunk -> 1 | Heuristic -> 2 | Defer -> 3

let of_index = function
  | 0 -> Some Full
  | 1 -> Some Shrunk
  | 2 -> Some Heuristic
  | 3 -> Some Defer
  | _ -> None

let to_string = function
  | Full -> "full"
  | Shrunk -> "shrunk"
  | Heuristic -> "heuristic"
  | Defer -> "defer"

let pp ppf l = Fmt.string ppf (to_string l)

type pressure = {
  queue_fill : float;
  oldest_age_s : float;
  decision_lag_s : float;
}

let pp_pressure ppf p =
  Fmt.pf ppf "fill %.0f%%, oldest %.0fs, lag %.0fs" (p.queue_fill *. 100.)
    p.oldest_age_s p.decision_lag_s

type thresholds = { fill : float; age_s : float; lag_s : float }

(* any signal at or above its threshold: one rung down *)
let escalate = { fill = 0.75; age_s = 180.; lag_s = 60. }

(* all signals strictly below: a calm observation *)
let relax = { fill = 0.25; age_s = 30.; lag_s = 10. }

let calm_rounds = 3
let defer_hold_s = 120.

type transition = {
  from_level : level;
  to_level : level;
  at_s : float;
  cause : string;
}

let pp_transition ppf t =
  Fmt.pf ppf "%a -> %a at %.0fs (%s)" pp t.from_level pp t.to_level t.at_s
    t.cause

type t = {
  mutable level : level;
  mutable calm : int;            (* consecutive calm observations *)
  mutable defer_until : float;   (* hold expiry while at Defer *)
  mutable ups : int;
  mutable downs : int;
}

let create ?(level = Full) () =
  { level; calm = 0; defer_until = 0.; ups = 0; downs = 0 }

let level t = t.level
let defer_until t = t.defer_until
let ups t = t.ups
let downs t = t.downs

let down_one = function
  | Full -> Full
  | Shrunk -> Full
  | Heuristic -> Shrunk
  | Defer -> Heuristic

let up_one = function
  | Full -> Shrunk
  | Shrunk -> Heuristic
  | Heuristic -> Defer
  | Defer -> Defer

(* the first signal at or above its escalate threshold, for the journal *)
let hot p =
  if p.queue_fill >= escalate.fill then
    Some (Printf.sprintf "queue %.0f%% full" (p.queue_fill *. 100.))
  else if p.oldest_age_s >= escalate.age_s then
    Some (Printf.sprintf "oldest submission waiting %.0fs" p.oldest_age_s)
  else if p.decision_lag_s >= escalate.lag_s then
    Some (Printf.sprintf "decision lag %.0fs" p.decision_lag_s)
  else None

let calm p =
  p.queue_fill < relax.fill
  && p.oldest_age_s < relax.age_s
  && p.decision_lag_s < relax.lag_s

let transition t ~now ~cause to_level =
  let tr = { from_level = t.level; to_level; at_s = now; cause } in
  if index to_level > index t.level then t.ups <- t.ups + 1
  else t.downs <- t.downs + 1;
  t.level <- to_level;
  t.calm <- 0;
  if to_level = Defer then t.defer_until <- now +. defer_hold_s;
  Log.info (fun m -> m "ladder %a" pp_transition tr);
  Some tr

let observe t ~now p =
  if t.level = Defer && now >= t.defer_until then
    (* the hold is self-limiting: park at most defer_hold_s, then force
       a cheap re-decision whatever the pressure says *)
    transition t ~now ~cause:"defer hold expired" Heuristic
  else
    match hot p with
    | Some cause when t.level <> Defer ->
      transition t ~now ~cause (up_one t.level)
    | Some _ ->
      t.calm <- 0;
      None
    | None ->
      if calm p then begin
        t.calm <- t.calm + 1;
        if t.calm >= calm_rounds && t.level <> Full then
          transition t ~now
            ~cause:(Fmt.str "calm for %d rounds (%a)" t.calm pp_pressure p)
            (down_one t.level)
        else None
      end
      else begin
        t.calm <- 0;
        None
      end
