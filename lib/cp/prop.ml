(* A propagator is a named closure that narrows variable domains. It
   raises [Store.Inconsistent] (via the store's update functions or
   directly) when it proves the current state has no solution.

   The [scheduled] flag keeps each propagator at most once in the
   propagation queue. [priority] selects the queue: [Cheap] propagators
   (arithmetic, element, ...) drain before any [Expensive] one (pack)
   runs, so the costly global constraint sees domains already at the
   cheap fixpoint.

   Wake events: a propagator subscribes per variable to the weakest
   event it can exploit. Events are ordered by strength —
   [On_instantiate] (the domain became a singleton) implies [On_bounds]
   (lo or hi moved) implies [On_domain] (any value was removed) — and a
   subscription wakes on its event or any stronger one. *)

type event = On_instantiate | On_bounds | On_domain

type priority = Cheap | Expensive

type t = {
  id : int;
  name : string;
  priority : priority;
  mutable scheduled : bool;
  mutable run : unit -> unit;
}

(* Subscription masks. An update fires [fired_domain], plus
   [fired_bounds] when a bound moved, plus [fired_instantiate] when the
   domain became a singleton; a watcher wakes when its mask intersects
   the fired set. Instantiation implies a bounds move implies a domain
   change, so each subscription needs only its own bit. *)
let fired_instantiate = 1
let fired_bounds = 2
let fired_domain = 4

let mask_of_event = function
  | On_instantiate -> fired_instantiate
  | On_bounds -> fired_bounds
  | On_domain -> fired_domain

let next_id = ref 0

let make ~name ?(priority = Cheap) run =
  incr next_id;
  { id = !next_id; name; priority; scheduled = false; run }

let pp ppf t = Fmt.pf ppf "%s#%d" t.name t.id
