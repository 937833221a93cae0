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
   subscription wakes on its event or any stronger one.

   Change reporting: a propagator over many items (Pack, Movecost)
   reads which of them fired from [changes] instead of rescanning them
   all. The store appends an item's index when its variable wakes the
   propagator; [reported] keeps each index listed once until the
   propagator clears the list. *)

type event = On_instantiate | On_bounds | On_domain

type priority = Cheap | Expensive

type changes = {
  items : int array;
  mutable count : int;
  reported : Bytes.t;
  primed : int array;
}

type t = {
  id : int;
  name : string;
  priority : priority;
  idempotent : bool;
  changes : changes;
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

let new_changes n =
  {
    items = Array.make n 0;
    count = 0;
    reported = Bytes.make n '\000';
    primed = [| 0 |];
  }

let make ~name ?(priority = Cheap) ?(idempotent = false)
    ?(changes = new_changes 0) run =
  incr next_id;
  { id = !next_id; name; priority; idempotent; changes; scheduled = false; run }

let report c i =
  if Bytes.get c.reported i = '\000' then begin
    Bytes.set c.reported i '\001';
    c.items.(c.count) <- i;
    c.count <- c.count + 1
  end

let clear c =
  for k = 0 to c.count - 1 do
    Bytes.set c.reported c.items.(k) '\000'
  done;
  c.count <- 0

let pp ppf t = Fmt.pf ppf "%s#%d" t.name t.id
