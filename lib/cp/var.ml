(* Finite-domain variables. Domain mutation goes through [Store], which
   handles trailing and propagator scheduling; this module only holds the
   representation and read accessors.

   Watchers carry the event mask they subscribed with (see [Prop.event]):
   the store wakes a watcher only when an update fires an event in its
   mask, and then reports the watcher's item, if any, to the
   propagator's change list. *)

type watcher = { mask : int; item : int; prop : Prop.t }

type t = {
  id : int;
  name : string;
  mutable dom : Dom.t;
  mutable watchers : watcher list;
}

let id t = t.id

(* Read instrumentation for the analysis sanitizer: when set, every read
   accessor reports the variable it touched (used to check that a
   propagator only reads variables it subscribed to). The production
   cost is one load and one predictable branch per read. *)
let read_hook : (t -> unit) option ref = ref None

let[@inline] note_read t =
  match !read_hook with None -> () | Some f -> f t

(* anonymous variables store [""] and render as "v<id>" on demand, so
   variable creation never formats a string *)
let name t = if t.name = "" then "v" ^ string_of_int t.id else t.name

let dom t =
  note_read t;
  t.dom

let lo t = note_read t; Dom.lo t.dom
let hi t = note_read t; Dom.hi t.dom
let size t = note_read t; Dom.size t.dom
let is_bound t = note_read t; Dom.is_bound t.dom
let mem v t = note_read t; Dom.mem v t.dom

let value_exn t =
  if not (is_bound t) then
    invalid_arg (Printf.sprintf "Var.value_exn: %s not bound" (name t));
  Dom.value_exn t.dom

let watch t ?(event = Prop.On_domain) ?(item = -1) prop =
  let mask = Prop.mask_of_event event in
  let rec add = function
    | [] -> [ { mask; item; prop } ]
    | w :: rest when w.prop.Prop.id = prop.Prop.id && w.item = item ->
      { w with mask = w.mask lor mask } :: rest
    | w :: rest -> w :: add rest
  in
  t.watchers <- add t.watchers

let pp ppf t = Fmt.pf ppf "%s=%a" (name t) Dom.pp t.dom
