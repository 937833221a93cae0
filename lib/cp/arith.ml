(* Small arithmetic constraints over pairs of variables. *)

let div_floor a b =
  (* b > 0 *)
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* x <= y + c *)
let le_offset store x y c =
  let p =
    Prop.make ~name:"le_offset" (fun () -> ())
  in
  p.Prop.run <-
    (fun () ->
      Store.remove_above store x (Var.hi y + c);
      Store.remove_below store y (Var.lo x - c));
  Store.post_on store p ~on:[ (Prop.On_bounds, [ x; y ]) ]

let le store x y = le_offset store x y 0

let lt store x y = le_offset store x y (-1)

(* x = y + c *)
let eq_offset store x y c =
  let p = Prop.make ~name:"eq_offset" (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      Store.remove_above store x (Var.hi y + c);
      Store.remove_below store x (Var.lo y + c);
      Store.remove_above store y (Var.hi x - c);
      Store.remove_below store y (Var.lo x - c);
      (* value-level channeling when both sides are enumerable *)
      if Dom.enumerable (Var.dom x) && Dom.enumerable (Var.dom y) then begin
        Dom.iter
          (fun v -> if not (Var.mem (v - c) y) then Store.remove store x v)
          (Var.dom x);
        Dom.iter
          (fun v -> if not (Var.mem (v + c) x) then Store.remove store y v)
          (Var.dom y)
      end);
  Store.post store p ~on:[ x; y ]

let eq store x y = eq_offset store x y 0

(* x <> v *)
let neq_const store x v =
  let p = Prop.make ~name:"neq_const" (fun () -> ()) in
  p.Prop.run <- (fun () -> Store.remove store x v);
  Store.post store p ~on:[]

(* x <> y *)
let neq store x y =
  let p = Prop.make ~name:"neq" (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      if Var.is_bound x then Store.remove store y (Var.value_exn x)
      else if Var.is_bound y then Store.remove store x (Var.value_exn y));
  Store.post_on store p ~on:[ (Prop.On_instantiate, [ x; y ]) ]
