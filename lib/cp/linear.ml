(* Bounds-consistent linear constraints:  sum_i a_i * x_i  <= / = / >=  c.

   The classic propagation: with S_min = sum of minimal contributions,
   every term's bound follows from the slack c - (S_min - own minimal
   contribution). Equality posts both directions. *)

type term = int * Var.t (* coefficient, variable *)

let min_contrib (a, x) = if a >= 0 then a * Var.lo x else a * Var.hi x
let max_contrib (a, x) = if a >= 0 then a * Var.hi x else a * Var.lo x

let propagate_le store terms c () =
  let s_min = List.fold_left (fun s t -> s + min_contrib t) 0 terms in
  if s_min > c then
    Store.fail (fun () ->
        Fmt.str "linear_le: minimal sum %d exceeds bound %d" s_min c);
  let prune ((a, x) as t) =
    if a <> 0 then begin
      let slack = c - (s_min - min_contrib t) in
      if a > 0 then Store.remove_above store x (Arith.div_floor slack a)
      else
        (* a*x <= slack with a < 0  <=>  x >= ceil (slack / a)
           = -floor (slack / -a) since the divisor is negative *)
        Store.remove_below store x (-Arith.div_floor slack (-a))
    end
  in
  List.iter prune terms

let post_le store ~name terms c =
  let p = Prop.make ~name (fun () -> ()) in
  p.Prop.run <- propagate_le store terms c;
  (* bounds consistency: only lo/hi moves can change the propagation *)
  Store.post_on store p ~on:[ (Prop.On_bounds, List.map snd terms) ]

let sum_le store terms c = post_le store ~name:"linear_le" terms c

let sum_ge store terms c =
  (* distinct name: both directions watch the same variables with the
     same masks, the coefficients alone differ *)
  post_le store ~name:"linear_ge" (List.map (fun (a, x) -> (-a, x)) terms) (-c)

let sum_eq store terms c =
  sum_le store terms c;
  sum_ge store terms c

let sum_var store terms y =
  (* y = sum terms, i.e. sum terms - y = 0 *)
  sum_eq store ((-1, y) :: terms) 0

let weighted vars coefs =
  if Array.length vars <> Array.length coefs then
    invalid_arg "Linear.weighted: length mismatch";
  Array.to_list (Array.map2 (fun c v -> (c, v)) coefs vars)

let current_min terms =
  List.fold_left (fun s t -> s + min_contrib t) 0 terms

let current_max terms =
  List.fold_left (fun s t -> s + max_contrib t) 0 terms
