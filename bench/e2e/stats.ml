(* Order statistics shared by the run reports and [compare]. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor r) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 0.5

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] (exclusive method), so spreads read
   the same here and in any script that checks them. Needs two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let sum_by f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sum_int_by f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* [num / den], 0 when nothing was counted. *)
let ratio num den = if den = 0. then 0. else num /. den
