(* Element constraint:  y = table.(x).

   The index variable must be enumerable; the result variable is pruned
   at the value level when its own domain is enumerable, at the bounds
   otherwise. One element channel per VM, summed by [Linear.sum_var], is
   the reference encoding of the optimiser's objective that [Movecost]
   is tested against. *)

let post store x table y =
  let len = Array.length table in
  if len = 0 then invalid_arg "Element.post: empty table";
  let p = Prop.make ~name:"element" (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      Store.remove_below store x 0;
      Store.remove_above store x (len - 1);
      (* prune index values whose image left y's domain *)
      Dom.iter
        (fun v -> if not (Var.mem table.(v) y) then Store.remove store x v)
        (Var.dom x);
      (* collect the feasible images *)
      let vmin = ref max_int and vmax = ref min_int in
      Dom.iter
        (fun v ->
          let w = table.(v) in
          if w < !vmin then vmin := w;
          if w > !vmax then vmax := w)
        (Var.dom x);
      if !vmin > !vmax then Store.fail "element: no feasible index";
      Store.remove_below store y !vmin;
      Store.remove_above store y !vmax;
      if Dom.enumerable (Var.dom y) then begin
        let feasible = Hashtbl.create 16 in
        Dom.iter (fun v -> Hashtbl.replace feasible table.(v) ()) (Var.dom x);
        Dom.iter
          (fun w ->
            if not (Hashtbl.mem feasible w) then Store.remove store y w)
          (Var.dom y)
      end)
  ;
  Store.post store p ~on:[ x; y ]
