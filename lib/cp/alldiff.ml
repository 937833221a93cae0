(* All-different constraint with forward checking plus a pigeonhole test
   (more values needed than available -> failure). Used for the optional
   `spread` placement side-constraint (VMs of a vjob on distinct nodes). *)

let post store vars =
  let vars = Array.of_list vars in
  let p = Prop.make ~name:"alldiff" (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      (* forward checking: a bound variable's value leaves the others *)
      Array.iteri
        (fun i x ->
          if Var.is_bound x then begin
            let v = Var.value_exn x in
            Array.iteri
              (fun j y -> if i <> j then Store.remove store y v)
              vars
          end)
        vars;
      (* pigeonhole over the union of the remaining domains *)
      let union = Hashtbl.create 64 in
      let enumerable_all = ref true in
      Array.iter
        (fun x ->
          if Dom.enumerable (Var.dom x) then
            Dom.iter (fun v -> Hashtbl.replace union v ()) (Var.dom x)
          else enumerable_all := false)
        vars;
      let nvalues = Hashtbl.length union and nvars = Array.length vars in
      if !enumerable_all && nvalues < nvars then
        Store.fail (fun () ->
            Fmt.str "alldiff: %d variables, %d values" nvars nvalues));
  Store.post store p ~on:(Array.to_list vars)
