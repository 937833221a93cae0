(* Counting constraints over the number of variables taking a value:
   at_most / at_least / exactly. Used for node quotas (at most k VMs on
   a node) — a light form of the global cardinality constraint. *)

let occurrences vars value =
  let bound = ref 0 and candidates = ref 0 in
  Array.iter
    (fun x ->
      if Var.is_bound x then begin
        if Var.value_exn x = value then incr bound
      end
      else if Var.mem value x then incr candidates)
    vars;
  (!bound, !candidates)

let at_most store ?(name = "count_at_most") vars ~value ~count =
  if count < 0 then invalid_arg "Count.at_most: negative count";
  let p = Prop.make ~name (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      let bound, _ = occurrences vars value in
      if bound > count then
        Store.fail (fun () ->
            Fmt.str "%s: %d variables already equal %d (max %d)" name bound
              value count);
      if bound = count then
        (* saturated: the value leaves every unbound domain *)
        Array.iter
          (fun x -> if not (Var.is_bound x) then Store.remove store x value)
          vars);
  (* the bound count only changes when a variable becomes instantiated *)
  Store.post_on store p ~on:[ (Prop.On_instantiate, Array.to_list vars) ]

let at_least store ?(name = "count_at_least") vars ~value ~count =
  if count < 0 then invalid_arg "Count.at_least: negative count";
  let p = Prop.make ~name (fun () -> ()) in
  p.Prop.run <-
    (fun () ->
      let bound, candidates = occurrences vars value in
      let possible = bound + candidates in
      if possible < count then
        Store.fail (fun () ->
            Fmt.str "%s: at most %d variables can equal %d (need %d)" name
              possible value count);
      if possible = count then
        (* every candidate is forced *)
        Array.iter
          (fun x ->
            if (not (Var.is_bound x)) && Var.mem value x then
              Store.instantiate store x value)
          vars);
  Store.post store p ~on:(Array.to_list vars)

let exactly store ?(name = "count_exactly") vars ~value ~count =
  at_most store ~name:(name ^ "/ub") vars ~value ~count;
  at_least store ~name:(name ^ "/lb") vars ~value ~count
