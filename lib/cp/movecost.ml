(* Movement-cost sum:  obj = sum_i (x_i = home_i ? stay_i : move_i),
   with stay_i <= move_i.

   The Entropy objective (Table 1) gives every re-placed VM a two-valued
   cost: staying on its home node (current host, or the node holding its
   image) is cheap, any other node costs more. One global constraint
   replaces the per-VM element channel into a cost variable plus the
   linear sum over those variables, and reaches the same fixpoint:

   - obj lies in [smin, smax], where an item contributes stay to smin
     while home is still in its domain (move otherwise) and move to smax
     while a non-home value is (stay otherwise);
   - an item whose move would push smin above obj.hi is forced home;
   - an item whose stay would leave smax below obj.lo loses home.

   Items are "open" while both outcomes remain, i.e. home is in the
   domain together with at least one other value; only open items can
   be pruned, and an item closes for good (domains only shrink below a
   mark). The propagator is incremental in the style of [Pack]:
   - [sums] holds smin and smax;
   - [perm] keeps the open items in a prefix of length [nopen.(0)]
     (swap-removal), [pos] locating each item in it;
   both sums and the prefix length are trailed through [Store.save_cell].
   The swapped [perm] cells are not: closed items park at positions
   >= nopen.(0) in closing order, so restoring nopen.(0) restores the
   open prefix as a set, and [pos] follows every swap.

   A run folds the items closed since the last run into the sums: the
   store reports each item whose variable changed ([Prop.changes]), and
   the run checks only those still open. Its first run, and the first
   after an undo past it ([Store.first_run]), scans the whole open
   prefix instead. Pruning then walks the items by decreasing
   move - stay and stops at the first open item that fits both slacks
   (obj.hi - smin and smax - obj.lo): every later item fits too. Closing
   an item inside the walk updates the sums at once, so the slacks the
   rest of the walk sees are exact and one pass reaches the fixpoint.
   Tightening obj to [smin, smax] cannot enable more pruning: an open
   item's gap never exceeds smax - smin. The propagator is therefore
   posted idempotent: its own updates neither wake it nor report an
   item to it.

   A run builds no closure (beyond a failure's message thunk): [save],
   [close], [close_if_decided] and [check] are built once, at post
   time, and the only per-run scratch, the [saved] flag, is reset on
   entry to [run]. *)

type item = { var : Var.t; home : int; stay : int; move : int }

let item var ~home ~stay ~move =
  if stay > move then
    invalid_arg
      (Printf.sprintf "Movecost.item: stay %d exceeds move %d" stay move);
  { var; home; stay; move }

let of_table var table =
  let n = Array.length table in
  if n = 0 then invalid_arg "Movecost.of_table: empty table";
  let stay = Array.fold_left min max_int table in
  let move = Array.fold_left max min_int table in
  if stay = move then None
  else begin
    let homes = ref [] in
    Array.iteri
      (fun j c ->
        if c = stay then homes := j :: !homes
        else if c <> move then
          invalid_arg
            "Movecost.of_table: the table holds more than two values")
      table;
    match !homes with
    | [ home ] -> Some { var; home; stay; move }
    | _ ->
      invalid_arg "Movecost.of_table: the cheaper value is not on one node"
  end

let post store ~items ~obj =
  let n = Array.length items in
  let sums = [| 0; 0 |] in
  Array.iter
    (fun it ->
      sums.(0) <- sums.(0) + it.stay;
      sums.(1) <- sums.(1) + it.move)
    items;
  let perm = Array.init n Fun.id in
  let pos = Array.init n Fun.id in
  let nopen = [| n |] in
  (* pruning order: decreasing gap, ties by item index *)
  let by_gap = Array.init n Fun.id in
  let gap i = items.(i).move - items.(i).stay in
  Array.stable_sort (fun a b -> Int.compare (gap b) (gap a)) by_gap;
  (* per-run scratch: true once this run trailed the sums and the
     prefix length; reset on entry to [run] *)
  let saved = ref false in
  let save () =
    if not !saved then begin
      saved := true;
      Store.save_cell store sums 0;
      Store.save_cell store sums 1;
      Store.save_cell store nopen 0
    end
  in
  (* move item [i] out of the open prefix; its contribution is now
     fixed: [home_kept] says which *)
  let close i ~home_kept =
    save ();
    let g = gap i in
    if home_kept then sums.(1) <- sums.(1) - g
    else sums.(0) <- sums.(0) + g;
    let last = nopen.(0) - 1 in
    let k = pos.(i) in
    let j = perm.(last) in
    perm.(k) <- j;
    pos.(j) <- k;
    perm.(last) <- i;
    pos.(i) <- last;
    nopen.(0) <- last
  in
  let check ~lo ~hi =
    let smin = sums.(0) and smax = sums.(1) in
    if smin > hi then
      Store.fail (fun () ->
          Fmt.str "movecost: minimal cost %d exceeds %s <= %d" smin
            (Var.name obj) hi);
    if smax < lo then
      Store.fail (fun () ->
          Fmt.str "movecost: maximal cost %d below %s >= %d" smax
            (Var.name obj) lo)
  in
  (* close open item [i] when its outcome is decided; true if it was *)
  let close_if_decided i =
    let it = items.(i) in
    if not (Var.mem it.home it.var) then (close i ~home_kept:false; true)
    else if Var.size it.var = 1 then (close i ~home_kept:true; true)
    else false
  in
  let changes = Prop.new_changes n in
  let run () =
    saved := false;
    if Store.first_run store changes then begin
      let k = ref 0 in
      while !k < nopen.(0) do
        if not (close_if_decided perm.(!k)) then incr k
        (* a closed item is swapped with the prefix's last one: k then
           holds an unscanned item *)
      done
    end
    else begin
      for c = 0 to changes.count - 1 do
        let i = changes.items.(c) in
        if pos.(i) < nopen.(0) then ignore (close_if_decided i)
      done;
      Prop.clear changes
    end;
    let lo = Var.lo obj and hi = Var.hi obj in
    check ~lo ~hi;
    let r = ref 0 in
    let fits = ref false in
    while (not !fits) && !r < n do
      let i = by_gap.(!r) in
      incr r;
      if pos.(i) < nopen.(0) then begin
        let g = gap i in
        if g > hi - sums.(0) then begin
          Store.instantiate store items.(i).var items.(i).home;
          close i ~home_kept:true
        end
        else if g > sums.(1) - lo then begin
          Store.remove store items.(i).var items.(i).home;
          close i ~home_kept:false
        end
        else fits := true
      end
    done;
    check ~lo ~hi;
    Store.remove_below store obj sums.(0);
    Store.remove_above store obj sums.(1)
  in
  let p = Prop.make ~name:"movecost" ~idempotent:true ~changes run in
  Store.post_on store p
    ~items:(Prop.On_domain, Array.map (fun it -> it.var) items)
    ~on:[ (Prop.On_bounds, [ obj ]) ]
