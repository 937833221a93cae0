(* One-dimensional bin-packing propagator in the style of Shaw (CP'04),
   which the paper cites for the viability constraint: items (placement
   variable + size) must fit bins of fixed capacities.

   Propagation performed:
   - fail when a bin's committed load exceeds its capacity;
   - prune bin b from item i when committed(b) + size(i) > cap(b);
   - fail when the total size of unassigned items exceeds the total
     residual capacity.

   The propagator is incremental. It subscribes only to On_instantiate
   events (committed loads can change in no other way) and maintains,
   across wake-ups:
   - [committed]: per-bin load of bound items;
   - [state]: the total residual capacity and the unassigned demand;
   - [unassigned]: the indices of still-unbound items, packed in a
     prefix of length [nun.(0)] (swap-removal), [pos] locating each
     item in it.
   All of it is trailed through [Store.save_cell], so backtracking
   restores the propagator state in lockstep with the domains. The
   store reports each item bound since the last run ([Prop.changes]),
   so a wake-up commits those alone and re-checks only the touched bins
   against the unassigned items: O(reported) plus O(unassigned) per bin
   whose slack actually shrank, instead of rescanning and re-sorting
   every (item, bin) pair. The propagator is not idempotent: a pruning
   that leaves one bin instantiates the item, which wakes it again.

   The first run primes the invariant: it commits every bound item and
   checks every bin once. Afterwards "slack(b) < size(i) implies b
   pruned from i" holds at every fixpoint by induction, because undo
   restores domains and propagator state to a point where it held. The
   priming is trailed like the rest ([Store.first_run]): an undo past
   the first run, as a scoped probe before a search does, makes the
   next run prime again.

   A wake-up builds no closure (beyond a failure's message thunk). The
   helpers below are built once, at post time, and share the per-run
   scratch: the touched-bin list ([touched], [ntouched], [is_touched])
   and the [saved_globals] flag. [run] resets [ntouched] and
   [saved_globals] on entry; [clear_touched] lowers [is_touched] on the
   way out, from a plain handler when the run raises, so the next run
   starts with every mark down. *)

type item = { var : Var.t; size : int }

let item var size = { var; size }

let post store ?(name = "pack") ~items ~capacities () =
  let nbins = Array.length capacities in
  let n = Array.length items in
  let committed = Array.make nbins 0 in
  (* state.(0) = sum over bins of max(0, slack); state.(1) = unassigned demand *)
  let state = Array.make 2 0 in
  Array.iter (fun c -> if c > 0 then state.(0) <- state.(0) + c) capacities;
  Array.iter (fun it -> state.(1) <- state.(1) + it.size) items;
  let unassigned = Array.init n Fun.id in
  let pos = Array.init n Fun.id in
  let nun = Array.make 1 n in
  let changes = Prop.new_changes n in
  (* per-run scratch (not trailed): reset on entry to [run], except
     [is_touched], which [clear_touched] lowers on the way out *)
  let touched = Array.make (max nbins 1) 0 in
  let ntouched = ref 0 in
  let is_touched = Array.make nbins false in
  let saved_globals = ref false in
  (* largest item size: a bin with at least this much slack can never
     prune anything, so its scan is skipped outright *)
  let max_size = Array.fold_left (fun acc it -> max acc it.size) 0 items in
  (* [touch] doubles as the trail point for committed.(b): it runs
     exactly once per bin per wake-up, before the first mutation *)
  let touch b =
    if not is_touched.(b) then begin
      is_touched.(b) <- true;
      touched.(!ntouched) <- b;
      incr ntouched;
      Store.save_cell store committed b
    end
  in
  let save_globals () =
    if not !saved_globals then begin
      saved_globals := true;
      Store.save_cell store state 0;
      Store.save_cell store state 1;
      Store.save_cell store nun 0
      (* the swapped [unassigned] cells are NOT trailed: the array
         stays a permutation of all item indices with the committed
         items parked at positions >= nun.(0) in commit order, so
         restoring nun.(0) alone restores the unassigned prefix as a
         set — and only the set matters *)
    end
  in
  (* commit bound item [i], still in the unassigned prefix *)
  let commit i =
    let it = items.(i) in
    let b = Var.value_exn it.var in
    save_globals ();
    state.(1) <- state.(1) - it.size;
    if b >= 0 && b < nbins then begin
      let old_slack = capacities.(b) - committed.(b) in
      let new_slack = old_slack - it.size in
      if new_slack < 0 then begin
        let load = committed.(b) + it.size and cap = capacities.(b) in
        Store.fail (fun () ->
            Fmt.str "%s: bin %d overloaded (%d > %d)" name b load cap)
      end;
      touch b;
      committed.(b) <- committed.(b) + it.size;
      state.(0) <- state.(0) - (max old_slack 0 - max new_slack 0)
    end;
    (* swap-remove from the unassigned prefix *)
    let last = nun.(0) - 1 in
    let k = pos.(i) in
    let j = unassigned.(last) in
    unassigned.(k) <- j;
    pos.(j) <- k;
    unassigned.(last) <- i;
    pos.(i) <- last;
    nun.(0) <- last
  in
  (* commit the items bound since the last run; true when this run
     must prime (it then scans the whole unassigned prefix) *)
  let commit_new_items () =
    if Store.first_run store changes then begin
      let k = ref 0 in
      while !k < nun.(0) do
        if Var.is_bound items.(unassigned.(!k)).var then
          commit unassigned.(!k)
          (* do not advance k: it now holds the swapped-in item *)
        else incr k
      done;
      true
    end
    else begin
      for c = 0 to changes.count - 1 do
        let i = changes.items.(c) in
        if pos.(i) < nun.(0) && Var.is_bound items.(i).var then commit i
      done;
      Prop.clear changes;
      false
    end
  in
  let prune_bin b =
    let slack = capacities.(b) - committed.(b) in
    if slack < max_size then
      for k = 0 to nun.(0) - 1 do
        let it = items.(unassigned.(k)) in
        if it.size > slack then Store.remove store it.var b
        (* a removal may instantiate the item; it is committed on the
           next wake-up, and the prefix only changes there too *)
      done
  in
  let clear_touched () =
    for j = 0 to !ntouched - 1 do
      is_touched.(touched.(j)) <- false
    done
  in
  let run () =
    ntouched := 0;
    saved_globals := false;
    let priming = commit_new_items () in
    if state.(1) > state.(0) then begin
      let demand = state.(1) and residual = state.(0) in
      Store.fail (fun () ->
          Fmt.str "%s: %d units of unassigned demand, %d residual" name
            demand residual)
    end;
    if priming then begin
      for b = 0 to nbins - 1 do
        prune_bin b
      done
    end
    else
      for j = 0 to !ntouched - 1 do
        prune_bin touched.(j)
      done
  in
  let p =
    Prop.make ~name ~priority:Prop.Expensive ~changes (fun () ->
        match run () with
        | () -> clear_touched ()
        | exception e ->
          clear_touched ();
          raise e)
  in
  Store.post_on store p
    ~items:(Prop.On_instantiate, Array.map (fun it -> it.var) items)
    ~on:[]
