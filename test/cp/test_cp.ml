(* Tests for the finite-domain constraint solver (lib/cp). *)

open Fdcp

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list = Alcotest.(check (list int))

(* ---------------------------------------------------------------- Dom -- *)

let test_dom_interval () =
  let d = Dom.interval 3 7 in
  check_int "size" 5 (Dom.size d);
  check_int "lo" 3 (Dom.lo d);
  check_int "hi" 7 (Dom.hi d);
  check_bool "mem 5" true (Dom.mem 5 d);
  check_bool "mem 8" false (Dom.mem 8 d);
  check_bool "mem 2" false (Dom.mem 2 d)

let test_dom_empty () =
  check_bool "empty" true (Dom.is_empty (Dom.interval 4 2));
  check_bool "empty mem" false (Dom.mem 0 Dom.empty);
  check_int "empty size" 0 (Dom.size Dom.empty)

let test_dom_singleton () =
  let d = Dom.singleton 42 in
  check_bool "bound" true (Dom.is_bound d);
  check_int "value" 42 (Dom.value_exn d)

let test_dom_remove_bounds () =
  let d = Dom.interval 0 4 in
  let d = Dom.remove 0 d in
  check_int "lo after" 1 (Dom.lo d);
  let d = Dom.remove 4 d in
  check_int "hi after" 3 (Dom.hi d);
  check_int "size" 3 (Dom.size d);
  check_list "values" [ 1; 2; 3 ] (Dom.to_list d)

let test_dom_remove_middle () =
  let d = Dom.interval 0 4 in
  let d = Dom.remove 2 d in
  check_int "size" 4 (Dom.size d);
  check_bool "mem 2" false (Dom.mem 2 d);
  check_list "values" [ 0; 1; 3; 4 ] (Dom.to_list d);
  (* removing the new bounds re-normalizes *)
  let d = Dom.remove 1 d in
  let d = Dom.remove 0 d in
  check_int "lo" 3 (Dom.lo d);
  check_list "values" [ 3; 4 ] (Dom.to_list d)

let test_dom_remove_absent () =
  let d = Dom.interval 0 4 in
  let d' = Dom.remove 9 d in
  check_int "unchanged" (Dom.size d) (Dom.size d')

let test_dom_remove_below_above () =
  let d = Dom.interval 0 9 in
  let d = Dom.remove_below 3 d in
  let d = Dom.remove_above 6 d in
  check_list "values" [ 3; 4; 5; 6 ] (Dom.to_list d);
  let d = Dom.remove 4 d in
  let d = Dom.remove_below 4 d in
  check_list "values2" [ 5; 6 ] (Dom.to_list d);
  check_bool "empty" true (Dom.is_empty (Dom.remove_below 7 d))

let test_dom_of_list () =
  let d = Dom.of_list [ 5; 1; 3; 3; 1 ] in
  check_int "size" 3 (Dom.size d);
  check_list "values" [ 1; 3; 5 ] (Dom.to_list d);
  check_bool "mem 2" false (Dom.mem 2 d);
  check_bool "mem 3" true (Dom.mem 3 d)

let test_dom_next_prev () =
  let d = Dom.of_list [ 1; 4; 9 ] in
  Alcotest.(check (option int)) "next 2" (Some 4) (Dom.next_value 2 d);
  Alcotest.(check (option int)) "next 4" (Some 4) (Dom.next_value 4 d);
  Alcotest.(check (option int)) "next 10" None (Dom.next_value 10 d);
  Alcotest.(check (option int)) "prev 8" (Some 4) (Dom.prev_value 8 d);
  Alcotest.(check (option int)) "prev 0" None (Dom.prev_value 0 d)

let test_dom_wide_interval () =
  (* wider than max_enumerated_width: interior removal is a no-op *)
  let d = Dom.interval 0 1_000_000 in
  check_bool "not enumerable" false (Dom.enumerable d);
  let d' = Dom.remove 500 d in
  check_bool "interior noop" true (Dom.mem 500 d');
  let d' = Dom.remove_below 100 d in
  check_int "lo exact" 100 (Dom.lo d');
  let d' = Dom.remove 0 d in
  check_int "bound removal exact" 1 (Dom.lo d')

let test_dom_multiword () =
  (* spans several 62-bit words, with holes punched across word seams *)
  let d = Dom.interval 0 200 in
  let d =
    List.fold_left
      (fun d v -> Dom.remove v d)
      d
      [ 61; 62; 63; 124; 125; 0; 200 ]
  in
  check_int "size" 194 (Dom.size d);
  check_int "lo" 1 (Dom.lo d);
  check_int "hi" 199 (Dom.hi d);
  check_bool "62 gone" false (Dom.mem 62 d);
  check_bool "64 kept" true (Dom.mem 64 d);
  Alcotest.(check (option int)) "next across seam" (Some 64) (Dom.next_value 61 d);
  Alcotest.(check (option int)) "prev across seam" (Some 123) (Dom.prev_value 125 d);
  let d = Dom.remove_below 62 d in
  check_int "lo snaps past hole" 64 (Dom.lo d);
  let d = Dom.remove_above 124 d in
  check_int "hi snaps past hole" 123 (Dom.hi d);
  check_int "final size" 60 (Dom.size d);
  check_list "round trip" (List.init 60 (fun i -> i + 64)) (Dom.to_list d)

let test_dom_keep_only () =
  let d = Dom.interval 0 9 in
  check_int "kept" 4 (Dom.value_exn (Dom.keep_only 4 d));
  check_bool "gone" true (Dom.is_empty (Dom.keep_only 12 d))

(* qcheck: model-based domain operations against a sorted-list model.
   Widths up to 300 exercise the multi-word bitset paths (62-bit words);
   next_value/prev_value are checked at every op value as query point. *)
let dom_ops_agree =
  QCheck.Test.make ~name:"dom operations agree with set model" ~count:500
    QCheck.(
      pair (int_range 0 300)
        (small_list (pair (int_range 0 3) (int_range (-5) 320))))
    (fun (width, ops) ->
      let dom = ref (Dom.interval 0 width) in
      let model = ref (List.init (width + 1) Fun.id) in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
            dom := Dom.remove v !dom;
            model := List.filter (fun x -> x <> v) !model
          | 1 ->
            dom := Dom.remove_below v !dom;
            model := List.filter (fun x -> x >= v) !model
          | 2 ->
            dom := Dom.remove_above v !dom;
            model := List.filter (fun x -> x <= v) !model
          | _ -> ())
        ops;
      let values = if Dom.is_empty !dom then [] else Dom.to_list !dom in
      let next_agree q =
        Dom.next_value q !dom = List.find_opt (fun x -> x >= q) !model
      in
      let prev_agree q =
        Dom.prev_value q !dom
        = List.fold_left
            (fun acc x -> if x <= q then Some x else acc)
            None !model
      in
      let queries = (-5) :: 0 :: width :: List.map snd ops in
      values = !model
      && List.for_all next_agree queries
      && List.for_all prev_agree queries)

(* -------------------------------------------------------------- Store -- *)

let test_store_trail () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let m = Store.mark s in
  Store.remove_above s x 5;
  Store.remove s x 2;
  check_int "hi" 5 (Var.hi x);
  check_bool "2 gone" false (Var.mem 2 x);
  Store.undo_to s m;
  check_int "hi restored" 9 (Var.hi x);
  check_bool "2 back" true (Var.mem 2 x)

let test_store_wipeout () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  Alcotest.check_raises "wipeout raises"
    (Store.Inconsistent "x: domain wiped out") (fun () ->
      let x = { x with Var.name = "x" } in
      ignore x;
      Store.remove_below s x 10)
  |> ignore

let test_store_instantiate () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  Store.instantiate s x 4;
  check_bool "bound" true (Var.is_bound x);
  check_int "value" 4 (Var.value_exn x)

let test_store_nested_marks () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  let m1 = Store.mark s in
  Store.remove_above s x 5;
  let m2 = Store.mark s in
  Store.instantiate s y 3;
  Store.undo_to s m2;
  check_bool "y unbound again" false (Var.is_bound y);
  check_int "x still pruned" 5 (Var.hi x);
  Store.undo_to s m1;
  check_int "x restored" 9 (Var.hi x)

(* -------------------------------------------------------------- Arith -- *)

let test_arith_le () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:4 in
  Arith.le s x y;
  Store.propagate s;
  check_int "x hi" 4 (Var.hi x);
  Store.remove_below s x 2;
  Store.propagate s;
  check_int "y lo" 2 (Var.lo y)

let test_arith_eq_offset () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  Arith.eq_offset s x y 2;
  (* x = y + 2 *)
  Store.propagate s;
  check_int "x lo" 2 (Var.lo x);
  check_int "y hi" 7 (Var.hi y);
  Store.instantiate s y 5;
  Store.propagate s;
  check_int "x" 7 (Var.value_exn x)

let test_arith_eq_holes () =
  let s = Store.create () in
  let x = Store.new_var_of_values s [ 1; 3; 5 ] in
  let y = Store.new_var_of_values s [ 3; 4; 5 ] in
  Arith.eq s x y;
  Store.propagate s;
  check_list "x" [ 3; 5 ] (Dom.to_list (Var.dom x));
  check_list "y" [ 3; 5 ] (Dom.to_list (Var.dom y))

let test_arith_neq () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:1 ~hi:1 in
  Arith.neq s x y;
  Store.propagate s;
  check_bool "1 removed" false (Var.mem 1 x)

(* ------------------------------------------------------------- Linear -- *)

let test_linear_le () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  Linear.sum_le s [ (2, x); (3, y) ] 12;
  Store.propagate s;
  check_int "x hi" 6 (Var.hi x);
  check_int "y hi" 4 (Var.hi y);
  Store.remove_below s y 3;
  Store.propagate s;
  check_int "x hi tightened" 1 (Var.hi x)

let test_linear_le_negative_coef () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  (* x - y <= -3  i.e.  y >= x + 3 *)
  Linear.sum_le s [ (1, x); (-1, y) ] (-3);
  Store.propagate s;
  check_int "y lo" 3 (Var.lo y);
  check_int "x hi" 6 (Var.hi x)

let test_linear_eq () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  Linear.sum_eq s [ (1, x); (1, y) ] 9;
  Store.instantiate s x 4;
  Store.propagate s;
  check_int "y" 5 (Var.value_exn y)

let test_linear_infeasible () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:5 ~hi:9 in
  Linear.sum_le s [ (1, x) ] 3;
  check_bool "raises" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_linear_sum_var () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:1 ~hi:3 in
  let y = Store.new_var s ~lo:2 ~hi:5 in
  let total = Store.new_var s ~lo:0 ~hi:100 in
  Linear.sum_var s [ (1, x); (1, y) ] total;
  Store.propagate s;
  check_int "total lo" 3 (Var.lo total);
  check_int "total hi" 8 (Var.hi total);
  Store.instantiate s x 3;
  Store.instantiate s y 5;
  Store.propagate s;
  check_int "total" 8 (Var.value_exn total)

(* ------------------------------------------------------------ Element -- *)

let test_element_forward () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:0 ~hi:100 in
  Element.post s x [| 10; 20; 30; 40 |] y;
  Store.propagate s;
  check_int "y lo" 10 (Var.lo y);
  check_int "y hi" 40 (Var.hi y);
  Store.instantiate s x 2;
  Store.propagate s;
  check_int "y" 30 (Var.value_exn y)

let test_element_backward () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:0 ~hi:100 in
  Element.post s x [| 10; 20; 30; 40 |] y;
  Store.remove_above s y 25;
  Store.propagate s;
  check_list "x pruned" [ 0; 1 ] (Dom.to_list (Var.dom x))

let test_element_dup_values () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var_of_values s [ 7; 9 ] in
  Element.post s x [| 7; 9; 7; 8 |] y;
  Store.propagate s;
  check_list "x keeps duplicate images" [ 0; 1; 2 ] (Dom.to_list (Var.dom x));
  Store.remove s y 9;
  Store.propagate s;
  check_list "x on 7s" [ 0; 2 ] (Dom.to_list (Var.dom x))

let test_element_index_out_of_range () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:(-3) ~hi:10 in
  let y = Store.new_var s ~lo:0 ~hi:100 in
  Element.post s x [| 1; 2 |] y;
  Store.propagate s;
  check_int "x lo" 0 (Var.lo x);
  check_int "x hi" 1 (Var.hi x)

(* ----------------------------------------------------------- Movecost -- *)

(* Items over placements 0..3; [specs] lists (home, stay, move). *)
let movecost_store specs ~obj_lo ~obj_hi =
  let s = Store.create () in
  let xs = Array.map (fun _ -> Store.new_var s ~lo:0 ~hi:3) specs in
  let obj = Store.new_var ~name:"obj" s ~lo:obj_lo ~hi:obj_hi in
  let items =
    Array.mapi
      (fun i (home, stay, move) -> Movecost.item xs.(i) ~home ~stay ~move)
      specs
  in
  Movecost.post s ~items ~obj;
  (s, xs, obj)

let test_movecost_bounds () =
  let s, _, obj =
    movecost_store [| (0, 0, 4); (1, 2, 5) |] ~obj_lo:0 ~obj_hi:100
  in
  Store.propagate s;
  check_int "obj lo: every item stays" 2 (Var.lo obj);
  check_int "obj hi: every item moves" 9 (Var.hi obj)

let test_movecost_forces_home () =
  (* obj <= 5 leaves a slack of 3 over the all-stay sum 2: item 0's move
     (+4) no longer fits, item 1's (+3) still does *)
  let s, xs, obj =
    movecost_store [| (0, 0, 4); (1, 2, 5) |] ~obj_lo:0 ~obj_hi:5
  in
  Store.propagate s;
  check_list "item 0 forced home" [ 0 ] (Dom.to_list (Var.dom xs.(0)));
  check_int "item 1 untouched" 4 (Var.size xs.(1));
  check_int "obj hi" 5 (Var.hi obj)

let test_movecost_forbids_home () =
  (* obj >= 6 with an all-move sum of 9: staying would give up 4 on item
     0 (too much) and 3 on item 1 (fits) *)
  let s, xs, obj =
    movecost_store [| (0, 0, 4); (1, 2, 5) |] ~obj_lo:6 ~obj_hi:100
  in
  Store.propagate s;
  check_list "item 0 loses home" [ 1; 2; 3 ] (Dom.to_list (Var.dom xs.(0)));
  check_int "item 1 untouched" 4 (Var.size xs.(1));
  check_int "obj lo" 6 (Var.lo obj);
  check_int "obj hi" 9 (Var.hi obj)

let test_movecost_min_exceeds_hi () =
  let s, xs, _ =
    movecost_store [| (0, 0, 4); (1, 2, 5) |] ~obj_lo:0 ~obj_hi:8
  in
  Store.propagate s;
  Store.remove s xs.(0) 0;
  Store.remove s xs.(1) 1;
  check_bool "both moved: 9 > 8 fails" true
    (match Store.propagate s with
    | () -> false
    | exception Store.Inconsistent _ -> true)

let test_movecost_undo_restores_sums () =
  let s, xs, obj =
    movecost_store [| (0, 0, 4); (1, 2, 5) |] ~obj_lo:0 ~obj_hi:100
  in
  Store.propagate s;
  let m = Store.mark s in
  Store.instantiate s xs.(0) 2;
  Store.propagate s;
  check_int "item 0 moved: obj lo" 6 (Var.lo obj);
  Store.instantiate s xs.(1) 1;
  Store.propagate s;
  check_int "obj fixed" 6 (Var.value_exn obj);
  Store.undo_to s m;
  check_int "obj lo restored" 2 (Var.lo obj);
  check_int "obj hi restored" 9 (Var.hi obj);
  (* a second descent sees the root sums, not the undone ones *)
  Store.instantiate s xs.(1) 3;
  Store.propagate s;
  check_int "item 1 moved: obj lo" 5 (Var.lo obj);
  check_int "item 1 moved: obj hi" 9 (Var.hi obj)

let test_movecost_of_table () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:2 in
  check_bool "constant table" true (Movecost.of_table x [| 5; 5; 5 |] = None);
  (match Movecost.of_table x [| 7; 3; 7 |] with
  | Some it ->
    check_int "home" 1 it.Movecost.home;
    check_int "stay" 3 it.Movecost.stay;
    check_int "move" 7 it.Movecost.move
  | None -> Alcotest.fail "two-valued table read as constant");
  let raises table =
    match Movecost.of_table x table with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "three values raise" true (raises [| 1; 2; 3 |]);
  check_bool "two cheap nodes raise" true (raises [| 1; 1; 2 |])

(* Equivalence gate: on seeded random instances (placement variables
   under a [Pack] capacity constraint), [Movecost] must reach exactly the
   fixpoint of the encoding it replaced in the optimiser — an [Element]
   channel per item into a cost variable, summed by [Linear.sum_var] —
   along the same random descents, and branch & bound must walk the same
   tree on both. *)

type mc_instance = {
  homes : int array;
  stays : int array;
  moves : int array;
  sizes : int array;
  caps : int array;
  banned : (int * int) list;  (* (item, node) removed before posting *)
}

let random_mc_instance rng =
  let vms = 2 + Random.State.int rng 7 and nodes = 2 + Random.State.int rng 4 in
  let stays = Array.init vms (fun _ -> Random.State.int rng 6) in
  let sizes = Array.init vms (fun _ -> 1 + Random.State.int rng 4) in
  let total = Array.fold_left ( + ) 0 sizes in
  {
    homes = Array.init vms (fun _ -> Random.State.int rng nodes);
    stays;
    moves = Array.map (fun st -> st + 1 + Random.State.int rng 6) stays;
    sizes;
    caps =
      Array.init nodes (fun _ ->
          1 + Random.State.int rng (max 2 ((2 * total / nodes) + 2)));
    banned =
      List.init (Random.State.int rng 3) (fun _ ->
          (Random.State.int rng vms, Random.State.int rng nodes));
  }

(* Post an instance on a fresh store; [reference] selects the
   element/linear encoding. Returns [None] when posting already fails. *)
let build_mc ~reference inst =
  let s = Store.create () in
  let nodes = Array.length inst.caps in
  let xs =
    Array.mapi
      (fun i _ ->
        Store.new_var ~name:(Printf.sprintf "x%d" i) s ~lo:0 ~hi:(nodes - 1))
      inst.homes
  in
  let ub = Array.fold_left ( + ) 0 inst.moves in
  match
    List.iter (fun (i, j) -> Store.remove s xs.(i) j) inst.banned;
    Pack.post s
      ~items:(Array.mapi (fun i x -> Pack.item x inst.sizes.(i)) xs)
      ~capacities:inst.caps ();
    if reference then begin
      let terms =
        Array.to_list
          (Array.mapi
             (fun i x ->
               let table =
                 Array.init nodes (fun j ->
                     if j = inst.homes.(i) then inst.stays.(i)
                     else inst.moves.(i))
               in
               let c =
                 Store.new_var_of_values s [ inst.stays.(i); inst.moves.(i) ]
               in
               Element.post s x table c;
               (1, c))
             xs)
      in
      let obj = Store.new_var ~name:"obj" s ~lo:0 ~hi:ub in
      Linear.sum_var s terms obj;
      obj
    end
    else begin
      let obj = Store.new_var ~name:"obj" s ~lo:0 ~hi:ub in
      let items =
        Array.mapi
          (fun i x ->
            Movecost.item x ~home:inst.homes.(i) ~stay:inst.stays.(i)
              ~move:inst.moves.(i))
          xs
      in
      Movecost.post s ~items ~obj;
      obj
    end
  with
  | obj -> Some (s, xs, obj)
  | exception Store.Inconsistent _ -> None

let mc_state (_, xs, obj) =
  (Array.map (fun x -> Dom.to_list (Var.dom x)) xs, Var.lo obj, Var.hi obj)

let test_movecost_equivalence () =
  let rng = Random.State.make [| 0x30c0; 15 |] in
  let instances = 250 in
  let descents = ref 0 and searched = ref 0 in
  for k = 1 to instances do
    let inst = random_mc_instance rng in
    let ctx = Printf.sprintf "instance %d" k in
    match (build_mc ~reference:true inst, build_mc ~reference:false inst) with
    | None, None -> ()
    | Some _, None | None, Some _ -> Alcotest.failf "%s: posting differs" ctx
    | Some ((ra, xa, oa) as a), Some ((rb, xb, ob) as b) ->
      let step what fa fb =
        let ok s f =
          match
            f ();
            Store.propagate s
          with
          | () -> true
          | exception Store.Inconsistent _ -> false
        in
        let oka = ok ra fa and okb = ok rb fb in
        check_bool (Printf.sprintf "%s: %s fails alike" ctx what) oka okb;
        if oka then
          check_bool
            (Printf.sprintf "%s: %s reaches the same fixpoint" ctx what)
            true
            (mc_state a = mc_state b);
        oka
      in
      if step "root" ignore ignore then begin
        (* random instantiate / remove / tighten / undo walk *)
        let marks = ref [] in
        for _ = 1 to 30 do
          let push () = marks := (Store.mark ra, Store.mark rb) :: !marks in
          let undo_top () =
            match !marks with
            | (ma, mb) :: rest ->
              Store.undo_to ra ma;
              Store.undo_to rb mb;
              marks := rest
            | [] -> ()
          in
          let open_vars =
            List.filter
              (fun i -> Var.size xa.(i) > 1)
              (List.init (Array.length xa) Fun.id)
          in
          let pick l = List.nth l (Random.State.int rng (List.length l)) in
          let pick_value x = pick (Dom.to_list (Var.dom x)) in
          let obj_value () =
            Var.lo oa + Random.State.int rng (Var.hi oa - Var.lo oa + 1)
          in
          let apply what fa fb =
            push ();
            incr descents;
            if not (step what fa fb) then undo_top ()
          in
          match (Random.State.int rng 10, open_vars) with
          | (0 | 1 | 2 | 3 | 4), (_ :: _ as open_vars) ->
            let i = pick open_vars in
            let v = pick_value xa.(i) in
            apply "instantiate"
              (fun () -> Store.instantiate ra xa.(i) v)
              (fun () -> Store.instantiate rb xb.(i) v)
          | (5 | 6), (_ :: _ as open_vars) ->
            let i = pick open_vars in
            let v = pick_value xa.(i) in
            apply "remove"
              (fun () -> Store.remove ra xa.(i) v)
              (fun () -> Store.remove rb xb.(i) v)
          | 7, _ ->
            let v = obj_value () in
            apply "obj <="
              (fun () -> Store.remove_above ra oa v)
              (fun () -> Store.remove_above rb ob v)
          | 8, _ ->
            let v = obj_value () in
            apply "obj >="
              (fun () -> Store.remove_below ra oa v)
              (fun () -> Store.remove_below rb ob v)
          | _ ->
            for _ = 0 to Random.State.int rng 3 do
              undo_top ()
            done;
            check_bool (ctx ^ ": undo restores alike") true
              (mc_state a = mc_state b)
        done
      end;
      (* branch & bound on fresh stores, same orderings and node limit *)
      let node_limit = 20 + Random.State.int rng 300 in
      let run reference =
        match build_mc ~reference inst with
        | None -> Alcotest.failf "%s: rebuild failed" ctx
        | Some (s, xs, obj) ->
          let best, st = Search.minimize s ~vars:xs ~obj ~node_limit () in
          ( best,
            (st.Search.nodes, st.Search.fails, st.Search.backtracks,
             st.Search.solutions, st.Search.timed_out) )
      in
      let best_a, stats_a = run true and best_b, stats_b = run false in
      incr searched;
      check_bool (ctx ^ ": same search stats") true (stats_a = stats_b);
      check_bool (ctx ^ ": same best (obj, snapshot)") true (best_a = best_b)
  done;
  (* the generator must exercise both halves of the gate *)
  check_bool "descents exercised" true (!descents > instances * 10);
  check_bool "searches exercised" true (!searched > instances / 2)

(* --------------------------------------------------------------- Pack -- *)

let test_pack_prunes_full_bin () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:1 in
  let b = Store.new_var s ~lo:0 ~hi:1 in
  Pack.post s
    ~items:[| Pack.item a 6; Pack.item b 6 |]
    ~capacities:[| 10; 10 |]
    ();
  Store.instantiate s a 0;
  Store.propagate s;
  (* bin 0 now holds 6; item b (size 6) no longer fits there *)
  check_int "b forced to bin 1" 1 (Var.value_exn b)

let test_pack_overload_fails () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:0 in
  let b = Store.new_var s ~lo:0 ~hi:0 in
  Pack.post s
    ~items:[| Pack.item a 6; Pack.item b 6 |]
    ~capacities:[| 10 |]
    ();
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_pack_aggregate_fails () =
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  let items = Array.map (fun v -> Pack.item v 5) vars in
  Pack.post s ~items ~capacities:[| 7; 7 |] ();
  (* 15 units of demand, 14 of capacity *)
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_pack_feasible_assignment () =
  let s = Store.create () in
  let vars = Array.init 4 (fun i -> Store.new_var ~name:(string_of_int i) s ~lo:0 ~hi:1) in
  let sizes = [| 6; 4; 5; 5 |] in
  let items = Array.mapi (fun i v -> Pack.item v sizes.(i)) vars in
  Pack.post s ~items ~capacities:[| 10; 10 |] ();
  let sol, _ = Search.find_first s ~vars () in
  match sol with
  | None -> Alcotest.fail "expected a packing"
  | Some a ->
    let load = [| 0; 0 |] in
    Array.iteri (fun i b -> load.(b) <- load.(b) + sizes.(i)) a;
    check_bool "bin0 ok" true (load.(0) <= 10);
    check_bool "bin1 ok" true (load.(1) <= 10)

(* ----------------------------------------------------------- Knapsack -- *)

let test_knapsack_prunes_load () =
  let s = Store.create () in
  let sel = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  let load = Store.new_var s ~lo:0 ~hi:12 in
  ignore (Knapsack.post s ~sizes:[| 4; 5; 6 |] ~selectors:sel ~load);
  Store.propagate s;
  (* reachable sums within 0..12: 0 4 5 6 9 10 11 *)
  check_bool "7 unreachable" false (Var.mem 7 load);
  check_bool "9 reachable" true (Var.mem 9 load);
  check_bool "12 unreachable" false (Var.mem 12 load)

let test_knapsack_forces_item () =
  let s = Store.create () in
  let sel = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  let load = Store.new_var s ~lo:9 ~hi:9 in
  ignore (Knapsack.post s ~sizes:[| 4; 5 |] ~selectors:sel ~load);
  Store.propagate s;
  check_int "item0 forced" 1 (Var.value_exn sel.(0));
  check_int "item1 forced" 1 (Var.value_exn sel.(1))

let test_knapsack_forbids_item () =
  let s = Store.create () in
  let sel = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  let load = Store.new_var s ~lo:4 ~hi:4 in
  ignore (Knapsack.post s ~sizes:[| 4; 5 |] ~selectors:sel ~load);
  Store.propagate s;
  check_int "item0 forced in" 1 (Var.value_exn sel.(0));
  check_int "item1 forced out" 0 (Var.value_exn sel.(1))

let test_knapsack_infeasible () =
  let s = Store.create () in
  let sel = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  let load = Store.new_var s ~lo:7 ~hi:8 in
  ignore (Knapsack.post s ~sizes:[| 4; 2 |] ~selectors:sel ~load);
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let knapsack_agrees_with_bruteforce =
  QCheck.Test.make ~name:"knapsack propagation sound vs brute force"
    ~count:200
    QCheck.(small_list (int_range 1 9))
    (fun sizes ->
      QCheck.assume (List.length sizes <= 8);
      let sizes = Array.of_list sizes in
      let n = Array.length sizes in
      let total = Array.fold_left ( + ) 0 sizes in
      let s = Store.create () in
      let sel = Array.init n (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
      let load = Store.new_var s ~lo:0 ~hi:total in
      ignore (Knapsack.post s ~sizes ~selectors:sel ~load);
      (try Store.propagate s with Store.Inconsistent _ -> ());
      (* every brute-force achievable sum must still be in the domain *)
      let ok = ref true in
      for mask = 0 to (1 lsl n) - 1 do
        let sum = ref 0 in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then sum := !sum + sizes.(i)
        done;
        if not (Var.mem !sum load) then ok := false
      done;
      !ok)

(* -------------------------------------------------------------- Count -- *)

let test_count_at_most_saturation () =
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:2) in
  Count.at_most s vars ~value:1 ~count:1;
  Store.instantiate s vars.(0) 1;
  Store.propagate s;
  check_bool "value removed elsewhere" false (Var.mem 1 vars.(1));
  check_bool "value removed elsewhere 2" false (Var.mem 1 vars.(2))

let test_count_at_most_overflow_fails () =
  let s = Store.create () in
  let vars = Array.init 2 (fun _ -> Store.new_var s ~lo:1 ~hi:1) in
  Count.at_most s vars ~value:1 ~count:1;
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_count_at_least_forces () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:1 in
  let b = Store.new_var s ~lo:2 ~hi:3 in
  (* only [a] can take value 1 and we need one: forced *)
  Count.at_least s [| a; b |] ~value:1 ~count:1;
  Store.propagate s;
  check_int "a forced" 1 (Var.value_exn a)

let test_count_exactly () =
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  Count.exactly s vars ~value:1 ~count:2;
  let count = ref 0 in
  ignore
    (Search.solve s ~vars
       ~on_solution:(fun () ->
         let ones =
           Array.fold_left
             (fun acc v -> if Var.value_exn v = 1 then acc + 1 else acc)
             0 vars
         in
         check_int "two ones" 2 ones;
         incr count)
       ());
  check_int "3 choose 2 solutions" 3 !count

(* ------------------------------------------------------------ Maxvar -- *)

let test_maxvar_bounds () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:5 in
  let b = Store.new_var s ~lo:2 ~hi:8 in
  let y = Store.new_var s ~lo:0 ~hi:100 in
  Maxvar.post s [ a; b ] y;
  Store.propagate s;
  check_int "y hi" 8 (Var.hi y);
  check_int "y lo" 2 (Var.lo y);
  Store.remove_above s y 4;
  Store.propagate s;
  check_int "b capped" 4 (Var.hi b)

let test_maxvar_forces_single_reacher () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:3 in
  let b = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:7 ~hi:9 in
  Maxvar.post s [ a; b ] y;
  Store.propagate s;
  (* only b can reach 7: it must *)
  check_int "b raised" 7 (Var.lo b)

let test_maxvar_infeasible () =
  let s = Store.create () in
  let a = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:5 ~hi:9 in
  Maxvar.post s [ a ] y;
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

(* -------------------------------------------------------------- Table -- *)

let test_table_gac () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:0 ~hi:3 in
  Table.post s [ x; y ] [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ];
  Store.propagate s;
  check_list "x supported" [ 0; 1; 2 ] (Dom.to_list (Var.dom x));
  check_list "y supported" [ 0; 1; 2 ] (Dom.to_list (Var.dom y));
  Store.instantiate s x 1;
  Store.propagate s;
  check_int "y follows" 2 (Var.value_exn y)

let test_table_no_tuple_fails () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:5 ~hi:9 in
  Table.post s [ x ] [ [| 0 |]; [| 1 |] ];
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_table_enumeration () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let y = Store.new_var s ~lo:0 ~hi:3 in
  let tuples = [ [| 0; 1 |]; [| 1; 2 |]; [| 3; 3 |] ] in
  Table.post s [ x; y ] tuples;
  let seen = ref [] in
  ignore
    (Search.solve s ~vars:[| x; y |]
       ~on_solution:(fun () ->
         seen := [| Var.value_exn x; Var.value_exn y |] :: !seen)
       ());
  check_int "exactly the tuples" 3 (List.length !seen);
  List.iter
    (fun t -> check_bool "tuple allowed" true (List.mem t tuples))
    !seen

(* ------------------------------------------------------------ Alldiff -- *)

let test_alldiff_forward_checking () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:2 in
  let y = Store.new_var s ~lo:0 ~hi:2 in
  let z = Store.new_var s ~lo:0 ~hi:2 in
  Alldiff.post s [ x; y; z ];
  Store.instantiate s x 1;
  Store.propagate s;
  check_bool "y lost 1" false (Var.mem 1 y);
  check_bool "z lost 1" false (Var.mem 1 z)

let test_alldiff_pigeonhole () =
  let s = Store.create () in
  let vars = List.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
  Alldiff.post s vars;
  check_bool "fails" true
    (try
       Store.propagate s;
       false
     with Store.Inconsistent _ -> true)

let test_alldiff_permutation_count () =
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:2) in
  Alldiff.post s (Array.to_list vars);
  let count = ref 0 in
  let stats =
    Search.solve s ~vars ~on_solution:(fun () -> incr count) ()
  in
  check_int "3! solutions" 6 !count;
  check_int "stats solutions" 6 stats.Search.solutions

(* --------------------------------------------------------------- Reif -- *)

let test_reif_channels_both_ways () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let b = Store.new_var s ~lo:0 ~hi:1 in
  Reif.eq_const s x 2 b;
  Store.instantiate s b 1;
  Store.propagate s;
  check_int "x forced" 2 (Var.value_exn x);
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let b = Store.new_var s ~lo:0 ~hi:1 in
  Reif.eq_const s x 2 b;
  Store.instantiate s b 0;
  Store.propagate s;
  check_bool "2 removed" false (Var.mem 2 x);
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:3 in
  let b = Store.new_var s ~lo:0 ~hi:1 in
  Reif.eq_const s x 2 b;
  Store.remove s x 2;
  Store.propagate s;
  check_int "b false" 0 (Var.value_exn b)

(* ------------------------------------------------------------- Search -- *)

let test_search_enumerates_all () =
  let s = Store.create () in
  let vars = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:2) in
  let count = ref 0 in
  ignore (Search.solve s ~vars ~on_solution:(fun () -> incr count) ());
  check_int "9 assignments" 9 !count

let test_search_respects_constraints () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:4 in
  let y = Store.new_var s ~lo:0 ~hi:4 in
  Linear.sum_eq s [ (1, x); (1, y) ] 4;
  let sols = ref [] in
  ignore
    (Search.solve s ~vars:[| x; y |]
       ~on_solution:(fun () ->
         sols := (Var.value_exn x, Var.value_exn y) :: !sols)
       ());
  check_int "5 solutions" 5 (List.length !sols);
  List.iter (fun (a, b) -> check_int "sums to 4" 4 (a + b)) !sols

let test_search_find_first_none () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:1 in
  let y = Store.new_var s ~lo:0 ~hi:1 in
  Linear.sum_eq s [ (1, x); (1, y) ] 7;
  let sol, stats = Search.find_first s ~vars:[| x; y |] () in
  check_bool "no solution" true (sol = None);
  check_bool "failed at root" true (stats.Search.fails >= 1)

let test_search_minimize_simple () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let y = Store.new_var s ~lo:0 ~hi:9 in
  let obj = Store.new_var s ~lo:0 ~hi:100 in
  (* x + y >= 5, minimize 3x + y *)
  Linear.sum_ge s [ (1, x); (1, y) ] 5;
  Linear.sum_var s [ (3, x); (1, y) ] obj;
  let best, _ = Search.minimize s ~vars:[| x; y |] ~obj () in
  match best with
  | None -> Alcotest.fail "expected a solution"
  | Some (v, snapshot) ->
    check_int "optimal cost" 5 v;
    check_int "x" 0 snapshot.(0);
    check_int "y" 5 snapshot.(1)

let test_search_minimize_restores_store () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:9 in
  let obj = Store.new_var s ~lo:0 ~hi:9 in
  Arith.eq s x obj;
  ignore (Search.minimize s ~vars:[| x |] ~obj ());
  check_int "x domain restored" 9 (Var.hi x)

let test_search_first_fail_order () =
  let s = Store.create () in
  let big = Store.new_var s ~lo:0 ~hi:9 in
  let small = Store.new_var s ~lo:0 ~hi:1 in
  match Search.first_fail [| big; small |] with
  | Some v -> check_int "picks small" (Var.id small) (Var.id v)
  | None -> Alcotest.fail "expected a variable"

let test_search_prefer_value () =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:4 in
  let order = Search.prefer (fun _ -> Some 3) x in
  check_list "preferred first" [ 3; 0; 1; 2; 4 ] order;
  let order = Search.prefer (fun _ -> Some 9) x in
  check_list "absent preference ignored" [ 0; 1; 2; 3; 4 ] order

let test_search_node_limit () =
  let s = Store.create () in
  let vars = Array.init 8 (fun _ -> Store.new_var s ~lo:0 ~hi:7) in
  let stats =
    Search.solve s ~vars ~node_limit:50 ~on_solution:(fun () -> ()) ()
  in
  check_bool "hit limit" true stats.Search.timed_out;
  check_bool "node count bounded" true (stats.Search.nodes <= 51)

let test_search_timeout_returns_incumbent () =
  let s = Store.create () in
  let n = 10 in
  let vars = Array.init n (fun _ -> Store.new_var s ~lo:0 ~hi:9) in
  let obj = Store.new_var s ~lo:0 ~hi:200 in
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  (* max-value ordering finds the worst solution first (obj = 90); the
     tiny node budget stops the search right after that incumbent *)
  let best, stats =
    Search.minimize s ~vars ~obj ~node_limit:15
      ~val_select:Search.max_value ()
  in
  check_bool "timed out" true stats.Search.timed_out;
  check_bool "still has incumbent" true (best <> None)

let test_search_minimize_proves_optimum () =
  (* minimize sum with alldiff: optimum is 0+1+2 = 3 *)
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:5) in
  let obj = Store.new_var s ~lo:0 ~hi:15 in
  Alldiff.post s (Array.to_list vars);
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let best, stats = Search.minimize s ~vars ~obj () in
  check_bool "not timed out" false stats.Search.timed_out;
  match best with
  | Some (v, _) -> check_int "optimum" 3 v
  | None -> Alcotest.fail "expected optimum"

let test_luby_sequence () =
  Alcotest.(check (list int))
    "first 15 terms"
    [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ]
    (List.init 15 (fun i -> Search.luby (i + 1)))

let test_minimize_restarts_optimum () =
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:5) in
  let obj = Store.new_var s ~lo:0 ~hi:15 in
  Alldiff.post s (Array.to_list vars);
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let best, stats =
    Search.minimize_restarts s ~vars ~obj ~base_node_limit:50 ~restarts:6 ()
  in
  check_bool "found" true (best <> None);
  (match best with
  | Some (v, _) -> check_int "optimum" 3 v
  | None -> ());
  check_bool "did some work" true (stats.Search.nodes > 0)

let test_minimize_restarts_respects_timeout () =
  let s = Store.create () in
  let vars = Array.init 12 (fun _ -> Store.new_var s ~lo:0 ~hi:9) in
  let obj = Store.new_var s ~lo:0 ~hi:200 in
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let t0 = Unix.gettimeofday () in
  let best, _ =
    Search.minimize_restarts s ~vars ~obj ~val_select:Search.max_value
      ~base_node_limit:10 ~restarts:1000 ~timeout:0.2 ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "stopped near the deadline" true (elapsed < 2.);
  check_bool "kept an incumbent" true (best <> None)

let test_restarts_completion_clears_timed_out () =
  (* a run that completes within budget proves optimality: the stats
     must not claim a timeout even though a deadline was supplied *)
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:5) in
  let obj = Store.new_var s ~lo:0 ~hi:15 in
  Alldiff.post s (Array.to_list vars);
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let best, stats =
    Search.minimize_restarts s ~vars ~obj ~base_node_limit:2000 ~restarts:6
      ~timeout:30. ()
  in
  check_bool "found" true (best <> None);
  check_bool "not timed out" false stats.Search.timed_out

let test_restarts_timed_out_on_node_budget () =
  (* every run exhausts its node budget without completing: the final
     stats must record a cut-short search *)
  let s = Store.create () in
  let vars = Array.init 12 (fun _ -> Store.new_var s ~lo:0 ~hi:9) in
  let obj = Store.new_var s ~lo:0 ~hi:200 in
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let _, stats =
    Search.minimize_restarts s ~vars ~obj ~val_select:Search.max_value
      ~base_node_limit:5 ~restarts:3 ()
  in
  check_bool "timed out" true stats.Search.timed_out

let test_restarts_timed_out_on_deadline () =
  (* the deadline expires before optimality is proven: a cut-short
     search, even when the loop exits through the out-of-time path
     rather than a run's own budget (an already-expired deadline makes
     the exit deterministic) *)
  let s = Store.create () in
  let vars = Array.init 14 (fun _ -> Store.new_var s ~lo:0 ~hi:9) in
  let obj = Store.new_var s ~lo:0 ~hi:200 in
  Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
  let best, stats =
    Search.minimize_restarts s ~vars ~obj ~val_select:Search.max_value
      ~base_node_limit:50 ~restarts:10_000 ~timeout:0. ()
  in
  check_bool "no proof happened" true (best = None);
  check_bool "timed out" true stats.Search.timed_out

(* Canary: exact node/fail counts on a fixed instance pin the search
   trajectory. If this test moves, propagation strength, wake-up events
   or the branching order changed — intentionally or not. *)
let test_search_stats_regression () =
  let s = Store.create () in
  let vars = Array.init 10 (fun _ -> Store.new_var s ~lo:0 ~hi:4) in
  let items = Array.mapi (fun i v -> Pack.item v (1 + (i mod 4))) vars in
  Pack.post s ~items ~capacities:(Array.make 5 5) ();
  let obj = Store.new_var s ~lo:0 ~hi:40 in
  Linear.sum_var s
    (Array.to_list (Array.mapi (fun i v -> ((i mod 3) + 1, v)) vars))
    obj;
  let best, stats = Search.minimize s ~vars ~obj () in
  (match best with
  | Some (v, _) -> check_int "optimum" 19 v
  | None -> Alcotest.fail "expected an optimum");
  check_bool "complete" false stats.Search.timed_out;
  check_int "nodes" 219 stats.Search.nodes;
  check_int "fails" 326 stats.Search.fails

let test_val_iter_matches_val_select () =
  (* the allocation-free iterator must explore the same tree as the
     equivalent list-based selector *)
  let run use_iter =
    let s = Store.create () in
    let vars = Array.init 6 (fun _ -> Store.new_var s ~lo:0 ~hi:4) in
    Alldiff.post s (Array.to_list vars |> List.filteri (fun i _ -> i < 5));
    let obj = Store.new_var s ~lo:0 ~hi:30 in
    Linear.sum_var s (Array.to_list (Array.map (fun v -> (1, v)) vars)) obj;
    let desc x f =
      List.iter f (List.rev (Dom.to_list (Var.dom x)))
    in
    let best, stats =
      if use_iter then Search.minimize s ~vars ~obj ~val_iter:desc ()
      else
        Search.minimize s ~vars ~obj
          ~val_select:(fun x -> List.rev (Dom.to_list (Var.dom x)))
          ()
    in
    (Option.map fst best, stats.Search.nodes, stats.Search.fails)
  in
  let b1, n1, f1 = run true and b2, n2, f2 = run false in
  Alcotest.(check (option int)) "same optimum" b2 b1;
  check_int "same nodes" n2 n1;
  check_int "same fails" f2 f1

let restarts_match_plain_minimize =
  QCheck.Test.make ~name:"restart search finds the same optimum" ~count:50
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (int_range 1 4))
        (list_of_size (Gen.int_range 1 4) (int_range (-3) 4)))
    (fun (his, coefs) ->
      let n = min (List.length his) (List.length coefs) in
      QCheck.assume (n >= 1);
      let his = Array.of_list his and coefs = Array.of_list coefs in
      let build () =
        let s = Store.create () in
        let vars = Array.init n (fun i -> Store.new_var s ~lo:0 ~hi:his.(i)) in
        let lo_obj = ref 0 and hi_obj = ref 0 in
        for i = 0 to n - 1 do
          if coefs.(i) >= 0 then hi_obj := !hi_obj + (coefs.(i) * his.(i))
          else lo_obj := !lo_obj + (coefs.(i) * his.(i))
        done;
        let obj = Store.new_var s ~lo:!lo_obj ~hi:!hi_obj in
        Linear.sum_var s (List.init n (fun i -> (coefs.(i), vars.(i)))) obj;
        (s, vars, obj)
      in
      let s1, vars1, obj1 = build () in
      let plain, _ = Search.minimize s1 ~vars:vars1 ~obj:obj1 () in
      let s2, vars2, obj2 = build () in
      let restarted, _ =
        Search.minimize_restarts s2 ~vars:vars2 ~obj:obj2 ~restarts:4 ()
      in
      match (plain, restarted) with
      | Some (a, _), Some (b, _) -> a = b
      | None, None -> true
      | _ -> false)

let minimize_matches_bruteforce =
  QCheck.Test.make ~name:"minimize equals brute force on random linear goal"
    ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 4) (int_range 1 5))
        (list_of_size (Gen.int_range 1 4) (int_range (-3) 5)))
    (fun (his, coefs) ->
      let n = min (List.length his) (List.length coefs) in
      QCheck.assume (n >= 1);
      let his = Array.of_list his and coefs = Array.of_list coefs in
      let s = Store.create () in
      let vars = Array.init n (fun i -> Store.new_var s ~lo:0 ~hi:his.(i)) in
      let lo_obj = ref 0 and hi_obj = ref 0 in
      for i = 0 to n - 1 do
        if coefs.(i) >= 0 then hi_obj := !hi_obj + (coefs.(i) * his.(i))
        else lo_obj := !lo_obj + (coefs.(i) * his.(i))
      done;
      let obj = Store.new_var s ~lo:!lo_obj ~hi:!hi_obj in
      let terms = List.init n (fun i -> (coefs.(i), vars.(i))) in
      Linear.sum_var s terms obj;
      (* brute force *)
      let best = ref max_int in
      let rec go i acc =
        if i = n then best := min !best acc
        else
          for v = 0 to his.(i) do
            go (i + 1) (acc + (coefs.(i) * v))
          done
      in
      go 0 0;
      match Search.minimize s ~vars ~obj () with
      | Some (v, _), _ -> v = !best
      | None, _ -> false)

(* ---------------------------------------------------------------- run -- *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "fdcp"
    [
      ( "dom",
        [
          Alcotest.test_case "interval" `Quick test_dom_interval;
          Alcotest.test_case "empty" `Quick test_dom_empty;
          Alcotest.test_case "singleton" `Quick test_dom_singleton;
          Alcotest.test_case "remove bounds" `Quick test_dom_remove_bounds;
          Alcotest.test_case "remove middle" `Quick test_dom_remove_middle;
          Alcotest.test_case "remove absent" `Quick test_dom_remove_absent;
          Alcotest.test_case "remove below/above" `Quick
            test_dom_remove_below_above;
          Alcotest.test_case "of_list" `Quick test_dom_of_list;
          Alcotest.test_case "next/prev" `Quick test_dom_next_prev;
          Alcotest.test_case "wide interval" `Quick test_dom_wide_interval;
          Alcotest.test_case "multi-word" `Quick test_dom_multiword;
          Alcotest.test_case "keep_only" `Quick test_dom_keep_only;
        ]
        @ qsuite [ dom_ops_agree ] );
      ( "store",
        [
          Alcotest.test_case "trail" `Quick test_store_trail;
          Alcotest.test_case "wipeout" `Quick test_store_wipeout;
          Alcotest.test_case "instantiate" `Quick test_store_instantiate;
          Alcotest.test_case "nested marks" `Quick test_store_nested_marks;
        ] );
      ( "arith",
        [
          Alcotest.test_case "le" `Quick test_arith_le;
          Alcotest.test_case "eq offset" `Quick test_arith_eq_offset;
          Alcotest.test_case "eq with holes" `Quick test_arith_eq_holes;
          Alcotest.test_case "neq" `Quick test_arith_neq;
        ] );
      ( "linear",
        [
          Alcotest.test_case "sum_le" `Quick test_linear_le;
          Alcotest.test_case "negative coef" `Quick
            test_linear_le_negative_coef;
          Alcotest.test_case "sum_eq" `Quick test_linear_eq;
          Alcotest.test_case "infeasible" `Quick test_linear_infeasible;
          Alcotest.test_case "sum_var" `Quick test_linear_sum_var;
        ] );
      ( "element",
        [
          Alcotest.test_case "forward" `Quick test_element_forward;
          Alcotest.test_case "backward" `Quick test_element_backward;
          Alcotest.test_case "duplicate values" `Quick
            test_element_dup_values;
          Alcotest.test_case "index clamped" `Quick
            test_element_index_out_of_range;
        ] );
      ( "movecost",
        [
          Alcotest.test_case "bounds" `Quick test_movecost_bounds;
          Alcotest.test_case "forces home" `Quick test_movecost_forces_home;
          Alcotest.test_case "forbids home" `Quick test_movecost_forbids_home;
          Alcotest.test_case "minimum above obj fails" `Quick
            test_movecost_min_exceeds_hi;
          Alcotest.test_case "undo restores sums" `Quick
            test_movecost_undo_restores_sums;
          Alcotest.test_case "of_table" `Quick test_movecost_of_table;
          Alcotest.test_case "equivalent to element + linear" `Quick
            test_movecost_equivalence;
        ] );
      ( "pack",
        [
          Alcotest.test_case "prunes full bin" `Quick
            test_pack_prunes_full_bin;
          Alcotest.test_case "overload fails" `Quick test_pack_overload_fails;
          Alcotest.test_case "aggregate fails" `Quick
            test_pack_aggregate_fails;
          Alcotest.test_case "feasible assignment" `Quick
            test_pack_feasible_assignment;
        ] );
      ( "knapsack",
        [
          Alcotest.test_case "prunes load" `Quick test_knapsack_prunes_load;
          Alcotest.test_case "forces item" `Quick test_knapsack_forces_item;
          Alcotest.test_case "forbids item" `Quick test_knapsack_forbids_item;
          Alcotest.test_case "infeasible" `Quick test_knapsack_infeasible;
        ]
        @ qsuite [ knapsack_agrees_with_bruteforce ] );
      ( "maxvar",
        [
          Alcotest.test_case "bounds" `Quick test_maxvar_bounds;
          Alcotest.test_case "single reacher" `Quick
            test_maxvar_forces_single_reacher;
          Alcotest.test_case "infeasible" `Quick test_maxvar_infeasible;
        ] );
      ( "table",
        [
          Alcotest.test_case "gac" `Quick test_table_gac;
          Alcotest.test_case "no tuple" `Quick test_table_no_tuple_fails;
          Alcotest.test_case "enumeration" `Quick test_table_enumeration;
        ] );
      ( "count",
        [
          Alcotest.test_case "at_most saturation" `Quick
            test_count_at_most_saturation;
          Alcotest.test_case "at_most overflow" `Quick
            test_count_at_most_overflow_fails;
          Alcotest.test_case "at_least forces" `Quick test_count_at_least_forces;
          Alcotest.test_case "exactly" `Quick test_count_exactly;
        ] );
      ( "alldiff",
        [
          Alcotest.test_case "forward checking" `Quick
            test_alldiff_forward_checking;
          Alcotest.test_case "pigeonhole" `Quick test_alldiff_pigeonhole;
          Alcotest.test_case "permutation count" `Quick
            test_alldiff_permutation_count;
        ] );
      ("reif", [ Alcotest.test_case "channels" `Quick test_reif_channels_both_ways ]);
      ( "search",
        [
          Alcotest.test_case "enumerates all" `Quick
            test_search_enumerates_all;
          Alcotest.test_case "respects constraints" `Quick
            test_search_respects_constraints;
          Alcotest.test_case "find_first none" `Quick
            test_search_find_first_none;
          Alcotest.test_case "minimize simple" `Quick
            test_search_minimize_simple;
          Alcotest.test_case "minimize restores store" `Quick
            test_search_minimize_restores_store;
          Alcotest.test_case "first fail order" `Quick
            test_search_first_fail_order;
          Alcotest.test_case "prefer value" `Quick test_search_prefer_value;
          Alcotest.test_case "node limit" `Quick test_search_node_limit;
          Alcotest.test_case "timeout keeps incumbent" `Quick
            test_search_timeout_returns_incumbent;
          Alcotest.test_case "proves optimum" `Quick
            test_search_minimize_proves_optimum;
          Alcotest.test_case "luby sequence" `Quick test_luby_sequence;
          Alcotest.test_case "restarts find optimum" `Quick
            test_minimize_restarts_optimum;
          Alcotest.test_case "restarts honor timeout" `Quick
            test_minimize_restarts_respects_timeout;
          Alcotest.test_case "restarts completion clears timed_out" `Quick
            test_restarts_completion_clears_timed_out;
          Alcotest.test_case "restarts timed_out on node budget" `Quick
            test_restarts_timed_out_on_node_budget;
          Alcotest.test_case "restarts timed_out on deadline" `Quick
            test_restarts_timed_out_on_deadline;
          Alcotest.test_case "stats regression" `Quick
            test_search_stats_regression;
          Alcotest.test_case "val_iter matches val_select" `Quick
            test_val_iter_matches_val_select;
        ]
        @ qsuite [ minimize_matches_bruteforce; restarts_match_plain_minimize ]
      );
    ]
