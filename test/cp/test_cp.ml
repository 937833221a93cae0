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
  let x = Store.new_var ~name:"x" s ~lo:0 ~hi:3 in
  match Store.remove_below s x 10 with
  | () -> Alcotest.fail "wipeout must raise"
  | exception Store.Inconsistent failure ->
    Alcotest.(check string)
      "wipeout message" "x: domain wiped out" (Store.message failure)

(* Every failure site of the kernel with the text its eagerly formatted
   message had. The test reads each message after [Store.undo_to] a mark
   taken before the failing call, so a message that read live state
   instead of the values at the failure would show the undone state. *)
let failure_sites () =
  let named s ~lo ~hi name = Store.new_var ~name s ~lo ~hi in
  [
    ( "new_var",
      "new_var v0: empty initial domain [3,1]",
      fun s -> ignore (Store.new_var s ~lo:3 ~hi:1) );
    ( "new_var_of_values",
      "new_var_of_values: empty domain",
      fun s -> ignore (Store.new_var_of_values s []) );
    ( "wipeout",
      "x: domain wiped out",
      fun s -> Store.remove_below s (named s ~lo:0 ~hi:3 "x") 10 );
    ( "instantiate",
      "y: cannot instantiate to 2 (not in {0, 1,\n3})",
      (* the domain at the failure is {0, 1, 3}; undo restores [0..3] *)
      fun s ->
        let y = named s ~lo:0 ~hi:3 "y" in
        Store.remove s y 2;
        Store.instantiate s y 2 );
    ( "pack overload",
      "cpu: bin 0 overloaded (6 > 5)",
      (* a is committed to bin 0 in the failing run; undo uncommits it *)
      fun s ->
        let a = named s ~lo:0 ~hi:1 "a" and b = named s ~lo:0 ~hi:1 "b" in
        Pack.post s ~name:"cpu" ~items:[| Pack.item a 3; Pack.item b 3 |]
          ~capacities:[| 5; 10 |] ();
        Store.instantiate s a 0;
        Store.instantiate s b 0;
        Store.propagate s );
    ( "pack demand",
      "pack: 6 units of unassigned demand, 4 residual",
      fun s ->
        let vars = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:1) in
        Pack.post s ~items:(Array.map (fun v -> Pack.item v 3) vars)
          ~capacities:[| 2; 2 |] ();
        Store.propagate s );
    ( "movecost min",
      "movecost: minimal cost 5 exceeds obj <= 3",
      (* x leaves home: the run raises the minimal cost from 1 to 5 and
         trails the old sums, which undo restores *)
      fun s ->
        let x = named s ~lo:0 ~hi:1 "x" and obj = named s ~lo:0 ~hi:3 "obj" in
        Movecost.post s
          ~items:[| Movecost.item x ~home:0 ~stay:1 ~move:5 |]
          ~obj;
        Store.remove s x 0;
        Store.propagate s );
    ( "movecost max",
      "movecost: maximal cost 5 below obj >= 20",
      fun s ->
        let x = named s ~lo:0 ~hi:1 "x" in
        let obj = named s ~lo:20 ~hi:30 "obj" in
        Movecost.post s
          ~items:[| Movecost.item x ~home:0 ~stay:1 ~move:5 |]
          ~obj;
        Store.propagate s );
    ( "count at_most",
      "count_at_most: 2 variables already equal 1 (max 1)",
      fun s ->
        let vars = Array.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:2) in
        Count.at_most s vars ~value:1 ~count:1;
        Store.instantiate s vars.(0) 1;
        Store.instantiate s vars.(2) 1;
        Store.propagate s );
    ( "count at_least",
      "count_at_least: at most 0 variables can equal 7 (need 1)",
      fun s ->
        let vars = Array.init 2 (fun _ -> Store.new_var s ~lo:0 ~hi:2) in
        Count.at_least s vars ~value:7 ~count:1;
        Store.propagate s );
    ( "alldiff",
      "alldiff: 3 variables, 2 values",
      fun s ->
        Alldiff.post s (List.init 3 (fun _ -> Store.new_var s ~lo:0 ~hi:1));
        Store.propagate s );
    ( "linear",
      "linear_le: minimal sum 6 exceeds bound 4",
      fun s ->
        let x = Store.new_var s ~lo:3 ~hi:5 in
        let y = Store.new_var s ~lo:3 ~hi:5 in
        Linear.sum_le s [ (1, x); (1, y) ] 4;
        Store.propagate s );
    ( "element",
      "i: domain wiped out",
      (* no index maps into y: the pruning wipes the index out. That is
         how an element failure surfaces; its own "no feasible index"
         check cannot fire, as the store never leaves a domain empty *)
      fun s ->
        let x = named s ~lo:0 ~hi:2 "i" and y = named s ~lo:7 ~hi:9 "e" in
        Element.post s x [| 1; 2; 3 |] y;
        Store.propagate s );
  ]

let test_failure_messages () =
  List.iter
    (fun (site, expected, f) ->
      let s = Store.create () in
      let m = Store.mark s in
      match f s with
      | () -> Alcotest.failf "%s: expected a failure" site
      | exception Store.Inconsistent failure ->
        Store.undo_to s m;
        Alcotest.(check string) site expected (Store.message failure))
    (failure_sites ())

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

(* An undo past Pack's first run undoes its every-bin pruning: the next
   run must prune every bin again. Item a (size 8) fits bin 1 alone. *)
let test_pack_reprimes_after_undo () =
  let fresh () =
    let s = Store.create () in
    let a = Store.new_var ~name:"a" s ~lo:0 ~hi:1 in
    let b = Store.new_var ~name:"b" s ~lo:0 ~hi:1 in
    Pack.post s ~items:[| Pack.item a 8; Pack.item b 1 |]
      ~capacities:[| 5; 20 |] ();
    (s, a, b)
  in
  let s, a, _ = fresh () in
  Store.propagate s;
  check_list "fresh propagate" [ 1 ] (Dom.to_list (Var.dom a));
  let s, a, b = fresh () in
  let m = Store.mark s in
  Store.instantiate s b 1;
  Store.propagate s;
  Store.undo_to s m;
  Store.propagate s;
  Store.instantiate s b 1;
  Store.propagate s;
  check_list "after an undo past the first run" [ 1 ] (Dom.to_list (Var.dom a))

(* A mark taken between a binding and the propagation that commits it:
   the undo keeps b bound in bin 0 and undoes its commit, so Pack's
   next run, woken by d, must read every item again and find that c no
   longer fits bin 0. *)
let test_pack_keeps_change_before_mark () =
  let s = Store.create () in
  let var name = Store.new_var ~name s ~lo:0 ~hi:1 in
  let b = var "b" and c = var "c" and d = var "d" in
  Pack.post s
    ~items:[| Pack.item b 3; Pack.item c 3; Pack.item d 1 |]
    ~capacities:[| 5; 20 |] ();
  Store.propagate s;
  Store.instantiate s b 0;
  let m = Store.mark s in
  Store.propagate s;
  check_list "c pruned from bin 0" [ 1 ] (Dom.to_list (Var.dom c));
  Store.undo_to s m;
  Store.instantiate s d 1;
  Store.propagate s;
  check_list "c pruned again" [ 1 ] (Dom.to_list (Var.dom c))

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
  (* descending value order finds the worst solution first (obj = 90);
     the tiny node budget stops the search right after that incumbent *)
  let descending x f = List.iter f (List.rev (Dom.to_list (Var.dom x))) in
  let best, stats =
    Search.minimize s ~vars ~obj ~node_limit:15 ~val_iter:descending ()
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

(* ---------------------------------------------- minimize keeps its answer -- *)

(* The search, Movecost and Pack as they were before branch & bound
   stopped at a proven bound and before propagators were told which
   item changed: the reference the kernel must answer like. Each
   reference propagator rescans all its open items on every run and
   wakes on its own updates. Pack's priming is trailed here; the former
   Pack kept it in a plain ref, which an undo past its first run left
   set with the every-bin pruning undone. *)
module Ref = struct
  let pack store ~name ~(items : Pack.item array) ~capacities =
    let nbins = Array.length capacities in
    let n = Array.length items in
    let committed = Array.make nbins 0 in
    let state = Array.make 2 0 in
    Array.iter (fun c -> if c > 0 then state.(0) <- state.(0) + c) capacities;
    Array.iter (fun (it : Pack.item) -> state.(1) <- state.(1) + it.size) items;
    let unassigned = Array.init n Fun.id in
    let nun = [| n |] in
    let primed = [| 0 |] in
    let max_size =
      Array.fold_left (fun acc (it : Pack.item) -> max acc it.size) 0 items
    in
    let touched = ref [] in
    let run () =
      touched := [];
      let saved = ref false in
      let k = ref 0 in
      while !k < nun.(0) do
        let i = unassigned.(!k) in
        let it = items.(i) in
        if Var.is_bound it.var then begin
          if not !saved then begin
            saved := true;
            Store.save_cell store state 0;
            Store.save_cell store state 1;
            Store.save_cell store nun 0
          end;
          let b = Var.value_exn it.var in
          state.(1) <- state.(1) - it.size;
          if b >= 0 && b < nbins then begin
            let old_slack = capacities.(b) - committed.(b) in
            let new_slack = old_slack - it.size in
            if new_slack < 0 then
              Store.fail (fun () -> Fmt.str "%s: bin %d overloaded" name b);
            if not (List.mem b !touched) then touched := b :: !touched;
            Store.save_cell store committed b;
            committed.(b) <- committed.(b) + it.size;
            state.(0) <- state.(0) - (max old_slack 0 - max new_slack 0)
          end;
          let last = nun.(0) - 1 in
          unassigned.(!k) <- unassigned.(last);
          unassigned.(last) <- i;
          nun.(0) <- last
        end
        else incr k
      done;
      if state.(1) > state.(0) then
        Store.fail (fun () -> Fmt.str "%s: demand exceeds residual" name);
      let prune_bin b =
        let slack = capacities.(b) - committed.(b) in
        if slack < max_size then
          for k = 0 to nun.(0) - 1 do
            let it = items.(unassigned.(k)) in
            if it.size > slack then Store.remove store it.var b
          done
      in
      if primed.(0) = 0 then begin
        Store.save_cell store primed 0;
        primed.(0) <- 1;
        for b = 0 to nbins - 1 do
          prune_bin b
        done
      end
      else List.iter prune_bin (List.rev !touched)
    in
    let p = Prop.make ~name ~priority:Prop.Expensive run in
    Store.post_on store p
      ~on:
        [ ( Prop.On_instantiate,
            Array.to_list (Array.map (fun (it : Pack.item) -> it.var) items) )
        ]

  let movecost store ~(items : Movecost.item array) ~obj =
    let n = Array.length items in
    let sums = [| 0; 0 |] in
    Array.iter
      (fun (it : Movecost.item) ->
        sums.(0) <- sums.(0) + it.stay;
        sums.(1) <- sums.(1) + it.move)
      items;
    let perm = Array.init n Fun.id and pos = Array.init n Fun.id in
    let nopen = [| n |] in
    let gap i = items.(i).move - items.(i).stay in
    let by_gap = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Int.compare (gap b) (gap a)) by_gap;
    let run () =
      let saved = ref false in
      let close i ~home_kept =
        if not !saved then begin
          saved := true;
          Store.save_cell store sums 0;
          Store.save_cell store sums 1;
          Store.save_cell store nopen 0
        end;
        if home_kept then sums.(1) <- sums.(1) - gap i
        else sums.(0) <- sums.(0) + gap i;
        let last = nopen.(0) - 1 in
        let k = pos.(i) and j = perm.(last) in
        perm.(k) <- j;
        pos.(j) <- k;
        perm.(last) <- i;
        pos.(i) <- last;
        nopen.(0) <- last
      in
      let k = ref 0 in
      while !k < nopen.(0) do
        let i = perm.(!k) in
        let it = items.(i) in
        if not (Var.mem it.home it.var) then close i ~home_kept:false
        else if Var.size it.var = 1 then close i ~home_kept:true
        else incr k
      done;
      let lo = Var.lo obj and hi = Var.hi obj in
      let check () =
        if sums.(0) > hi || sums.(1) < lo then
          Store.fail (fun () -> "movecost: out of bounds")
      in
      check ();
      let r = ref 0 and fits = ref false in
      while (not !fits) && !r < n do
        let i = by_gap.(!r) in
        incr r;
        if pos.(i) < nopen.(0) then
          if gap i > hi - sums.(0) then begin
            Store.instantiate store items.(i).var items.(i).home;
            close i ~home_kept:true
          end
          else if gap i > sums.(1) - lo then begin
            Store.remove store items.(i).var items.(i).home;
            close i ~home_kept:false
          end
          else fits := true
      done;
      check ();
      Store.remove_below store obj sums.(0);
      Store.remove_above store obj sums.(1)
    in
    let p = Prop.make ~name:"movecost" run in
    Store.post_on store p
      ~on:
        [
          ( Prop.On_domain,
            Array.to_list (Array.map (fun (it : Movecost.item) -> it.var) items)
          );
          (Prop.On_bounds, [ obj ]);
        ]

  exception Limit

  (* branch & bound to the end of the tree or the node limit *)
  let minimize store ~vars ~obj ~var_select ~val_iter ~node_limit =
    let stats = Search.fresh_stats () in
    let best = ref None in
    let rec descend () =
      stats.nodes <- stats.nodes + 1;
      (match node_limit with
      | Some l when stats.nodes >= l -> raise Limit
      | _ -> ());
      (match !best with
      | Some (b, _) ->
        Store.remove_above store obj (b - 1);
        Store.propagate store
      | None -> ());
      match var_select vars with
      | None ->
        stats.solutions <- stats.solutions + 1;
        best := Some (Var.lo obj, Array.map Var.value_exn vars)
      | Some x ->
        val_iter x (fun v ->
            let m = Store.mark store in
            (try
               Store.instantiate store x v;
               Store.propagate store;
               descend ()
             with Store.Inconsistent _ -> stats.fails <- stats.fails + 1);
            Store.undo_to store m)
    in
    let root = Store.mark store in
    (try
       Store.propagate store;
       descend ()
     with
    | Store.Inconsistent _ -> stats.fails <- stats.fails + 1
    | Limit -> stats.timed_out <- true);
    Store.undo_to store root;
    Store.release store;
    (!best, stats)
end

(* The search as it was before a node refuted its first value: each
   value tried on its own (d-way branching), branch & bound stopping at
   a proven bound. It stops on a node limit only. On the same kernel the
   search must make exactly its nodes, fails and solutions. *)
module Dway = struct
  exception Limit

  let run store ~vars ~var_select ~val_iter ~node_limit ~on_node ~on_solution
      (stats : Search.stats) =
    let rec descend () =
      stats.nodes <- stats.nodes + 1;
      (match node_limit with
      | Some l when stats.nodes >= l -> raise Limit
      | _ -> ());
      on_node ();
      match var_select vars with
      | None ->
        stats.solutions <- stats.solutions + 1;
        on_solution ()
      | Some x ->
        val_iter x (fun v ->
            let m = Store.mark store in
            try
              Store.instantiate store x v;
              Store.propagate store;
              descend ();
              stats.backtracks <- stats.backtracks + 1;
              Store.undo_to store m
            with Store.Inconsistent _ ->
              stats.fails <- stats.fails + 1;
              stats.backtracks <- stats.backtracks + 1;
              Store.undo_to store m)
    in
    let root = Store.mark store in
    (try
       Store.propagate store;
       descend ()
     with
    | Store.Inconsistent _ -> stats.fails <- stats.fails + 1
    | Limit -> stats.timed_out <- true
    | Search.Stop -> ());
    Store.undo_to store root;
    Store.release store

  let solve store ~vars ~var_select ~val_iter ~node_limit ~on_solution =
    let stats = Search.fresh_stats () in
    run store ~vars ~var_select ~val_iter ~node_limit ~on_node:ignore
      ~on_solution stats;
    stats

  let minimize store ~vars ~obj ~var_select ~val_iter ?(lower_bound = min_int)
      ~node_limit () =
    let stats = Search.fresh_stats () in
    let best = ref max_int and best_snapshot = ref None in
    let proven = ref lower_bound in
    let on_node () =
      if stats.nodes = 1 then proven := max lower_bound (Var.lo obj);
      if !best < max_int then begin
        Store.remove_above store obj (!best - 1);
        Store.propagate store
      end
    in
    let on_solution () =
      let value = Var.lo obj in
      if value < !best then begin
        best := value;
        best_snapshot := Some (value, Array.map Var.value_exn vars);
        if value <= !proven then raise Search.Stop
      end
    in
    run store ~vars ~var_select ~val_iter ~node_limit ~on_node ~on_solution
      stats;
    (!best_snapshot, stats)
end

(* The propagators one side of the comparison posts. *)
type kernel = {
  post_pack :
    Store.t -> name:string -> items:Pack.item array -> capacities:int array ->
    unit;
  post_movecost : Store.t -> items:Movecost.item array -> obj:Var.t -> unit;
}

let current_kernel =
  {
    post_pack =
      (fun s ~name ~items ~capacities -> Pack.post s ~name ~items ~capacities ());
    post_movecost = Movecost.post;
  }

let reference_kernel = { post_pack = Ref.pack; post_movecost = Ref.movecost }

(* A random Pack + Movecost model: two packing dimensions (the first
   with items of size 0), banned nodes, pins bound before the first
   propagation as the optimiser binds RAM-suspended VMs, and the values
   of a scoped probe undone before the search. *)
type bb_instance = {
  mc : mc_instance;
  cpu : int array;
  cpu_caps : int array;
  pins : (int * int) list;  (* (item, node) bound after posting *)
  probe : int array option;  (* a value per item, tried then undone *)
  limit : int option;
}

let random_bb_instance rng =
  let vms = 4 + Random.State.int rng 7 and nodes = 2 + Random.State.int rng 3 in
  let caps sizes =
    let per_node = Array.fold_left ( + ) 0 sizes / nodes in
    Array.init nodes (fun _ -> per_node + Random.State.int rng (per_node + 4))
  in
  let stays = Array.init vms (fun _ -> Random.State.int rng 6) in
  let sizes = Array.init vms (fun _ -> 1 + Random.State.int rng 4) in
  let cpu = Array.init vms (fun _ -> Random.State.int rng 4) in
  {
    mc =
      {
        homes = Array.init vms (fun _ -> Random.State.int rng nodes);
        stays;
        moves = Array.map (fun st -> st + 1 + Random.State.int rng 6) stays;
        sizes;
        caps = caps sizes;
        banned =
          List.init (Random.State.int rng 3) (fun _ ->
              (Random.State.int rng vms, Random.State.int rng nodes));
      };
    cpu;
    cpu_caps = caps cpu;
    pins =
      List.init (Random.State.int rng 3) (fun _ ->
          (Random.State.int rng vms, Random.State.int rng nodes));
    probe =
      (if Random.State.bool rng then
         Some (Array.init vms (fun _ -> Random.State.int rng nodes))
       else None);
    (* a search without a node limit only on up to 7 VMs: it then
       stays under 4^7 leaves *)
    limit =
      (if vms <= 7 && Random.State.bool rng then None
       else Some (5 + Random.State.int rng 100));
  }

(* mark, bind every variable still holding its probe value, propagate,
   undo: what [Lns.objective] does before a repair *)
let scoped_probe s xs values =
  let m = Store.mark s in
  (try
     Array.iteri
       (fun i x -> if Var.mem values.(i) x then Store.instantiate s x values.(i))
       xs;
     Store.propagate s
   with Store.Inconsistent _ -> ());
  Store.undo_to s m;
  Store.release s

let build_bb kernel inst =
  let s = Store.create () in
  let mc = inst.mc in
  let nodes = Array.length mc.caps in
  let xs =
    Array.mapi
      (fun i _ ->
        Store.new_var ~name:(Printf.sprintf "x%d" i) s ~lo:0 ~hi:(nodes - 1))
      mc.homes
  in
  let ub = Array.fold_left ( + ) 0 mc.moves in
  let obj = Store.new_var ~name:"obj" s ~lo:0 ~hi:ub in
  match
    List.iter (fun (i, j) -> Store.remove s xs.(i) j) mc.banned;
    kernel.post_pack s ~name:"cpu"
      ~items:(Array.mapi (fun i x -> Pack.item x inst.cpu.(i)) xs)
      ~capacities:inst.cpu_caps;
    kernel.post_pack s ~name:"mem"
      ~items:(Array.mapi (fun i x -> Pack.item x mc.sizes.(i)) xs)
      ~capacities:mc.caps;
    kernel.post_movecost s
      ~items:
        (Array.mapi
           (fun i x ->
             Movecost.item x ~home:mc.homes.(i) ~stay:mc.stays.(i)
               ~move:mc.moves.(i))
           xs)
      ~obj;
    List.iter (fun (i, j) -> Store.instantiate s xs.(i) j) inst.pins
  with
  | () ->
    Option.iter (scoped_probe s xs) inst.probe;
    Some (s, xs, obj)
  | exception Store.Inconsistent _ -> None

(* The same tree as the d-way loop on the same kernel: equal answers
   and counters. *)
let same_tree ~ctx (best, (st : Search.stats)) (dway_best, (dw : Search.stats))
    =
  if best <> dway_best then
    QCheck.Test.fail_reportf "%s: answers differ from the d-way loop" ctx;
  let counts (s : Search.stats) =
    (s.nodes, s.fails, s.backtracks, s.solutions, s.timed_out)
  in
  if counts st <> counts dw then
    QCheck.Test.fail_reportf
      "%s: nodes %d fails %d backtracks %d solutions %d timed out %b; \
       d-way nodes %d fails %d backtracks %d solutions %d timed out %b"
      ctx st.nodes st.fails st.backtracks st.solutions st.timed_out dw.nodes
      dw.fails dw.backtracks dw.solutions dw.timed_out;
  true

(* The answer kept: the same (value, snapshot) as the reference, in no
   more nodes, and a node-limit stop only where the reference stopped on
   it too; and the d-way loop's tree exactly. The references run first;
   a search without a node limit runs under the d-way loop's node count
   plus one, which it never reaches unless it takes more nodes (a broken
   kernel then fails instead of running on). *)
let keeps_answer ~ctx ~limit ~reference ~dway search =
  let ref_best, (ref_st : Search.stats) = reference ~node_limit:limit in
  let ((_, (dw : Search.stats)) as dway_run) = dway ~node_limit:limit in
  let ((best, (st : Search.stats)) as run) =
    search (Some (Option.value limit ~default:(dw.nodes + 1)))
  in
  if best <> ref_best then QCheck.Test.fail_reportf "%s: answers differ" ctx;
  if st.nodes > ref_st.nodes then
    QCheck.Test.fail_reportf "%s: %d nodes, the reference %d" ctx st.nodes
      ref_st.nodes;
  if st.timed_out && not ref_st.timed_out then
    QCheck.Test.fail_reportf "%s: stopped on the limit alone" ctx;
  same_tree ~ctx run dway_run

let ascending x f = List.iter f (Dom.to_list (Var.dom x))

let minimize_keeps_answer =
  QCheck.Test.make ~name:"minimize keeps its answer (random models)"
    ~count:400 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let inst = random_bb_instance (Random.State.make [| 0xbb; seed |]) in
      match (build_bb current_kernel inst, build_bb reference_kernel inst) with
      | None, None -> true
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_reportf "seed %d: posting differs" seed
      | Some (s, xs, obj), Some (rs, rxs, robj) ->
        let ds, dxs, dobj = Option.get (build_bb current_kernel inst) in
        keeps_answer
          ~ctx:(Printf.sprintf "seed %d" seed)
          ~limit:inst.limit
          ~reference:
            (Ref.minimize rs ~vars:rxs ~obj:robj ~var_select:Search.first_fail
               ~val_iter:ascending)
          ~dway:(fun ~node_limit ->
            Dway.minimize ds ~vars:dxs ~obj:dobj ~var_select:Search.first_fail
              ~val_iter:ascending ~node_limit ())
          (fun node_limit -> Search.minimize s ~vars:xs ~obj ?node_limit ()))

(* Enumeration: every solution, in the d-way loop's order, with its
   counters. *)
let solve_keeps_tree =
  QCheck.Test.make ~name:"solve keeps the d-way tree"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let inst = random_bb_instance (Random.State.make [| 0x5e; seed |]) in
      match (build_bb current_kernel inst, build_bb current_kernel inst) with
      | None, None -> true
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_reportf "seed %d: posting differs" seed
      | Some (s, xs, obj), Some (ds, dxs, dobj) ->
        let collect xs obj =
          let sols = ref [] in
          ( sols,
            fun () ->
              sols := (Array.map Var.value_exn xs, Var.lo obj, Var.hi obj) :: !sols
          )
        in
        let dsols, on_dsol = collect dxs dobj in
        let dw =
          Dway.solve ds ~vars:dxs ~var_select:Search.first_fail
            ~val_iter:ascending ~node_limit:inst.limit ~on_solution:on_dsol
        in
        let sols, on_sol = collect xs obj in
        let st =
          Search.solve s ~vars:xs
            ~node_limit:(Option.value inst.limit ~default:(dw.nodes + 1))
            ~on_solution:on_sol ()
        in
        same_tree
          ~ctx:(Printf.sprintf "seed %d" seed)
          (!sols, st) (!dsols, dw))

(* The optimiser's model of a Figure 10 instance, posted again with the
   reference propagators on a fresh store: the same variables in the
   same order (the model's orderings are keyed by variable id), the same
   residual capacities, cost tables and RAM-suspended pins. *)
module Generator = Vworkload.Generator
open Entropy_core

let reference_model (m : Optimizer.model) ~current ~demand ~target_base =
  let s = Store.create () in
  let n = Configuration.node_count current in
  let placed = Array.to_list m.placed_vms in
  let hvars =
    Array.map
      (fun vm -> Store.new_var ~name:(Printf.sprintf "h%d" vm) s ~lo:0 ~hi:(n - 1))
      m.placed_vms
  in
  let cap_cpu =
    Array.init n (fun j -> Node.cpu_capacity (Configuration.node target_base j))
  and cap_mem =
    Array.init n (fun j -> Node.memory_mb (Configuration.node target_base j))
  in
  for vm = 0 to Configuration.vm_count target_base - 1 do
    if not (List.mem vm placed) then
      let mem = Vm.memory_mb (Configuration.vm target_base vm) in
      match Configuration.state target_base vm with
      | Configuration.Running h ->
        cap_cpu.(h) <- cap_cpu.(h) - Demand.cpu demand vm;
        cap_mem.(h) <- cap_mem.(h) - mem
      | Configuration.Sleeping_ram h -> cap_mem.(h) <- cap_mem.(h) - mem
      | Configuration.Waiting | Configuration.Sleeping _
      | Configuration.Terminated -> ()
  done;
  let size f = Array.mapi (fun i h -> Pack.item h (f m.placed_vms.(i))) hvars in
  Ref.pack s ~name:"cpu" ~items:(size (Demand.cpu demand)) ~capacities:cap_cpu;
  Ref.pack s ~name:"mem"
    ~items:(size (fun vm -> Vm.memory_mb (Configuration.vm current vm)))
    ~capacities:cap_mem;
  Array.iteri
    (fun i h ->
      match Configuration.state current m.placed_vms.(i) with
      | Configuration.Sleeping_ram host -> Store.instantiate s h host
      | _ -> ())
    hvars;
  let table vm =
    let mem = Vm.memory_mb (Configuration.vm current vm) in
    match Configuration.state current vm with
    | Configuration.Running h -> Array.init n (fun j -> if j = h then 0 else mem)
    | Configuration.Sleeping h ->
      Array.init n (fun j -> if j = h then mem else 2 * mem)
    | Configuration.Sleeping_ram _ -> Array.make n 0
    | Configuration.Waiting | Configuration.Terminated ->
      Array.make n Cost.run_cost
  in
  let items =
    Array.to_list hvars
    |> List.mapi (fun i h -> Movecost.of_table h (table m.placed_vms.(i)))
    |> List.filter_map Fun.id |> Array.of_list
  in
  let ub = Array.fold_left (fun acc (it : Movecost.item) -> acc + it.move) 0 items in
  let obj = Store.new_var ~name:"obj" s ~lo:0 ~hi:(max ub 0) in
  Ref.movecost s ~items ~obj;
  (s, hvars, obj)

(* A Figure 10 instance of 9, 18 or 27 VMs on 4-8 nodes, every third
   sleeping VM suspended to RAM instead. *)
let generator_case seed =
  let { Generator.config; demand; vjobs } =
    Generator.generate
      {
        Generator.default_spec with
        node_count = 4 + (seed mod 5);
        vm_target = 9 * (1 + (seed mod 3));
        seed;
      }
  in
  let k = ref 0 in
  let config =
    Configuration.edit config (fun e ->
        for vm = 0 to Configuration.vm_count config - 1 do
          match Configuration.read e vm with
          | Configuration.Sleeping h ->
            incr k;
            if !k mod 3 = 0 then
              Configuration.write e vm (Configuration.Sleeping_ram h)
          | _ -> ()
        done)
  in
  let outcome = Rjsp.solve ~config ~demand ~queue:vjobs () in
  (config, demand, outcome)

let minimize_keeps_answer_generator =
  QCheck.Test.make ~name:"minimize keeps its answer (Generator instances)"
    ~count:40 QCheck.(int_bound 100_000)
    (fun seed ->
      let config, demand, outcome = generator_case seed in
      let placed = List.concat_map Vjob.vms outcome.Rjsp.running in
      let target_base = outcome.Rjsp.ffd_config in
      QCheck.assume (placed <> []);
      let m =
        Optimizer.build_model ~current:config ~demand ~placed ~target_base ()
      in
      QCheck.assume m.rules_postable;
      let d =
        Optimizer.build_model ~current:config ~demand ~placed ~target_base ()
      in
      let rs, rxs, robj =
        reference_model m ~current:config ~demand ~target_base
      in
      (* without a node limit on 9 VMs only *)
      let limit =
        if seed mod 2 = 1 && seed mod 3 = 0 then None
        else Some (20 + (seed mod 300))
      in
      if seed mod 3 = 0 then begin
        let ffd =
          Array.map
            (fun vm -> Option.get (Configuration.host target_base vm))
            m.placed_vms
        in
        scoped_probe m.store m.hvars ffd;
        scoped_probe d.store d.hvars ffd;
        scoped_probe rs rxs ffd
      end;
      keeps_answer
        ~ctx:(Printf.sprintf "seed %d" seed)
        ~limit
        ~reference:
          (Ref.minimize rs ~vars:rxs ~obj:robj ~var_select:m.var_select
             ~val_iter:m.val_iter)
        ~dway:(fun ~node_limit ->
          Dway.minimize d.store ~vars:d.hvars ~obj:d.obj
            ~var_select:d.var_select ~val_iter:d.val_iter
            ~lower_bound:d.lower_bound ~node_limit ())
        (fun node_limit -> Optimizer.search ?node_limit m))

(* ------------------------------------------------ refutation and stops -- *)

(* A node that refutes its first value: [x <> 0] propagated once. The
   propagator is monotone: it fails, or removes [pruned], once 0 has
   left x's domain, and records every value x is bound to. *)
let refutation_case ~pruned ~fail =
  let s = Store.create () in
  let x = Store.new_var s ~lo:0 ~hi:4 in
  let bound = ref [] in
  let run () =
    if Var.is_bound x then bound := Var.value_exn x :: !bound;
    if not (Var.mem 0 x) then
      if fail then Store.fail (fun () -> "x lost 0")
      else List.iter (Store.remove s x) pruned
  in
  Store.post s (Prop.make ~name:"needs0" run) ~on:[ x ];
  (s, x, bound)

let check_refutation ~fail ~pruned ~tried ~fails ~solutions =
  let s, x, bound = refutation_case ~pruned ~fail in
  let st = Search.solve s ~vars:[| x |] ~on_solution:ignore () in
  check_list "values tried" tried (List.rev !bound);
  check_int "fails" fails st.Search.fails;
  check_int "solutions" solutions st.Search.solutions;
  let ds, dx, dbound = refutation_case ~pruned ~fail in
  let dw =
    Dway.solve ds ~vars:[| dx |] ~var_select:Search.first_fail
      ~val_iter:ascending ~node_limit:None ~on_solution:ignore
  in
  check_list "the d-way loop tries every value" [ 0; 1; 2; 3; 4 ]
    (List.rev !dbound);
  check_int "d-way nodes" dw.Search.nodes st.Search.nodes;
  check_int "d-way fails" dw.Search.fails st.Search.fails;
  check_int "d-way backtracks" dw.Search.backtracks st.Search.backtracks;
  check_int "d-way solutions" dw.Search.solutions st.Search.solutions

let test_search_refutation_fails () =
  check_refutation ~fail:true ~pruned:[] ~tried:[ 0 ] ~fails:4 ~solutions:1

let test_search_refutation_prunes () =
  check_refutation ~fail:false ~pruned:[ 2; 3 ] ~tried:[ 0; 1; 4 ] ~fails:2
    ~solutions:3

(* Which limit stopped a search; [timed_out] stays set for both. *)
let test_search_stop_cause () =
  let s = Store.create () in
  let vars = Array.init 8 (fun _ -> Store.new_var s ~lo:0 ~hi:7) in
  let printed st = Fmt.str "%a" Search.pp_stats st in
  let capped = Search.solve s ~vars ~node_limit:50 ~on_solution:ignore () in
  check_bool "node cap" true (capped.Search.stopped_by = Some Search.Node_cap);
  check_bool "capped timed out" true capped.Search.timed_out;
  check_bool "prints node cap" true
    (String.ends_with ~suffix:" (node cap)" (printed capped));
  (* the clock is read every 64 nodes: the first read finds it expired *)
  let clocked = Search.solve s ~vars ~timeout:0. ~on_solution:ignore () in
  check_bool "clock" true (clocked.Search.stopped_by = Some Search.Clock);
  check_int "stopped at the first clock read" 64 clocked.Search.nodes;
  check_bool "clocked timed out" true clocked.Search.timed_out;
  check_bool "prints clock" true
    (String.ends_with ~suffix:" (clock)" (printed clocked));
  let complete =
    Search.solve s ~vars:[| vars.(0) |] ~node_limit:50 ~on_solution:ignore ()
  in
  check_bool "complete" true (complete.Search.stopped_by = None);
  check_bool "prints no stop" true
    (String.ends_with ~suffix:"s" (printed complete))

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
          Alcotest.test_case "failure messages" `Quick test_failure_messages;
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
          Alcotest.test_case "re-primes after an undo" `Quick
            test_pack_reprimes_after_undo;
          Alcotest.test_case "keeps a change made before a mark" `Quick
            test_pack_keeps_change_before_mark;
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
          Alcotest.test_case "node limit" `Quick test_search_node_limit;
          Alcotest.test_case "timeout keeps incumbent" `Quick
            test_search_timeout_returns_incumbent;
          Alcotest.test_case "proves optimum" `Quick
            test_search_minimize_proves_optimum;
          Alcotest.test_case "stats regression" `Quick
            test_search_stats_regression;
          Alcotest.test_case "refutation fails" `Quick
            test_search_refutation_fails;
          Alcotest.test_case "refutation prunes" `Quick
            test_search_refutation_prunes;
          Alcotest.test_case "stop cause" `Quick test_search_stop_cause;
        ]
        @ qsuite [ minimize_matches_bruteforce ]
        @ List.map
            (QCheck_alcotest.to_alcotest ~long:false
               ~rand:(Random.State.make [| 35 |]))
            [
              minimize_keeps_answer;
              minimize_keeps_answer_generator;
              solve_keeps_tree;
            ]
      );
    ]
