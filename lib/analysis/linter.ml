(* Pre-search lint of a posted CP model.

   None of these findings makes a model wrong — they make a search
   slower or betray an encoding mistake upstream (a decision variable
   the caller accidentally fixed, the same constraint posted twice, an
   objective left effectively unbounded). The linter reads the store's
   variables and their watcher lists; the only mutation is one
   propagation to the root fixpoint, which is undone before return. *)

open Fdcp

type finding =
  | Inconsistent_model of { message : string }
  | Constant_var of { var : string; value : int }
  | Unconstrained_var of { var : string }
  | Duplicate_constraint of { name : string; other : string; vars : string list }
  | Dead_propagator of { prop : string }
  | Unbounded_objective of { var : string; lo : int; hi : int }

let pp_finding ppf = function
  | Inconsistent_model { message } ->
    Fmt.pf ppf "model is inconsistent before search: %s" message
  | Constant_var { var; value } ->
    Fmt.pf ppf "decision variable %s was posted already fixed to %d" var value
  | Unconstrained_var { var } ->
    Fmt.pf ppf "variable %s has no propagator watching it" var
  | Duplicate_constraint { name; other; vars } ->
    Fmt.pf ppf "%s duplicates %s (same subscriptions on %a)" name other
      Fmt.(list ~sep:comma string)
      vars
  | Dead_propagator { prop } ->
    Fmt.pf ppf
      "%s can never wake again: all its watched variables are fixed at the \
       root fixpoint"
      prop
  | Unbounded_objective { var; lo; hi } ->
    Fmt.pf ppf
      "objective %s spans [%d, %d]: too wide to enumerate, branch & bound \
       will tighten bounds only"
      var lo hi

(* [Store.constant] names its variables "const<v>": fixing those is the
   caller's stated intent, not an accident. *)
let is_intentional_constant (v : Var.t) =
  String.length v.Var.name >= 5 && String.sub v.Var.name 0 5 = "const"

let lint ?obj store =
  let findings = ref [] in
  let note f = findings := f :: !findings in
  let vars = Store.vars store in
  (* pre-propagation state: a variable bound here was posted fixed *)
  List.iter
    (fun (v : Var.t) ->
      if Dom.is_bound v.Var.dom && not (is_intentional_constant v) then
        note
          (Constant_var { var = Var.name v; value = Dom.value_exn v.Var.dom }))
    vars;
  List.iter
    (fun (v : Var.t) ->
      if v.Var.watchers = [] && not (Dom.is_bound v.Var.dom) then
        note (Unconstrained_var { var = Var.name v }))
    vars;
  (* duplicate subscriptions: same propagator name, same (var, mask)
     watch set — the second run can only repeat the first's work *)
  let sig_of = Hashtbl.create 32 in
  List.iter
    (fun (v : Var.t) ->
      List.iter
        (fun { Var.mask; prop = (p : Prop.t); _ } ->
          let entry =
            match Hashtbl.find_opt sig_of p.Prop.id with
            | Some (_, watches) -> watches
            | None -> []
          in
          Hashtbl.replace sig_of p.Prop.id (p, (v.Var.id, mask) :: entry))
        v.Var.watchers)
    vars;
  let name_of_var =
    let tbl = Hashtbl.create 32 in
    List.iter (fun (v : Var.t) -> Hashtbl.replace tbl v.Var.id (Var.name v)) vars;
    fun id -> try Hashtbl.find tbl id with Not_found -> Printf.sprintf "v%d" id
  in
  let props =
    Hashtbl.fold (fun _ (p, watches) acc -> (p, watches) :: acc) sig_of []
    |> List.sort (fun ((a : Prop.t), _) ((b : Prop.t), _) ->
           Int.compare a.Prop.id b.Prop.id)
  in
  let by_signature = Hashtbl.create 32 in
  List.iter
    (fun ((p : Prop.t), watches) ->
      let signature = (p.Prop.name, List.sort compare watches) in
      match Hashtbl.find_opt by_signature signature with
      | Some (first : Prop.t) ->
        note
          (Duplicate_constraint
             {
               name = Fmt.str "%a" Prop.pp p;
               other = Fmt.str "%a" Prop.pp first;
               vars =
                 List.map (fun (id, _) -> name_of_var id) watches
                 |> List.sort_uniq compare;
             })
      | None -> Hashtbl.replace by_signature signature p)
    props;
  (* root fixpoint for the propagation-dependent lints; undone before
     returning so the caller's store is untouched *)
  let m = Store.mark store in
  let var_by_id = Hashtbl.create 32 in
  List.iter (fun (v : Var.t) -> Hashtbl.replace var_by_id v.Var.id v) vars;
  (match Store.propagate store with
  | () ->
    List.iter
      (fun ((p : Prop.t), watches) ->
        let all_fixed =
          List.for_all
            (fun (id, _) ->
              match Hashtbl.find_opt var_by_id id with
              | Some (v : Var.t) -> Dom.is_bound v.Var.dom
              | None -> true)
            watches
        in
        if all_fixed && watches <> [] then
          note (Dead_propagator { prop = Fmt.str "%a" Prop.pp p }))
      props;
    (match obj with
    | Some (o : Var.t) ->
      if not (Dom.enumerable o.Var.dom) then
        note
          (Unbounded_objective
             { var = Var.name o; lo = Dom.lo o.Var.dom; hi = Dom.hi o.Var.dom })
    | None -> ())
  | exception Store.Inconsistent failure ->
    note (Inconsistent_model { message = Store.message failure }));
  Store.undo_to store m;
  List.rev !findings

let pp_report ppf findings =
  match findings with
  | [] -> Fmt.pf ppf "model lint: no findings"
  | fs ->
    Fmt.pf ppf "@[<v>%d lint finding(s):@,%a@]" (List.length fs)
      (Fmt.list ~sep:Fmt.cut (fun ppf f -> Fmt.pf ppf "- %a" pp_finding f))
      fs
