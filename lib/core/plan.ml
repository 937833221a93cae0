(* Reconfiguration plans: a sequence of pools. Pools execute one after
   the other; the actions inside a pool are pairwise independent and run
   in parallel (section 4.1). *)

type t = {
  pools : Action.t list list;
}

let make pools = { pools = List.filter (fun p -> p <> []) pools }

let empty = { pools = [] }
let is_empty t = t.pools = []
let pools t = t.pools
let pool_count t = List.length t.pools

let actions t = List.concat t.pools

let action_count t = List.length (actions t)

let cost config t = Cost.plan config t.pools

let count_kind t pred =
  List.length (List.filter pred (actions t))

let migration_count t =
  count_kind t (function Action.Migrate _ -> true | _ -> false)

let suspend_count t =
  count_kind t (function Action.Suspend _ -> true | _ -> false)

let resume_count t =
  count_kind t (function Action.Resume _ -> true | _ -> false)

let run_count t = count_kind t (function Action.Run _ -> true | _ -> false)
let stop_count t = count_kind t (function Action.Stop _ -> true | _ -> false)

let local_resume_count t =
  count_kind t (function
    | Action.Resume { src; dst; _ } -> src = dst
    | _ -> false)

let pp ppf t =
  let pp_pool i ppf actions =
    Fmt.pf ppf "pool %d: @[<hov>%a@]" i Fmt.(list ~sep:comma Action.pp) actions
  in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.iter_bindings ~sep:Fmt.cut
       (fun f t -> List.iteri (fun i p -> f i p) t.pools)
       (fun ppf (i, p) -> pp_pool i ppf p))
    t
