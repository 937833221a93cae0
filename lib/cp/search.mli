(** Depth-first search, enumeration and branch-and-bound minimisation.

    A node tries its variable's values one at a time, in the value
    iterator's order. After the first value [v], it propagates [x <> v]
    once and keeps the result for its other values: a value that
    refutation removed, or every value when it failed, counts one fail
    and is not tried. Each such value would have failed at its first
    propagation, so the nodes, fails, solutions and answers are those of
    trying every value. *)

type limit =
  | Node_cap  (** the [node_limit] was reached *)
  | Clock     (** the [timeout] expired *)

type stats = {
  mutable nodes : int;
  mutable fails : int;
  mutable backtracks : int;
      (** undone value attempts (after exhausting a subtree, and on each
          fail) *)
  mutable solutions : int;
  mutable elapsed : float;        (** seconds *)
  mutable timed_out : bool;
      (** a limit ended the search before it completed *)
  mutable stopped_by : limit option;
      (** which limit; [Some _] exactly when [timed_out] *)
}

val pp_stats : Format.formatter -> stats -> unit
(** The counters, then ["(node cap)"] or ["(clock)"] for a search a
    limit stopped. *)

val fresh_stats : unit -> stats

type var_select = Var.t array -> Var.t option
(** Picks the next unbound variable to branch on ([None] = all bound). *)

type val_iter = Var.t -> (int -> unit) -> unit
(** Value ordering: applies the callback to each value of the domain as
    it stands when the iterator is called, once each, in the order it
    should be tried (default: the domain in increasing order). The live
    domain changes under the callback: after the first value it lacks
    every value the node refuted. The iterator must still apply the
    callback to those values, reading the domain it was called on
    ([Var.dom] is an immutable snapshot), since the search counts a
    fail for each. *)

exception Stop
(** Raise from [on_solution] to stop the search. A stopped search is
    complete: [timed_out] stays false. *)

val first_fail : var_select
(** Smallest current domain first (Haralick & Elliott). *)

val by_key : (Var.t -> int) -> var_select
(** Unbound variable minimising the key. Use a negated key for
    "largest demand first" orderings. *)

val solve :
  Store.t -> vars:Var.t array -> ?var_select:var_select ->
  ?val_iter:val_iter -> ?timeout:float -> ?node_limit:int -> on_solution:(unit -> unit) -> unit -> stats
(** Enumerate solutions (assignments of [vars]); [on_solution] runs with
    the store instantiated and may read any variable. The store is
    restored to its root state before returning. *)

val find_first :
  Store.t -> vars:Var.t array -> ?var_select:var_select ->
  ?val_iter:val_iter -> ?timeout:float -> ?node_limit:int -> unit ->
  int array option * stats
(** First solution as a value snapshot of [vars]. *)

val minimize :
  Store.t -> vars:Var.t array -> obj:Var.t -> ?var_select:var_select ->
  ?val_iter:val_iter -> ?timeout:float -> ?node_limit:int ->
  ?lower_bound:int -> unit -> (int * int array) option * stats
(** Branch & bound on [obj]. Returns the best objective value with the
    snapshot of [vars] at that solution (the incumbent at timeout if the
    search did not complete). A caller that knows a bound up front
    (e.g. a heuristic solution's cost) posts it on [obj] before the
    call.

    The search stops, as on {!Stop}, once its incumbent is at most a
    proven lower bound: the larger of [obj]'s lower bound at the root
    fixpoint and [lower_bound] (default: none). [lower_bound] must be
    admissible, no solution below the root having a smaller [obj]; it
    is read only for this test, never posted. The stop prunes only
    subtrees that hold no better solution, so the answer is the one the
    full search returns, in fewer nodes. [timed_out] is true only when
    the timeout or [node_limit] ended the search before that: the
    answer is then proven optimal exactly when [timed_out] is false. *)
