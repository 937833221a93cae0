(** Movement-cost sum: the CP optimiser's objective as one global
    constraint.

    [obj = sum_i (x_i = home_i ? stay_i : move_i)] with
    [stay_i <= move_i]. Propagation is bounds reasoning on [obj] plus
    the two prunings it implies on each [x_i]: forcing [home_i] when a
    move would push the minimal sum above [obj]'s upper bound, removing
    [home_i] when staying would keep the maximal sum below [obj]'s lower
    bound. This is the fixpoint of a per-item {!Element} channel into a
    cost variable summed by {!Linear.sum_var}, at a fraction of the
    cost: the sums are incremental and trailed. *)

type item = private { var : Var.t; home : int; stay : int; move : int }

val item : Var.t -> home:int -> stay:int -> move:int -> item
(** Raises [Invalid_argument] when [stay > move]. *)

val of_table : Var.t -> int array -> item option
(** [of_table x table] reads the item behind [table.(x)]: [None] when
    the table is constant (the item cannot influence [obj]), otherwise
    [home] is the one index holding the smaller value [stay] and every
    other index holds [move]. Raises [Invalid_argument] on an empty
    table, on more than two distinct values, or when the smaller value
    sits on more than one index. *)

val post : Store.t -> items:item array -> obj:Var.t -> unit
(** [post s ~items ~obj] posts the sum. It wakes on any domain change
    of an item's variable and on bounds moves of [obj]. *)
