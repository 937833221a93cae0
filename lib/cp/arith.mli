(** Elementary arithmetic constraints (bounds-consistent). *)

val div_floor : int -> int -> int
(** [div_floor a b] is [floor (a / b)] for [b > 0]. *)

val le : Store.t -> Var.t -> Var.t -> unit
(** [le s x y] posts [x <= y]. *)

val lt : Store.t -> Var.t -> Var.t -> unit
(** [lt s x y] posts [x < y]. *)

val le_offset : Store.t -> Var.t -> Var.t -> int -> unit
(** [le_offset s x y c] posts [x <= y + c]. *)

val eq : Store.t -> Var.t -> Var.t -> unit
(** [eq s x y] posts [x = y] (bounds plus value channeling when both
    domains are enumerable). *)

val eq_offset : Store.t -> Var.t -> Var.t -> int -> unit
(** [eq_offset s x y c] posts [x = y + c]. *)

val neq_const : Store.t -> Var.t -> int -> unit
(** [neq_const s x v] posts [x <> v]. *)

val neq : Store.t -> Var.t -> Var.t -> unit
(** [neq s x y] posts [x <> y] (forward checking). *)
