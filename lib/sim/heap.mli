(** Indexed binary min-heap with FIFO tie-breaking on equal priorities.

    Backed by parallel arrays (unboxed float priorities, sequence
    numbers, entries). Every entry records its slot, so {!remove} takes
    any entry out in O(log n); {!top_prio} and {!pop_top} allocate
    nothing, and {!push} allocates only the entry, which keeps the
    per-event cost of the simulation engine flat. *)

type 'a t

type 'a entry
(** An entry pushed into a heap: its value and its current slot. *)

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> 'a entry
(** O(log n). Entries of equal priority pop in the order they were
    pushed. *)

val mem : 'a t -> 'a entry -> bool
(** Whether the entry is still in the heap. *)

val remove : 'a t -> 'a entry -> unit
(** Take the entry out, O(log n): the last entry fills its slot and
    sifts in whichever direction restores the order. A no-op when the
    entry already left (popped or removed). *)

val top_prio : 'a t -> float
(** Priority of the smallest entry. Undefined when the heap is empty —
    callers must check {!is_empty} first. *)

val pop_top : 'a t -> 'a
(** Remove and return the smallest entry's value (earliest pushed among
    ties). Undefined when the heap is empty. *)

val pop : 'a t -> (float * 'a) option
(** Option-returning convenience over {!top_prio} + {!pop_top}. *)

val tied_count : 'a t -> int
(** Entries whose priority equals {!top_prio} (0 on an empty heap).
    O(length) — schedule-hook support, not for the hot path. *)

val pop_tied : 'a t -> int -> 'a
(** Remove and return the [k]-th entry's value (in insertion order)
    among those tied at the minimum priority; out-of-range [k] falls
    back to the FIFO choice ([pop_top]). Raises [Invalid_argument] on
    an empty heap. O(length). *)

val well_formed : 'a t -> bool
(** Every entry's slot indexes itself and no entry orders before its
    parent. O(length); for tests. *)
