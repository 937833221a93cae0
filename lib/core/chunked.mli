(** Persistent vectors of fixed-width chunks, structurally shared.

    A vector is a spine of chunks of {!width} entries (the last one
    shorter). A write copies the spine and the one chunk it lands in,
    and every other chunk stays shared with the vector it came from, so
    the old vector never changes. Nothing writes a chunk in place once
    its vector is returned: a chunk physically shared between two
    vectors at the same index holds the same entries in both, which
    {!equal}, {!iter_changed}, {!for_all_fresh} and {!shares_chunk} use
    to skip it.

    The configurations' VM state vector ({!Configuration}) and the
    monitor's CPU readings sit on it. *)

type 'a t

val width : int
(** Entries per chunk: 64. *)

val make : int -> 'a -> 'a t
(** [make n x]: [n] copies of [x]; every full chunk is one shared
    array. Raises [Invalid_argument] when [n < 0]. *)

val init : int -> (int -> 'a) -> 'a t
(** Calls the function on [0 .. n-1] in ascending order. Raises
    [Invalid_argument] when [n < 0]. *)

val of_array : 'a array -> 'a t
(** A chunked copy. *)

val to_array : 'a t -> 'a array
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] out of bounds. *)

val set : 'a t -> int -> 'a -> 'a t
(** A new vector sharing every chunk but the written one: the spine
    plus one chunk, whatever the length. Returns the vector itself when
    the entry is already physically [x]. Raises [Invalid_argument] out
    of bounds, before allocating anything. *)

type 'a editor
(** Write access to one new version of a vector, valid only inside the
    {!edit} callback that received it. *)

val edit : 'a t -> ('a editor -> unit) -> 'a t
(** [edit t f] lets [f] make any number of writes. The spine is copied
    at the first write and each chunk at its first write, so the result
    costs the spine plus the chunks written; an edit that writes
    nothing new returns [t] itself. [t] is unchanged, also when [f]
    raises. *)

val read : 'a editor -> int -> 'a
(** Current entry, the edit's earlier writes included. Raises
    [Invalid_argument] out of bounds. *)

val write : 'a editor -> int -> 'a -> unit
(** No copy when the entry is already physically the value. Raises
    [Invalid_argument] out of bounds, before writing anything. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val foldi : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Same length and pointwise equal; physically shared chunks are not
    compared. *)

val iter_changed :
  ('a -> 'a -> bool) -> (int -> 'a -> 'a -> unit) -> 'a t -> 'a t -> unit
(** [iter_changed eq f a b] calls [f i (get a i) (get b i)] on every
    index, in ascending order, where the two entries are not [eq],
    skipping the chunks [a] and [b] share. Raises [Invalid_argument]
    when the lengths differ. *)

val for_all : ('a -> bool) -> 'a t -> bool

val for_all_fresh : old:'a t -> ('a -> bool) -> 'a t -> bool
(** Whether every entry of [t] satisfies the predicate, scanning only
    the chunks of [t] not physically shared with [old] at the same
    index: [old]'s entries are taken to satisfy it already. *)

val chunk_count : 'a t -> int

val shares_chunk : 'a t -> 'a t -> int -> bool
(** [shares_chunk a b c]: chunk [c] (entries [c * width] up to
    [(c + 1) * width - 1]) is the same physical array in both. *)
