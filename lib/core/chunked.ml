(* Persistent vectors of fixed-width chunks. A vector is a spine of
   chunks; entry [i] lives at [chunks.(i lsr bits).(i land mask)]. Only
   the last chunk may be shorter than [width], so an index out of range
   fails an array bounds check (a negative one through [lsr]) before
   anything is written.

   A write copies the spine and the chunk it lands in; the other chunks
   stay shared. Nothing writes a chunk in place once its vector has been
   returned, so two vectors sharing a chunk at the same index hold the
   same entries there. An edit owns exactly the chunks it copied: those
   that are no longer the base's at their index.

   The width trades a write's copy (spine + chunk) against the spine's
   length. On the burst-daemon benchmark (about 750 VMs), widths 16, 32
   and 64 measured within noise of each other and 128 about 5% slower;
   64 also keeps the spine of a 10,000-VM vector (157 words) under the
   minor heap's 256-word limit, so a write there never allocates on
   the major heap. *)

let bits = 6
let width = 1 lsl bits
let mask = width - 1

type 'a t = { length : int; chunks : 'a array array }

let length t = t.length
let chunk_count t = Array.length t.chunks

let init n f =
  if n < 0 then invalid_arg "Chunked.init";
  let chunks =
    Array.init
      ((n + mask) lsr bits)
      (fun c ->
        let lo = c lsl bits in
        Array.init (min width (n - lo)) (fun j -> f (lo + j)))
  in
  { length = n; chunks }

let make n x =
  if n < 0 then invalid_arg "Chunked.make";
  let full = Array.make width x in
  let chunks =
    Array.init
      ((n + mask) lsr bits)
      (fun c ->
        let len = min width (n - (c lsl bits)) in
        if len = width then full else Array.make len x)
  in
  { length = n; chunks }

let of_array a = init (Array.length a) (Array.unsafe_get a)
let to_array t = Array.concat (Array.to_list t.chunks)

let get t i = t.chunks.(i lsr bits).(i land mask)

let set t i x =
  let c = i lsr bits and j = i land mask in
  let old = t.chunks.(c) in
  if old.(j) == x then t
  else begin
    let chunk = Array.copy old in
    chunk.(j) <- x;
    let chunks = Array.copy t.chunks in
    chunks.(c) <- chunk;
    { t with chunks }
  end

(* [spine == base] until the first write *)
type 'a editor = { base : 'a array array; mutable spine : 'a array array }

let read e i = e.spine.(i lsr bits).(i land mask)

let write e i x =
  let c = i lsr bits and j = i land mask in
  if e.spine.(c).(j) != x then begin
    if e.spine == e.base then e.spine <- Array.copy e.base;
    let chunk = e.spine.(c) in
    if chunk == e.base.(c) then begin
      let own = Array.copy chunk in
      own.(j) <- x;
      e.spine.(c) <- own
    end
    else chunk.(j) <- x
  end

let edit t f =
  let e = { base = t.chunks; spine = t.chunks } in
  f e;
  if e.spine == e.base then t else { t with chunks = e.spine }

let iteri f t =
  Array.iteri
    (fun c chunk ->
      let lo = c lsl bits in
      for j = 0 to Array.length chunk - 1 do
        f (lo + j) (Array.unsafe_get chunk j)
      done)
    t.chunks

let foldi f acc t =
  let acc = ref acc in
  iteri (fun i x -> acc := f !acc i x) t;
  !acc

let equal eq a b =
  a.length = b.length
  && (a.chunks == b.chunks
     ||
     let rec from c =
       c >= Array.length a.chunks
       || (let x = a.chunks.(c) and y = b.chunks.(c) in
           x == y || Array.for_all2 eq x y)
          && from (c + 1)
     in
     from 0)

let iter_changed eq f a b =
  if a.length <> b.length then invalid_arg "Chunked.iter_changed";
  if a.chunks != b.chunks then
    Array.iteri
      (fun c y ->
        let x = a.chunks.(c) in
        if x != y then begin
          let lo = c lsl bits in
          for j = 0 to Array.length y - 1 do
            if not (eq x.(j) y.(j)) then f (lo + j) x.(j) y.(j)
          done
        end)
      b.chunks

let for_all p t = Array.for_all (Array.for_all p) t.chunks

let for_all_fresh ~old p t =
  let rec from c =
    c >= Array.length t.chunks
    || (let chunk = t.chunks.(c) in
        (c < Array.length old.chunks && old.chunks.(c) == chunk)
        || Array.for_all p chunk)
       && from (c + 1)
  in
  from 0

let shares_chunk a b c =
  c < Array.length a.chunks
  && c < Array.length b.chunks
  && a.chunks.(c) == b.chunks.(c)
