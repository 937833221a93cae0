(* Indexed binary min-heap keyed by (priority, sequence number); the
   sequence number makes the pop order of equal-priority entries
   deterministic (FIFO).

   Priorities and sequence numbers live in parallel arrays so the
   priority array stays an unboxed float array; the third array holds
   the entries, and every entry records the slot it sits in, so
   [remove] finds it in O(1) and takes it out in O(log n). A sift moves
   the hole, not the entry: the displaced entries shift one level each
   and the sifted one is written once, where it lands. *)

type 'a entry = { mutable slot : int; value : 'a }
(* [slot] is -1 once the entry has left the heap *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable entries : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  { prios = [||]; seqs = [||]; entries = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0
let mem t e = e.slot >= 0 && e.slot < t.size && t.entries.(e.slot) == e

let grow t entry =
  let cap = Array.length t.entries in
  if t.size = cap then begin
    let ncap = max 16 (2 * cap) in
    let prios = Array.make ncap 0. in
    Array.blit t.prios 0 prios 0 t.size;
    t.prios <- prios;
    let seqs = Array.make ncap 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    t.seqs <- seqs;
    let entries = Array.make ncap entry in
    Array.blit t.entries 0 entries 0 t.size;
    t.entries <- entries
  end

(* Slot [src]'s entry moves into slot [dst]. *)
let move t src dst =
  t.prios.(dst) <- t.prios.(src);
  t.seqs.(dst) <- t.seqs.(src);
  let e = t.entries.(src) in
  t.entries.(dst) <- e;
  e.slot <- dst

(* Fill the hole at slot [hole] with the entry at slot [src], moving
   the hole up past every parent that orders after that entry. The
   entry's fields are read into locals first, so [src] may be the hole
   itself or the freed last slot. *)
let sift_up t hole src =
  let p = t.prios.(src) and s = t.seqs.(src) and e = t.entries.(src) in
  let hole = ref hole and moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pp = t.prios.(parent) in
    if p < pp || (p = pp && s < t.seqs.(parent)) then begin
      move t parent !hole;
      hole := parent
    end
    else moving := false
  done;
  t.prios.(!hole) <- p;
  t.seqs.(!hole) <- s;
  t.entries.(!hole) <- e;
  e.slot <- !hole

(* The same downwards: the hole sinks past every smaller child. *)
let sift_down t hole src =
  let p = t.prios.(src) and s = t.seqs.(src) and e = t.entries.(src) in
  let hole = ref hole and moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= t.size then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < t.size
          && (t.prios.(r) < t.prios.(l)
             || (t.prios.(r) = t.prios.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      let cp = t.prios.(c) in
      if cp < p || (cp = p && t.seqs.(c) < s) then begin
        move t c !hole;
        hole := c
      end
      else moving := false
    end
  done;
  t.prios.(!hole) <- p;
  t.seqs.(!hole) <- s;
  t.entries.(!hole) <- e;
  e.slot <- !hole

let push t prio value =
  let e = { slot = t.size; value } in
  grow t e;
  let i = t.size in
  t.prios.(i) <- prio;
  t.seqs.(i) <- t.next_seq;
  t.entries.(i) <- e;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i i;
  e

(* Take the entry at slot [i] out: the last entry fills the hole,
   sifting up when it orders before the hole's parent, else down. *)
let remove_at t i =
  let e = t.entries.(i) in
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let parent = (i - 1) / 2 in
    if
      i > 0
      && (t.prios.(last) < t.prios.(parent)
         || (t.prios.(last) = t.prios.(parent)
            && t.seqs.(last) < t.seqs.(parent)))
    then sift_up t i last
    else sift_down t i last
  end;
  e.slot <- -1;
  e.value

let remove t e = if mem t e then ignore (remove_at t e.slot : _)

let top_prio t = t.prios.(0)
let pop_top t = remove_at t 0

let pop t =
  if t.size = 0 then None
  else
    let prio = top_prio t in
    Some (prio, pop_top t)

(* -- schedule hook support -------------------------------------------------

   The model checker's engine chooser needs to see and pick among the
   entries tied at the minimum priority. These are O(size) scans plus a
   removal — fine for exploration, never on the deterministic hot path
   ([pop_top] stays allocation-free). *)

let tied_count t =
  if t.size = 0 then 0
  else begin
    let top = t.prios.(0) in
    let n = ref 0 in
    for i = 0 to t.size - 1 do
      if t.prios.(i) = top then incr n
    done;
    !n
  end

let pop_tied t k =
  if t.size = 0 then invalid_arg "Heap.pop_tied: empty heap";
  let top = t.prios.(0) in
  let tied = ref [] in
  for i = t.size - 1 downto 0 do
    if t.prios.(i) = top then tied := i :: !tied
  done;
  let tied =
    List.sort (fun a b -> compare t.seqs.(a) t.seqs.(b)) !tied
  in
  let len = List.length tied in
  let k = if k < 0 || k >= len then 0 else k in
  remove_at t (List.nth tied k)

let well_formed t =
  let ok = ref true in
  for i = 0 to t.size - 1 do
    if t.entries.(i).slot <> i then ok := false;
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if
        t.prios.(i) < t.prios.(parent)
        || (t.prios.(i) = t.prios.(parent) && t.seqs.(i) < t.seqs.(parent))
      then ok := false
    end
  done;
  !ok
