(* Finite integer domains.

   A domain is an immutable set of integers. Two representations are used:
   - a contiguous interval [lo, hi] (bits = None);
   - an interval with holes, backed by a copy-on-write bitset of 62-bit
     words whose bit i (word i/62, position i mod 62) represents the
     value [off + i].

   The word array is shared between domains whenever possible: operations
   that only tighten a bound ([remove] of a bound value, [remove_below],
   [remove_above]) reuse the array unchanged and merely shrink the [lo,hi]
   window. Consequently bits *outside* the window are stale (possibly set)
   and every read clamps to the window first; bits inside the window are
   always exact.

   Domains wider than [max_enumerated_width] stay interval-only: removing
   an interior value of such a domain is a sound no-op (the domain is an
   over-approximation, propagators only lose pruning strength, never
   soundness). This matters only for objective-like variables whose
   domains are tightened exclusively through their bounds. *)

let max_enumerated_width = 1 lsl 16

type t = {
  lo : int;
  hi : int;
  size : int;
  off : int;              (* value of bit 0 when a bitset is present *)
  bits : int array option;
}

let lo t = t.lo
let hi t = t.hi
let size t = t.size

let is_empty t = t.size = 0
let is_bound t = t.size = 1

let empty = { lo = 1; hi = 0; size = 0; off = 0; bits = None }

let interval lo hi =
  if lo > hi then empty
  else { lo; hi; size = hi - lo + 1; off = lo; bits = None }

(* Singletons of small values are shared, so an instantiation (a node
   id, for a placement variable) allocates no domain. *)
let shared_singletons =
  Array.init 256 (fun v -> { lo = v; hi = v; size = 1; off = v; bits = None })

let singleton v =
  if v >= 0 && v < Array.length shared_singletons then shared_singletons.(v)
  else interval v v

(* -- word-level bitset helpers ------------------------------------------- *)

let word_bits = 62

(* max_int = 2^62 - 1: exactly bits 0..61 set, i.e. a full word. *)
let full_word = max_int

(* bits p..61 *)
let mask_from p = full_word - ((1 lsl p) - 1)

(* bits 0..p (p <= 61; p = 61 wraps through min_int - 1 = max_int) *)
let mask_upto p = (1 lsl (p + 1)) - 1

(* SWAR popcount of a 62-bit word. All constants fit in OCaml's 63-bit
   native ints; the final multiply's byte 7 (bits 56..62 after lsr 56)
   carries the total, which is <= 62. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

(* index of the lowest set bit (x <> 0) *)
let ctz x = popcount ((x land -x) - 1)

(* index of the highest set bit (x <> 0) *)
let highest_bit x =
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin r := 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin r := !r + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin r := !r + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin r := !r + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin r := !r + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then incr r;
  !r

let bit_get b off v =
  let i = v - off in
  b.(i / word_bits) lsr (i mod word_bits) land 1 = 1

let bit_clear b off v =
  let i = v - off in
  let w = i / word_bits in
  b.(w) <- b.(w) land lnot (1 lsl (i mod word_bits))

let bit_set b off v =
  let i = v - off in
  let w = i / word_bits in
  b.(w) <- b.(w) lor (1 lsl (i mod word_bits))

(* Smallest present value in [v, hi], or -1. [v >= off]; stale bits above
   [hi] in the last word are rejected by the final comparison (ctz returns
   the lowest candidate, so a legitimate value is never shadowed). *)
let scan_up b off hi v =
  if v > hi then -1
  else begin
    let i = v - off in
    let w = i / word_bits in
    let nw = ((hi - off) / word_bits) + 1 in
    let first = b.(w) land mask_from (i mod word_bits) in
    let r =
      if first <> 0 then off + (w * word_bits) + ctz first
      else begin
        let w = ref (w + 1) in
        while !w < nw && b.(!w) = 0 do incr w done;
        if !w >= nw then -1 else off + (!w * word_bits) + ctz b.(!w)
      end
    in
    if r >= 0 && r <= hi then r else -1
  end

(* Largest present value in [lo, v], or -1. Symmetric to [scan_up]; stale
   bits below [lo] in the first word are rejected by the final check. *)
let scan_down b off lo v =
  if v < lo then -1
  else begin
    let i = v - off in
    let w = i / word_bits in
    let wlo = (lo - off) / word_bits in
    let first = b.(w) land mask_upto (i mod word_bits) in
    let r =
      if first <> 0 then off + (w * word_bits) + highest_bit first
      else begin
        let w = ref (w - 1) in
        while !w >= wlo && b.(!w) = 0 do decr w done;
        if !w < wlo then -1 else off + (!w * word_bits) + highest_bit b.(!w)
      end
    in
    if r >= lo then r else -1
  end

(* Number of present values in [a, z] (both within the window). *)
let count_range b off a z =
  if a > z then 0
  else begin
    let i = a - off and j = z - off in
    let wi = i / word_bits and wj = j / word_bits in
    if wi = wj then
      popcount (b.(wi) land mask_from (i mod word_bits)
                land mask_upto (j mod word_bits))
    else begin
      let c = ref (popcount (b.(wi) land mask_from (i mod word_bits))) in
      for w = wi + 1 to wj - 1 do
        c := !c + popcount b.(w)
      done;
      !c + popcount (b.(wj) land mask_upto (j mod word_bits))
    end
  end

(* Fresh all-ones bitset covering [lo, hi] (bit 0 = lo). Trailing stale
   set bits beyond [hi] in the last word are harmless: reads clamp. *)
let materialize_interval lo hi =
  let width = hi - lo + 1 in
  Array.make ((width + word_bits - 1) / word_bits) full_word

let enumerable t =
  match t.bits with
  | Some _ -> true
  | None -> t.hi - t.lo + 1 <= max_enumerated_width

let mem v t =
  if v < t.lo || v > t.hi then false
  else
    match t.bits with
    | None -> true
    | Some b -> bit_get b t.off v

let value_exn t =
  if t.size <> 1 then invalid_arg "Dom.value_exn: domain not bound";
  t.lo

let next_value v t =
  let v = max v t.lo in
  if v > t.hi then None
  else
    match t.bits with
    | None -> Some v
    | Some b ->
      let r = scan_up b t.off t.hi v in
      if r < 0 then None else Some r

let prev_value v t =
  let v = min v t.hi in
  if v < t.lo then None
  else
    match t.bits with
    | None -> Some v
    | Some b ->
      let r = scan_down b t.off t.lo v in
      if r < 0 then None else Some r

let remove v t =
  if v < t.lo || v > t.hi then t
  else
    match t.bits with
    | None ->
      (* interval: bound removals just move the window (the word array
         stays absent); interior removals materialize the bits *)
      if v = t.lo then
        if t.size = 1 then empty
        else { t with lo = v + 1; size = t.size - 1 }
      else if v = t.hi then { t with hi = v - 1; size = t.size - 1 }
      else if not (enumerable t) then t (* sound over-approximation *)
      else
        let b = materialize_interval t.lo t.hi in
        bit_clear b t.lo v;
        { t with size = t.size - 1; off = t.lo; bits = Some b }
    | Some b ->
      if not (bit_get b t.off v) then t
      else if t.size = 1 then empty
      else if v = t.lo then
        (* shrink from below; the stale bit at [v] falls outside the
           window, so the word array is shared unchanged *)
        { t with lo = scan_up b t.off t.hi (v + 1); size = t.size - 1 }
      else if v = t.hi then
        { t with hi = scan_down b t.off t.lo (v - 1); size = t.size - 1 }
      else if not (enumerable t) then t
      else begin
        (* interior removal: lo, hi and off are unchanged, only one bit
           and the cardinality move — no rescan needed *)
        let b = Array.copy b in
        bit_clear b t.off v;
        { t with size = t.size - 1; bits = Some b }
      end

let remove_below v t =
  if v <= t.lo then t
  else if v > t.hi then empty
  else
    match t.bits with
    | None -> { t with lo = v; size = t.hi - v + 1 }
    | Some b ->
      (* only the removed range [lo, v-1] is scanned; the kept side is
         untouched and the word array is shared *)
      let size = t.size - count_range b t.off t.lo (v - 1) in
      if size = 0 then empty
      else
        let lo = scan_up b t.off t.hi v in
        { t with lo; size }

let remove_above v t =
  if v >= t.hi then t
  else if v < t.lo then empty
  else
    match t.bits with
    | None -> { t with hi = v; size = v - t.lo + 1 }
    | Some b ->
      let size = t.size - count_range b t.off (v + 1) t.hi in
      if size = 0 then empty
      else
        let hi = scan_down b t.off t.lo v in
        { t with hi; size }

let keep_only v t = if mem v t then singleton v else empty

let of_list vs =
  match List.sort_uniq Int.compare vs with
  | [] -> empty
  | [ v ] -> singleton v
  | lo :: _ as vs ->
    let hi = List.fold_left max lo vs in
    if hi - lo + 1 > max_enumerated_width then
      invalid_arg "Dom.of_list: range too wide to enumerate";
    let width = hi - lo + 1 in
    let b = Array.make ((width + word_bits - 1) / word_bits) 0 in
    List.iter (fun v -> bit_set b lo v) vs;
    { lo; hi; size = List.length vs; off = lo; bits = Some b }

let fold f acc t =
  if not (enumerable t) then invalid_arg "Dom.fold: domain not enumerable"
  else
    match t.bits with
    | None ->
      let acc = ref acc in
      for v = t.lo to t.hi do
        acc := f !acc v
      done;
      !acc
    | Some b ->
      let rec go acc v =
        if v > t.hi then acc
        else
          let v = scan_up b t.off t.hi v in
          if v < 0 then acc else go (f acc v) (v + 1)
      in
      go acc t.lo

let iter f t = fold (fun () v -> f v) () t

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

(* Set equality, independent of the representation (shared word arrays,
   stale bits outside the window, interval vs materialized bitset). *)
let equal a b =
  a.size = b.size && a.lo = b.lo && a.hi = b.hi
  && (a.size = 0
     || a.size = a.hi - a.lo + 1 (* both contiguous *)
     ||
     let rec go v =
       match (next_value v a, next_value v b) with
       | None, None -> true
       | Some x, Some y -> x = y && go (x + 1)
       | Some _, None | None, Some _ -> false
     in
     go a.lo)

let pp ppf t =
  if is_empty t then Fmt.string ppf "{}"
  else if t.size = 1 then Fmt.pf ppf "{%d}" t.lo
  else
    match t.bits with
    | None -> Fmt.pf ppf "[%d..%d]" t.lo t.hi
    | Some _ -> Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma int) (to_list t)
