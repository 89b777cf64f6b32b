(* A sorted set of disjoint, non-adjacent [start, stop) ranges, stored
   as parallel growable int arrays: span [i] is [starts.(i), stops.(i))
   for [i < n], in ascending order. The receive path keeps the prefix
   merged into span 0, so sets stay short (bounded by the number of
   concurrent reorder holes).

   Adding a range edits the arrays in place — extend a span, merge a
   run of spans, or open a gap and insert — so once the arrays have
   grown to the peak number of holes an add allocates nothing. The
   receive path adds once per data segment at subflow level, and the
   multipath layer once more at data level, where 8 reordering
   subflows keep several spans open. *)

type t = {
  mutable starts : int array;
  mutable stops : int array;
  mutable n : int;
  mutable total : int;
}

let create () = { starts = [||]; stops = [||]; n = 0; total = 0 }

let total t = t.total

let grow t =
  let cap = Int.max 4 (2 * Array.length t.starts) in
  let starts = Array.make cap 0 and stops = Array.make cap 0 in
  Array.blit t.starts 0 starts 0 t.n;
  Array.blit t.stops 0 stops 0 t.n;
  t.starts <- starts;
  t.stops <- stops

(* Replace spans [i, j) (possibly none, i = j) by the single span
   [s, e), shifting the spans from [j] on. *)
let splice t i j s e =
  let shift = 1 - (j - i) in
  if shift > 0 && t.n = Array.length t.starts then grow t;
  if shift <> 0 then begin
    Array.blit t.starts j t.starts (j + shift) (t.n - j);
    Array.blit t.stops j t.stops (j + shift) (t.n - j)
  end;
  t.starts.(i) <- s;
  t.stops.(i) <- e;
  t.n <- t.n + shift

let add t ~start ~stop =
  if stop < start then invalid_arg "Intervals.add: stop < start";
  if stop = start then 0
  else begin
    (* Skip the spans that end strictly before [start] (a span ending
       exactly at [start] touches it and merges). *)
    let i = ref 0 in
    while !i < t.n && t.stops.(!i) < start do
      incr i
    done;
    (* Merge every span that overlaps or touches [s, e), widening it
       as spans join; count the bytes already covered. *)
    let s = ref start and e = ref stop and covered = ref 0 in
    let j = ref !i in
    while !j < t.n && t.starts.(!j) <= !e do
      let rs = t.starts.(!j) and re = t.stops.(!j) in
      covered := !covered + Int.max 0 (Int.min !e re - Int.max !s rs);
      s := Int.min !s rs;
      e := Int.max !e re;
      incr j
    done;
    splice t !i !j !s !e;
    let added = stop - start - !covered in
    t.total <- t.total + added;
    added
  end

(* Top-level walks, not local closures over [x] or the range: those
   would be allocated on every call. *)
let rec contiguous_at t x i =
  if i >= t.n then x
  else if t.starts.(i) <= x && x < t.stops.(i) then t.stops.(i)
  else if t.starts.(i) > x then x
  else contiguous_at t x (i + 1)

let contiguous_from t x = contiguous_at t x 0

let rec covered_at t ~start ~stop i =
  i < t.n
  && ((t.starts.(i) <= start && stop <= t.stops.(i)) || covered_at t ~start ~stop (i + 1))

let is_covered t ~start ~stop = stop <= start || covered_at t ~start ~stop 0

let spans t = List.init t.n (fun i -> (t.starts.(i), t.stops.(i)))
let span_count t = t.n

let fill_above t ~above ~max_blocks ~dst =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if !k < max_blocks && t.starts.(i) > above then begin
      dst.(2 * !k) <- t.starts.(i);
      dst.((2 * !k) + 1) <- t.stops.(i);
      incr k
    end
  done;
  !k
