(* Array-backed 4-ary min-heap of (time, seq, value) int triples, stored
   interleaved in one int array: cell [i] occupies [a.(3i)],
   [a.(3i+1)], [a.(3i+2)]. This is the innermost loop of every
   simulation. Because every word is an int, a sift level is plain
   stores with no write barrier, and the four children of a cell sit in
   twelve consecutive words — a sift-down compares them within one or
   two cache lines, and the tree is half as deep as a binary heap's.
   Ordering key is (time, seq); both are native ints.

   Element access skips the bounds check: every index below is a cell
   [< size <= capacity] times three plus 0..2, so it is in range by
   construction, and the heap's unit and property tests exercise every
   path. Dropping the checks cut packet_fig1's CPU time by about 8 %
   (alternating runs on a 2-vCPU x86-64 host). *)
module Array = struct
  include Array

  external get : int array -> int -> int = "%array_unsafe_get"
  external set : int array -> int -> int -> unit = "%array_unsafe_set"
end

type t = {
  mutable a : int array;  (* 3 * capacity ints *)
  mutable size : int;
}

let min_cells = 64

let create () = { a = Array.make (3 * min_cells) 0; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let resize t cells =
  let a = Array.make (3 * cells) 0 in
  Array.blit t.a 0 a 0 (3 * t.size);
  t.a <- a

let push t ~time ~seq value =
  if 3 * t.size = Array.length t.a then resize t (2 * t.size);
  let a = t.a in
  (* Sift up: move parents down into the hole until the new key fits. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = a.(3 * p) in
    if time < pt || (time = pt && seq < a.((3 * p) + 1)) then begin
      let h = 3 * !i in
      a.(h) <- pt;
      a.(h + 1) <- a.((3 * p) + 1);
      a.(h + 2) <- a.((3 * p) + 2);
      i := p
    end
    else continue := false
  done;
  let h = 3 * !i in
  a.(h) <- time;
  a.(h + 1) <- seq;
  a.(h + 2) <- value

(* Sift the event (time, seq, value) down from position [i0] (whose
   slot is treated as free) and write it into its final position. *)
let sift_down t i0 time seq value =
  let a = t.a and n = t.size in
  let i = ref i0 in
  let continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= n then continue := false
    else begin
      (* Smallest of the (up to) four children. *)
      let m = ref c in
      let mt = ref a.(3 * c) and ms = ref a.((3 * c) + 1) in
      let last = if c + 3 < n then c + 3 else n - 1 in
      for k = c + 1 to last do
        let kt = a.(3 * k) in
        if kt < !mt || (kt = !mt && a.((3 * k) + 1) < !ms) then begin
          m := k;
          mt := kt;
          ms := a.((3 * k) + 1)
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        let h = 3 * !i and s = 3 * !m in
        a.(h) <- !mt;
        a.(h + 1) <- !ms;
        a.(h + 2) <- a.(s + 2);
        i := !m
      end
      else continue := false
    end
  done;
  let h = 3 * !i in
  a.(h) <- time;
  a.(h + 1) <- seq;
  a.(h + 2) <- value

(* Root access for the scheduler's run loop: the [max_int] sentinel
   folds the empty check into the time comparison. Only call
   [top_seq]/[top_value] after checking the heap is non-empty. *)
let top_time t = if t.size = 0 then max_int else t.a.(0)
let top_seq t = t.a.(1)
let top_value t = t.a.(2)

let drop t =
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then
    let h = 3 * n in
    sift_down t 0 t.a.(h) t.a.(h + 1) t.a.(h + 2)

let replace_top t ~time ~seq value = sift_down t 0 time seq value

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.a.(0) and seq = t.a.(1) and value = t.a.(2) in
    drop t;
    Some (time, seq, value)
  end

let peek_time t = if t.size = 0 then None else Some t.a.(0)
let clear t = t.size <- 0

(* Drop every event [keep] rejects, then restore the heap property with
   a bottom-up heapify — O(n), preserving each survivor's exact
   (time, seq) key so the drain order is unchanged. The scheduler calls
   this when stale cells dominate the heap; the backing array shrinks
   once the survivors fit in a quarter of it. *)
let compact t ~keep =
  let a = t.a in
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let h = 3 * i in
    if keep ~time:a.(h) ~seq:a.(h + 1) a.(h + 2) then begin
      let d = 3 * !j in
      if d <> h then begin
        a.(d) <- a.(h);
        a.(d + 1) <- a.(h + 1);
        a.(d + 2) <- a.(h + 2)
      end;
      incr j
    end
  done;
  t.size <- !j;
  let cap = Array.length a / 3 in
  if cap > min_cells && t.size * 4 < cap then begin
    let ncap = ref cap in
    while !ncap > min_cells && t.size * 4 < !ncap do
      ncap := !ncap / 2
    done;
    resize t !ncap
  end;
  for i = (t.size - 2) / 4 downto 0 do
    let h = 3 * i in
    sift_down t i t.a.(h) t.a.(h + 1) t.a.(h + 2)
  done
