(* The 64-bit state is two 32-bit halves in int fields rather than a
   [mutable state : int64] field: such a field holds a pointer to a
   boxed [int64], so every draw would allocate a fresh box. Each draw
   reassembles the state into an unboxed local, and [mix64] is
   inlined, so [int] and [float_trunc] draw without allocating. Only
   [bits64] and [float] return a boxed value, because their results
   cross the module boundary. (An 8-byte [Bytes] buffer would work too,
   but [Bytes.create] is a C call, and every link and queue creates a
   generator while a topology is built.) *)
type t = { mutable hi : int; mutable lo : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] high s = Int64.to_int (Int64.shift_right_logical s 32)
let[@inline] low s = Int64.to_int (Int64.logand s 0xFFFF_FFFFL)
let[@inline] of_state s = { hi = high s; lo = low s }

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      golden_gamma
  in
  t.hi <- high s;
  t.lo <- low s;
  mix64 s

let bits64 t = next t
let split t = of_state (next t)
let copy t = { hi = t.hi; lo = t.lo }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Take the top bits; modulo bias is negligible for simulation bounds
     (bound << 2^62) but we mask to non-negative first. *)
  let v = Int64.to_int (next t) land max_int in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* Uniform in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  /. 9007199254740992.0 (* 2^53 *)

let float t bound = bound *. unit_float t

let float_trunc t bound = int_of_float (float_of_int bound *. unit_float t)

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = ref (float t 1.0) in
  while !u = 0. do u := float t 1.0 done;
  -.mean *. log !u

let pareto t ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Rng.pareto: bad parameters";
  let u = ref (float t 1.0) in
  while !u = 0. do u := float t 1.0 done;
  scale /. (!u ** (1. /. shape))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let derangement t n =
  if n <= 0 then invalid_arg "Rng.derangement: n must be positive";
  if n = 1 then [| 0 |]
  else begin
    let a = Array.init n (fun i -> i) in
    (* Rejection sampling: shuffle until no fixed point. Expected number
       of attempts converges to e ~ 2.72, independent of n. *)
    let ok () =
      let good = ref true in
      for i = 0 to n - 1 do
        if a.(i) = i then good := false
      done;
      !good
    in
    shuffle t a;
    while not (ok ()) do
      shuffle t a
    done;
    a
  end

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
