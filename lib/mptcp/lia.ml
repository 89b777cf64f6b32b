module Cong = Sim_tcp.Cong

(* The group's windows in attach order, plus scratch arrays that each
   ACK refills with the windows and RTTs, most-recently-attached first
   (the order the coupled sums have always run in, so every float
   result is unchanged). Scratch is sized at attach time, so the
   per-ACK path allocates nothing. *)
type group = {
  mutable windows : Cong.window array;
  mutable cwnds : float array;
  mutable rtts : float array;
}

let make_group () = { windows = [||]; cwnds = [||]; rtts = [||] }

let subflow_count g = Array.length g.windows

(* RTT fallback before the first sample; only influences the very first
   increases of a subflow. *)
let default_rtt_s = 1e-3

(* Inlined: it returns a float. *)
let[@inline] rtt_s (w : Cong.window) =
  let ns = Sim_tcp.Rtt_estimator.srtt_ns w.Cong.rtt in
  if ns < 0 then default_rtt_s else Float.max 1e-6 (float_of_int ns /. 1e9)

(* Pure RFC 6356 coupling factor over parallel window/RTT arrays. The
   packet-level [alpha] below and the fluid engine's rate model both
   evaluate this one formula, so the coupling semantics cannot drift
   between the two transport models. Loops rather than folds, and
   inlined into the per-ACK path, so no float is boxed. *)
let[@inline] alpha_formula ~cwnds ~rtts =
  let n = Array.length cwnds in
  if n = 0 || n <> Array.length rtts then 1.
  else begin
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. cwnds.(i)
    done;
    if !total <= 0. then 1.
    else begin
      let best = ref 0. and denom = ref 0. in
      for i = 0 to n - 1 do
        let r = Float.max 1e-6 rtts.(i) in
        best := Float.max !best (cwnds.(i) /. (r *. r));
        denom := !denom +. (cwnds.(i) /. r)
      done;
      if !denom <= 0. then 1. else !total *. !best /. (!denom *. !denom)
    end
  end

(* Refill the scratch arrays, most-recently-attached first. *)
let fill g =
  let n = Array.length g.windows in
  for i = 0 to n - 1 do
    let w = g.windows.(n - 1 - i) in
    g.cwnds.(i) <- w.Cong.win.Cong.cwnd;
    g.rtts.(i) <- rtt_s w
  done

(* Equilibrium rate split of a LIA-coupled connection, for the fluid
   model. With equal loss rates across paths the coupled increase
   (alpha * acked * mss / cwnd_total per subflow, halving on loss)
   drives the windows to equal sizes — [alpha_formula] at that fixed
   point reduces to best-path fairness — so per-path throughput is
   proportional to 1/rtt_i. The weights sum to 1: the aggregate claims
   exactly one TCP-fair share when every leg crosses one bottleneck,
   and the full aggregate of its shares when the paths are disjoint. *)
let fluid_weights ~rtts =
  let n = Array.length rtts in
  if n = 0 then [||]
  else begin
    (* Loops rather than maps and a fold, so no float is boxed. The
       sum runs from 0. in subflow order. *)
    let inv = Array.make n 0. in
    let sum = ref 0. in
    for i = 0 to n - 1 do
      inv.(i) <- 1. /. Float.max 1e-6 rtts.(i);
      sum := !sum +. inv.(i)
    done;
    let sum = !sum in
    if sum <= 0. then Array.make n (1. /. float_of_int n)
    else begin
      for i = 0 to n - 1 do
        inv.(i) <- inv.(i) /. sum
      done;
      inv
    end
  end

let alpha g =
  fill g;
  alpha_formula ~cwnds:g.cwnds ~rtts:g.rtts

let attach g (w : Cong.window) =
  g.windows <- Array.append g.windows [| w |];
  let n = Array.length g.windows in
  g.cwnds <- Array.make n 0.;
  g.rtts <- Array.make n 0.;
  let win = w.Cong.win in
  let on_ack ~acked ~ece:_ =
    if win.Cong.cwnd < win.Cong.ssthresh then Cong.slow_start_increase w ~acked
    else begin
      fill g;
      let total = ref 0. in
      for i = 0 to Array.length g.cwnds - 1 do
        total := !total +. g.cwnds.(i)
      done;
      let a = alpha_formula ~cwnds:g.cwnds ~rtts:g.rtts in
      let mss = float_of_int w.Cong.mss in
      let acked_f = float_of_int acked in
      let coupled = a *. acked_f *. mss /. Float.max !total mss in
      let uncoupled = acked_f *. mss /. Float.max win.Cong.cwnd mss in
      let inc = Float.min coupled uncoupled in
      (* Same per-ACK cap as byte-counted AIMD, then the one-segment
         floor every controller keeps. *)
      win.Cong.cwnd <- Float.max (win.Cong.cwnd +. Float.min inc mss) mss
    end
  in
  { Cong.name = "lia"; on_ack; on_loss = Cong.reno_on_loss w; gauges = [] }
