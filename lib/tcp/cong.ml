type win = { mutable cwnd : float; mutable ssthresh : float }

type window = {
  win : win;
  mss : int;
  flight : unit -> int;
  rtt : Rtt_estimator.t;
}

type loss_kind = Fast_retransmit | Timeout

type t = {
  name : string;
  on_ack : acked:int -> ece:bool -> unit;
  on_loss : loss_kind -> unit;
  gauges : (string * (unit -> float)) list;
}

let gauge t key = Option.map (fun f -> f ()) (List.assoc_opt key t.gauges)

(* The window never shrinks below one segment. *)
let[@inline] set_cwnd w c = w.win.cwnd <- Float.max c (float_of_int w.mss)

let reno_on_loss w kind =
  let mss = float_of_int w.mss in
  (* RFC 5681 FlightSize, clamped to cwnd: NewReno window inflation can
     leave more data outstanding than cwnd, and halving from that
     inflated figure would let ssthresh ratchet upwards across
     consecutive recoveries. *)
  let flight = Float.min (float_of_int (w.flight ())) w.win.cwnd in
  let ssthresh = Float.max (flight /. 2.) (2. *. mss) in
  w.win.ssthresh <- ssthresh;
  match kind with
  | Fast_retransmit -> set_cwnd w ssthresh
  | Timeout -> set_cwnd w mss

(* Byte-counted slow start without a per-ACK cap: a cumulative ACK
   covering n segments grows cwnd by n segments, exactly like
   per-segment ACKing would. Capping at one MSS per ACK would stall
   senders whose ACK stream is aggregated by reordering — which is the
   normal regime for the packet-scatter phase. *)
let slow_start_increase w ~acked = set_cwnd w (w.win.cwnd +. float_of_int acked)

let congestion_avoidance_increase w ~acked =
  let mss = float_of_int w.mss in
  let cwnd = w.win.cwnd in
  let inc = mss *. mss /. cwnd *. (float_of_int acked /. mss) in
  (* Cap the per-ACK increase at one MSS, as byte-counted AIMD does. *)
  set_cwnd w (cwnd +. Float.min inc mss)
