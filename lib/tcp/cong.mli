(** Pluggable congestion control.

    The sender exposes a {!window} view of its state; a
    congestion-control algorithm is a record of callbacks over that
    view. This indirection is what lets MPTCP's Linked-Increase
    algorithm couple the windows of several subflows: the MPTCP
    connection builds one {!t} per subflow whose callbacks read every
    subflow's window. *)

type win = {
  mutable cwnd : float;  (** congestion window, bytes *)
  mutable ssthresh : float;  (** slow-start threshold, bytes *)
}
(** The sender's window sizes. An all-float record, so OCaml stores
    both fields flat: controllers read and write them directly, and no
    store allocates (a float field of a mixed record, or a getter and
    setter closure pair, would box every value). The sender owns it
    and shares it with its controller. Controllers never set [cwnd]
    below one [mss]; those outside this module write the clamp inline,
    because a float passed to a function in another module is boxed. *)

type window = {
  win : win;
  mss : int;
  flight : unit -> int;  (** unacknowledged bytes *)
  rtt : Rtt_estimator.t;  (** the subflow's RTT estimator *)
}

type loss_kind = Fast_retransmit | Timeout

type t = {
  name : string;
  on_ack : acked:int -> ece:bool -> unit;
      (** Called for every ACK that advances the cumulative
          acknowledgement outside of loss recovery. [acked] is the
          number of newly acknowledged bytes; [ece] is the ECN echo
          flag (consumed by DCTCP, ignored by Reno/LIA). *)
  on_loss : loss_kind -> unit;
      (** Must set ssthresh and the post-loss cwnd. The sender applies
          NewReno window inflation/deflation mechanics on top. *)
  gauges : (string * (unit -> float)) list;
      (** Named introspection probes into the controller's internal
          state (e.g. DCTCP exposes ["alpha"]). The state itself lives
          in the controller's closures, so a controller — and
          everything it can leak — dies with its connection; nothing
          is registered globally. Empty for controllers with nothing
          to expose. *)
}

val gauge : t -> string -> float option
(** [gauge t key] reads probe [key], [None] if the controller does not
    expose it. *)

val reno_on_loss : window -> loss_kind -> unit
(** Standard multiplicative decrease: ssthresh = max(flight/2, 2*mss);
    cwnd = ssthresh after fast retransmit, 1 MSS after a timeout.
    Shared by Reno, DCTCP (timeout path) and LIA. *)

val slow_start_increase : window -> acked:int -> unit
(** cwnd += acked (uncapped byte counting): identical to classic
    per-ACK slow start when ACKs are not aggregated, and robust to the
    cumulative-ACK jumps that reordering produces. *)

val congestion_avoidance_increase : window -> acked:int -> unit
(** cwnd += mss*mss/cwnd per full-MSS ACK (byte-counted AIMD). *)
