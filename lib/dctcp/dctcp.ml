module Cong = Sim_tcp.Cong

let recommended_marking_threshold = 17

(* The controller's float state is an all-float record (stored flat,
   so updates do not box) captured by its closures and exposed through
   the generic [Cong.gauges] probes — no process-global registry, so a
   controller's state dies with its connection and can never bleed
   into a later simulation. *)
type state = { mutable alpha : float; mutable window_target : float }

let make ?(g = 1. /. 16.) (w : Cong.window) =
  let st = { alpha = 0.; window_target = 0. } in
  let bytes_acked = ref 0 in
  let bytes_marked = ref 0 in
  let win = w.Cong.win in
  let on_ack ~acked ~ece =
    bytes_acked := !bytes_acked + acked;
    if ece then bytes_marked := !bytes_marked + acked;
    (* Normal growth continues; DCTCP reduces proportionally to the
       marking fraction once per observation window (~one cwnd of
       ACKed bytes). *)
    if win.Cong.cwnd < win.Cong.ssthresh then Cong.slow_start_increase w ~acked
    else Cong.congestion_avoidance_increase w ~acked;
    if st.window_target <= 0. then st.window_target <- win.Cong.cwnd;
    if float_of_int !bytes_acked >= st.window_target then begin
      let f = float_of_int !bytes_marked /. float_of_int (max 1 !bytes_acked) in
      st.alpha <- ((1. -. g) *. st.alpha) +. (g *. f);
      if !bytes_marked > 0 then begin
        let mss = float_of_int w.Cong.mss in
        let reduced = win.Cong.cwnd *. (1. -. (st.alpha /. 2.)) in
        win.Cong.cwnd <- Float.max reduced mss;
        win.Cong.ssthresh <- win.Cong.cwnd
      end;
      bytes_acked := 0;
      bytes_marked := 0;
      st.window_target <- win.Cong.cwnd
    end
  in
  {
    Cong.name = "dctcp";
    on_ack;
    on_loss = Cong.reno_on_loss w;
    gauges = [ ("alpha", fun () -> st.alpha) ];
  }

let alpha_of (cc : Cong.t) =
  if cc.Cong.name = "dctcp" then Cong.gauge cc "alpha" else None
