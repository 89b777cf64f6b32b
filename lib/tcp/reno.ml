let make (w : Cong.window) =
  let on_ack ~acked ~ece:_ =
    if w.Cong.win.cwnd < w.Cong.win.ssthresh then
      Cong.slow_start_increase w ~acked
    else Cong.congestion_avoidance_increase w ~acked
  in
  { Cong.name = "reno"; on_ack; on_loss = Cong.reno_on_loss w; gauges = [] }
