(* Fixture: a closure handed to a scheduler timer may fire after the
   packet has been freed and reissued to a different segment. *)
let on_packet sched (pkt : Sim_net.Packet.t) =
  Sim_engine.Scheduler.Timer.create sched
    (fun () -> ignore (Sim_net.Packet.sack_blocks pkt))
    ()
