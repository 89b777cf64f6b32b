module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Packet = Sim_net.Packet
module Host = Sim_net.Host
module Addr = Sim_net.Addr

type chunk = { mutable dsn : int; mutable len : int }

type source = {
  pull : chunk -> max:int -> bool;
  has_more : unit -> bool;
}

let fixed_size_source n =
  if n < 0 then invalid_arg "Tcp_tx.fixed_size_source: negative size";
  let next = ref 0 in
  {
    pull =
      (fun c ~max ->
        if !next >= n then false
        else begin
          c.dsn <- !next;
          c.len <- min max (n - !next);
          next := !next + c.len;
          true
        end);
    has_more = (fun () -> !next < n);
  }

type stats = {
  mutable segments_sent : int;
  mutable segments_rtx : int;
  mutable bytes_sent : int;
  mutable rto_events : int;
  mutable fast_rtx_events : int;
  mutable acks_received : int;
  mutable dsacks_received : int;
  mutable syn_sent : int;
}

type state = Closed | Syn_sent | Established | Failed

type recovery = Normal | Fast_recovery | Rto_recovery

(* The unacknowledged segments, oldest first: a ring of parallel int
   arrays (sequence number, length, DSN, send time, flag bits), so
   sending, ACKing and SACK-marking a segment allocate nothing (a record
   plus a stdlib [Queue] cell per segment did).
   Index [i] is the [i]-th oldest segment. Capacity is a power of two
   that doubles when full; the arrays are allocated on the first push
   and dropped once the transfer is fully acknowledged, so a finished
   connection (kept until the horizon by the flow records) holds no
   ring. *)
module Segs = struct
  let sacked_bit = 1
  let rtx_bit = 2 (* ever retransmitted: no RTT sample (Karn) *)
  let rtx_rec_bit = 4 (* retransmitted during the current recovery *)

  type t = {
    mutable ssn : int array;
    mutable len : int array;
    mutable dsn : int array;
    mutable sent_at : int array;  (* ns *)
    mutable flags : int array;
    mutable head : int;
    mutable count : int;
  }

  let create () =
    { ssn = [||]; len = [||]; dsn = [||]; sent_at = [||]; flags = [||];
      head = 0; count = 0 }

  let length q = q.count
  let[@inline] slot q i = (q.head + i) land (Array.length q.ssn - 1)

  let grow q =
    let cap = Array.length q.ssn in
    let cap' = if cap = 0 then 8 else 2 * cap in
    let move a =
      let b = Array.make cap' 0 in
      for i = 0 to q.count - 1 do
        b.(i) <- a.((q.head + i) land (cap - 1))
      done;
      b
    in
    q.ssn <- move q.ssn;
    q.len <- move q.len;
    q.dsn <- move q.dsn;
    q.sent_at <- move q.sent_at;
    q.flags <- move q.flags;
    q.head <- 0

  let push q ~ssn ~len ~dsn ~sent_at =
    if q.count = Array.length q.ssn then grow q;
    let k = slot q q.count in
    q.ssn.(k) <- ssn;
    q.len.(k) <- len;
    q.dsn.(k) <- dsn;
    q.sent_at.(k) <- sent_at;
    q.flags.(k) <- 0;
    q.count <- q.count + 1

  let release q =
    q.ssn <- [||];
    q.len <- [||];
    q.dsn <- [||];
    q.sent_at <- [||];
    q.flags <- [||];
    q.head <- 0

  let drop_front q =
    q.head <- slot q 1;
    q.count <- q.count - 1

  let ssn q i = q.ssn.(slot q i)
  let len q i = q.len.(slot q i)
  let dsn q i = q.dsn.(slot q i)
  let sent_at q i = q.sent_at.(slot q i)
  let has q i bit = q.flags.(slot q i) land bit <> 0

  let set q i bit =
    let k = slot q i in
    q.flags.(k) <- q.flags.(k) lor bit

  let clear_all q bit =
    for i = 0 to q.count - 1 do
      let k = slot q i in
      q.flags.(k) <- q.flags.(k) land lnot bit
    done

  (* A retransmission of segment [i] at [now]. *)
  let resent q i ~now =
    set q i rtx_bit;
    q.sent_at.(slot q i) <- now
end

type t = {
  sched : Scheduler.t;
  host : Host.t;
  peer : Addr.t;
  conn : int;
  subflow : int;
  params : Tcp_params.t;
  src_port : unit -> int;
  dst_port : int;
  source : source;
  rtt : Rtt_estimator.t;
  mutable state : state;
  win : Cong.win;  (* shared with the controller through [window] *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  segs : Segs.t;
  chunk : chunk;  (* scratch the source writes each pulled chunk into *)
  mutable dup_acks : int;
  mutable recovery : recovery;
  mutable recover_point : int;
  (* Re-armable RTO timer: one entry (static fire fn + state) allocated
     on first arm, then reused for the connection's whole life. *)
  mutable rto_timer : Scheduler.Timer.t option;
  mutable backoff : int;
  mutable syn_retries : int;
  mutable cc : Cong.t;
  dupack_threshold : unit -> int;
  on_established : unit -> unit;
  on_dsn_acked : dsn:int -> len:int -> unit;
  on_all_acked : unit -> unit;
  on_dsack : unit -> unit;
  on_first_congestion : unit -> unit;
  mutable congestion_seen : bool;
  mutable all_acked_fired : bool;
  mutable sacked_bytes : int;  (* bytes in [segs] currently SACKed *)
  st : stats;
  m : Sim_obs.Metrics.t option;  (* [Some] only when probing this conn *)
  hist_rtt : Sim_stats.Histogram.t option;
  ledger : Sim_obs.Flow_ledger.t;  (* per-sim; every hook is one branch when off *)
}

let noop () = ()
let noop_dsn ~dsn:_ ~len:_ = ()

let mss t = t.params.Tcp_params.mss
let flight t = t.snd_nxt - t.snd_una

let window t =
  {
    Cong.win = t.win;
    mss = mss t;
    flight = (fun () -> flight t);
    rtt = t.rtt;
  }

(* Exponential backoff as an integer shift: the base is well below
   2^53 ns, so this is exactly what scaling it by the float 2^k gave,
   without a float crossing into Sim_time. *)
let current_rto t =
  let base = Rtt_estimator.rto t.rtt in
  let backed = Time.of_ns (Time.to_ns base lsl Int.min t.backoff 16) in
  Time.min backed t.params.Tcp_params.max_rto

(* Built only for a probed connection: a sprintf is about 50 words,
   which every subflow set-up would otherwise pay. *)
let probe_id conn subflow = Printf.sprintf "c%d.s%d" conn subflow

let create ~host ~peer ~conn ~subflow ~params ~src_port ~dst_port ~source ~cc
    ?dupack_threshold ?(on_established = noop) ?(on_dsn_acked = noop_dsn)
    ?(on_all_acked = noop) ?(on_dsack = noop) ?(on_first_congestion = noop) () =
  let threshold =
    match dupack_threshold with
    | Some f -> f
    | None -> fun () -> params.Tcp_params.dupack_threshold
  in
  let metrics =
    let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx (Host.sched host)) in
    if Sim_obs.Metrics.want_conn m conn then Some m else None
  in
  let hist_rtt =
    match metrics with
    | Some m ->
      (* Data-centre RTTs: 100 µs per bucket up to 5 ms, overflow
         beyond (queue-buildup and RTO-scale outliers). *)
      Sim_obs.Metrics.histogram m ~component:"tcp_tx"
        ~id:(probe_id conn subflow) ~name:"rtt" ~units:"us" ~lo:0. ~hi:5000.
        ~buckets:50
    | None -> None
  in
  let t =
    {
      sched = Host.sched host;
      host;
      peer;
      conn;
      subflow;
      params;
      src_port;
      dst_port;
      source;
      rtt = Rtt_estimator.create ~params;
      state = Closed;
      win =
        {
          Cong.cwnd =
            float_of_int (params.Tcp_params.initial_window * params.Tcp_params.mss);
          ssthresh = Float.max_float /. 4.;
        };
      snd_una = 0;
      snd_nxt = 0;
      segs = Segs.create ();
      chunk = { dsn = 0; len = 0 };
      dup_acks = 0;
      recovery = Normal;
      recover_point = 0;
      rto_timer = None;
      backoff = 0;
      syn_retries = 0;
      cc = { Cong.name = "uninitialised"; on_ack = (fun ~acked:_ ~ece:_ -> ()); on_loss = (fun _ -> ()); gauges = [] };
      dupack_threshold = threshold;
      on_established;
      on_dsn_acked;
      on_all_acked;
      on_dsack;
      on_first_congestion;
      congestion_seen = false;
      all_acked_fired = false;
      sacked_bytes = 0;
      st =
        {
          segments_sent = 0;
          segments_rtx = 0;
          bytes_sent = 0;
          rto_events = 0;
          fast_rtx_events = 0;
          acks_received = 0;
          dsacks_received = 0;
          syn_sent = 0;
        };
      m = metrics;
      hist_rtt;
      ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx (Host.sched host));
    }
  in
  t.cc <- cc (window t);
  (match t.m with
   | Some m ->
     let mid = probe_id conn subflow in
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"tcp_tx" ~id:mid ~name ~units read
     in
     reg "cwnd" "bytes" (fun () -> t.win.Cong.cwnd);
     reg "ssthresh" "bytes" (fun () ->
         (* The initial "infinite" ssthresh would drown real values in
            any plot; report it as 0 until congestion sets it. *)
         if t.win.Cong.ssthresh > 1e18 then 0. else t.win.Cong.ssthresh);
     reg "inflight" "bytes" (fun () -> float_of_int (t.snd_nxt - t.snd_una));
     reg "rto" "ns" (fun () -> float_of_int (Time.to_ns (current_rto t)));
     reg "srtt" "ns" (fun () ->
         match Rtt_estimator.srtt t.rtt with
         | Some s -> float_of_int (Time.to_ns s)
         | None -> 0.);
     reg "bytes_acked" "bytes" (fun () -> float_of_int t.snd_una)
   | None -> ());
  t

let set_cc t factory = t.cc <- factory (window t)

let cancel_rto t =
  match t.rto_timer with
  | Some tm -> Scheduler.Timer.cancel tm
  | None -> ()

let rto_pending t =
  match t.rto_timer with
  | Some tm -> Scheduler.Timer.is_pending tm
  | None -> false

(* Transmit the [i]-th oldest unacknowledged segment. *)
let emit_segment t i =
  let len = Segs.len t.segs i in
  t.st.segments_sent <- t.st.segments_sent + 1;
  t.st.bytes_sent <- t.st.bytes_sent + len;
  Host.send t.host
    (Packet.make ~ctx:(Scheduler.ctx t.sched) ~src:(Host.addr t.host)
       ~dst:t.peer ~conn:t.conn ~subflow:t.subflow ~src_port:(t.src_port ())
       ~dst_port:t.dst_port ~seq:(Segs.ssn t.segs i) ~ack_seq:0 ~len
       ~bits:Packet.data_bits ~dsn:(Segs.dsn t.segs i))

let send_syn t =
  t.st.syn_sent <- t.st.syn_sent + 1;
  Host.send t.host
    (Packet.make ~ctx:(Scheduler.ctx t.sched) ~src:(Host.addr t.host)
       ~dst:t.peer ~conn:t.conn ~subflow:t.subflow ~src_port:(t.src_port ())
       ~dst_port:t.dst_port ~seq:0 ~ack_seq:0 ~len:0 ~bits:Packet.syn_bits
       ~dsn:(-1))

let first_congestion t =
  if not t.congestion_seen then begin
    t.congestion_seen <- true;
    t.on_first_congestion ()
  end

let retransmit t i =
  Segs.resent t.segs i ~now:(Time.to_ns (Scheduler.now t.sched));
  t.st.segments_rtx <- t.st.segments_rtx + 1;
  emit_segment t i

let retransmit_front t = if Segs.length t.segs > 0 then retransmit t 0

(* Mark segments covered by the ACK's SACK blocks, read straight off
   the packet's scratch array (nothing allocated here). *)
let process_sack t (pkt : Packet.t) =
  let nblocks = pkt.Packet.sack_count in
  if t.params.Tcp_params.sack && nblocks > 0 then begin
    let blocks = pkt.Packet.sack in
    for i = 0 to Segs.length t.segs - 1 do
      if not (Segs.has t.segs i Segs.sacked_bit) then begin
        let ssn = Segs.ssn t.segs i and len = Segs.len t.segs i in
        let covered = ref false in
        for b = 0 to nblocks - 1 do
          if blocks.(2 * b) <= ssn && ssn + len <= blocks.((2 * b) + 1) then
            covered := true
        done;
        if !covered then begin
          Segs.set t.segs i Segs.sacked_bit;
          t.sacked_bytes <- t.sacked_bytes + len
        end
      end
    done
  end

(* Retransmit the earliest hole (unSACKed, un-retransmitted this
   recovery, below the recovery point), searching from index [i]. *)
let rec retransmit_hole_from t i =
  if i < Segs.length t.segs then
    if
      (not (Segs.has t.segs i Segs.sacked_bit))
      && (not (Segs.has t.segs i Segs.rtx_rec_bit))
      && Segs.ssn t.segs i < t.recover_point
    then begin
      Segs.set t.segs i Segs.rtx_rec_bit;
      retransmit t i
    end
    else retransmit_hole_from t (i + 1)

let retransmit_next_hole t = retransmit_hole_from t 0
let clear_recovery_marks t = Segs.clear_all t.segs Segs.rtx_rec_bit

let clear_sack_marks t =
  Segs.clear_all t.segs Segs.sacked_bit;
  t.sacked_bytes <- 0

let rec arm_rto t =
  let tm =
    match t.rto_timer with
    | Some tm -> tm
    | None ->
      let tm = Scheduler.Timer.create t.sched on_rto t in
      t.rto_timer <- Some tm;
      tm
  in
  Scheduler.Timer.schedule_after tm (current_rto t)

and on_rto t =
  match t.state with
  | Syn_sent ->
    t.syn_retries <- t.syn_retries + 1;
    if t.syn_retries > t.params.Tcp_params.max_syn_retries then t.state <- Failed
    else begin
      t.backoff <- t.backoff + 1;
      send_syn t;
      arm_rto t
    end
  | Established when flight t > 0 ->
    t.st.rto_events <- t.st.rto_events + 1;
    Sim_obs.Flow_ledger.on_rto t.ledger ~conn:t.conn;
    (match t.m with
     | Some m ->
       Sim_obs.Metrics.emit m ~kind:"rto_fired" ~conn:t.conn
         ~subflow:t.subflow
         ~info:[ ("backoff", string_of_int t.backoff) ]
         ()
     | None -> ());
    first_congestion t;
    t.cc.Cong.on_loss Cong.Timeout;
    t.dup_acks <- 0;
    t.recovery <- Rto_recovery;
    t.recover_point <- t.snd_nxt;
    t.backoff <- t.backoff + 1;
    clear_recovery_marks t;
    clear_sack_marks t;
    retransmit_front t;
    arm_rto t
  | Established | Closed | Failed -> ()

(* Allowed flight: the congestion window, plus one MSS per duplicate
   ACK while still below the fast-retransmit threshold (generalised
   limited transmit, RFC 3042): every dup ACK signals a departure, so
   the ACK clock keeps running through reordering runs. With the
   standard threshold of 3 this is plain limited transmit; with the
   scatter phase's topology-derived threshold it is what keeps a
   reordered single window from stalling. *)
(* Inlined so the float it returns is never boxed. *)
let[@inline] send_allowance t =
  match t.recovery with
  | Normal -> t.win.Cong.cwnd +. float_of_int (t.dup_acks * t.params.Tcp_params.mss)
  | Fast_recovery when t.params.Tcp_params.sack ->
    (* Pipe accounting: SACKed bytes have left the network. *)
    t.win.Cong.cwnd +. float_of_int t.sacked_bytes
  | Fast_recovery | Rto_recovery -> t.win.Cong.cwnd

let try_send t =
  if t.state = Established then begin
    let continue = ref true in
    while !continue do
      if float_of_int (flight t) >= send_allowance t then continue := false
      else if not (t.source.pull t.chunk ~max:(mss t)) then continue := false
      else begin
        let len = t.chunk.len in
        assert (len > 0 && len <= mss t);
        Segs.push t.segs ~ssn:t.snd_nxt ~len ~dsn:t.chunk.dsn
          ~sent_at:(Time.to_ns (Scheduler.now t.sched));
        t.snd_nxt <- t.snd_nxt + len;
        emit_segment t (Segs.length t.segs - 1);
        if not (rto_pending t) then arm_rto t
      end
    done
  end

let notify_source_ready t = try_send t

let connect t =
  if t.state <> Closed then invalid_arg "Tcp_tx.connect: already started";
  t.state <- Syn_sent;
  send_syn t;
  arm_rto t

let check_all_acked t =
  if
    (not t.all_acked_fired)
    && t.state = Established
    && (not (t.source.has_more ()))
    && t.snd_una = t.snd_nxt
  then begin
    t.all_acked_fired <- true;
    Segs.release t.segs;
    t.on_all_acked ()
  end

let enter_fast_recovery t =
  t.st.fast_rtx_events <- t.st.fast_rtx_events + 1;
  Sim_obs.Flow_ledger.on_fast_rtx t.ledger ~conn:t.conn;
  (match t.m with
   | Some m ->
     Sim_obs.Metrics.emit m ~kind:"fast_retransmit" ~conn:t.conn
       ~subflow:t.subflow
       ~info:[ ("dup_acks", string_of_int t.dup_acks) ]
       ()
   | None -> ());
  first_congestion t;
  t.cc.Cong.on_loss Cong.Fast_retransmit;
  t.win.Cong.cwnd <- t.win.Cong.cwnd +. (3. *. float_of_int (mss t));
  t.recover_point <- t.snd_nxt;
  t.recovery <- Fast_recovery;
  clear_recovery_marks t;
  if t.params.Tcp_params.sack then retransmit_next_hole t
  else retransmit_front t;
  t.backoff <- 0;
  arm_rto t

let handle_new_ack t a ~ece =
  let newly = a - t.snd_una in
  (* Pop fully acknowledged segments, keeping the freshest candidate
     RTT sample (send time in ns; -1 for none) from a
     never-retransmitted segment (Karn). *)
  let sample = ref (-1) in
  while Segs.length t.segs > 0 && Segs.ssn t.segs 0 + Segs.len t.segs 0 <= a do
    let len = Segs.len t.segs 0 and dsn = Segs.dsn t.segs 0 in
    if Segs.has t.segs 0 Segs.sacked_bit then t.sacked_bytes <- t.sacked_bytes - len;
    if not (Segs.has t.segs 0 Segs.rtx_bit) then sample := Segs.sent_at t.segs 0;
    Segs.drop_front t.segs;
    t.on_dsn_acked ~dsn ~len
  done;
  t.snd_una <- a;
  t.backoff <- 0;
  if !sample >= 0 then begin
    let now = Scheduler.now t.sched in
    let rtt_sample = Time.diff now (Time.of_ns !sample) in
    Rtt_estimator.observe t.rtt rtt_sample;
    match t.hist_rtt with
    | Some h ->
      Sim_stats.Histogram.add h (float_of_int (Time.to_ns rtt_sample) /. 1e3)
    | None -> ()
  end;
  (match t.recovery with
   | Fast_recovery ->
     if a >= t.recover_point then begin
       t.recovery <- Normal;
       t.win.Cong.cwnd <- Float.max t.win.Cong.ssthresh (float_of_int (mss t));
       t.dup_acks <- 0
     end
     else if t.params.Tcp_params.sack then retransmit_next_hole t
     else
       (* NewReno partial ACK: retransmit the next hole. The window
          stays at ssthresh + 3 MSS for the whole recovery (no
          inflation/deflation pair): under heavy loss the classic
          inflating variant degenerates into permanent 1-in-1-out
          conservation that pins the bottleneck queue full; holding
          the window lets the pipe drain and recovery terminate. *)
       retransmit_front t
   | Rto_recovery ->
     t.cc.Cong.on_ack ~acked:newly ~ece;
     if a >= t.recover_point then begin
       t.recovery <- Normal;
       t.dup_acks <- 0
     end
     else retransmit_front t
   | Normal ->
     t.dup_acks <- 0;
     t.cc.Cong.on_ack ~acked:newly ~ece);
  if flight t = 0 then cancel_rto t else arm_rto t;
  try_send t;
  check_all_acked t

let handle_dup_ack t =
  match t.recovery with
  | Fast_recovery when t.params.Tcp_params.sack ->
    (* SACK information identifies further holes: repair them and keep
       the pipe full under the cwnd + sacked allowance. *)
    retransmit_next_hole t;
    try_send t
  | Fast_recovery ->
    (* No window inflation (see the partial-ACK comment); new data
       flows again once enough of the pre-loss flight has drained. *)
    ()
  | Rto_recovery -> ()
  | Normal ->
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks >= t.dupack_threshold () then enter_fast_recovery t
    else try_send t

let handle t pkt =
  if Packet.syn pkt && Packet.ack pkt then begin
    (* SYN-ACK: establish (duplicates ignored). *)
    match t.state with
    | Syn_sent ->
      t.state <- Established;
      t.backoff <- 0;
      cancel_rto t;
      Sim_obs.Flow_ledger.on_handshake t.ledger ~conn:t.conn;
      t.on_established ();
      try_send t;
      (* A zero-length flow completes immediately. *)
      check_all_acked t
    | Closed | Established | Failed -> ()
  end
  else if Packet.ack pkt && t.state = Established then begin
    t.st.acks_received <- t.st.acks_received + 1;
    if Packet.dup_seen pkt then begin
      t.st.dsacks_received <- t.st.dsacks_received + 1;
      t.on_dsack ()
    end;
    process_sack t pkt;
    let a = pkt.Packet.ack_seq in
    if a > t.snd_una then handle_new_ack t a ~ece:(Packet.ece pkt)
    else if a = t.snd_una && flight t > 0 then handle_dup_ack t
  end

let state t = t.state
let cwnd t = t.win.Cong.cwnd
let ssthresh t = t.win.Cong.ssthresh
let snd_una t = t.snd_una
let snd_nxt t = t.snd_nxt
let in_recovery t = t.recovery <> Normal
let srtt t = Rtt_estimator.srtt t.rtt
let rto t = current_rto t
let stats t = t.st
