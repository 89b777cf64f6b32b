type stats = {
  mutable enqueued : int;
  mutable dropped : int;
  mutable marked : int;
  mutable bytes_enqueued : int;
  mutable max_backlog : int;
}

type red = {
  min_th : int;
  max_th : int;
  max_p : float;
  weight : float;
  mark : bool;
}

let default_red = { min_th = 5; max_th = 15; max_p = 0.1; weight = 0.002; mark = false }

(* The FIFO is a fixed ring of [cap] slots: [len] packets starting at
   [head], wrapping. A packet costs no allocation on the way in or out
   (a stdlib [Queue] cell per packet plus an option per dequeue was
   10% of a packet run's words). The ring is allocated on the first
   enqueue, filled with that packet, so the thousands of queues a
   topology build creates allocate nothing until traffic reaches them.
   Slots outside [head, head + len) keep stale pointers to packets the
   queue has handed on, exactly as freed Event pool slots keep stale
   cells: the pool owns those records for the simulation's lifetime,
   so the ring pins nothing that was not pinned already, and no slot
   outside the live window is ever read. *)
type t = {
  mutable ring : Packet.t array;  (* [||] until the first enqueue, then [cap] slots *)
  mutable head : int;
  mutable len : int;
  ctx : Sim_engine.Sim_ctx.t;
  cap : int;
  ecn_threshold : int option;
  red : red option;
  red_rng : Sim_engine.Rng.t;
  mutable red_avg : float;
  lay : Layer.t;
  qname : string;
  mutable backlog_bytes : int;
  (* Installation order; every hook sees every dropped packet. *)
  mutable drop_hooks : (Packet.t -> unit) list;
  st : stats;
  m : Sim_obs.Metrics.t option;  (* [Some] only when the registry is on *)
}

let create ?ecn_threshold ?red ~ctx ~capacity ~layer () =
  if capacity <= 0 then invalid_arg "Pktqueue.create: capacity must be positive";
  (match red with
   | Some r ->
     if r.min_th < 0 || r.max_th <= r.min_th then
       invalid_arg "Pktqueue.create: bad RED thresholds";
     if r.max_p < 0. || r.max_p > 1. then
       invalid_arg "Pktqueue.create: bad RED max_p"
   | None -> ());
  (* Deterministic per-queue RED randomness: construction order within
     the simulation seeds. *)
  let queue_id = Sim_engine.Sim_ctx.fresh_queue_id ctx in
  let metrics = Sim_engine.Sim_ctx.metrics ctx in
  let qname = Printf.sprintf "q%d.%s" queue_id (Layer.to_string layer) in
  let t =
    {
      ring = [||];
      head = 0;
      len = 0;
      ctx;
      cap = capacity;
      ecn_threshold = (if red = None then ecn_threshold else None);
      red;
      red_rng = Sim_engine.Rng.create ~seed:(0xEED + queue_id);
      red_avg = 0.;
      lay = layer;
      qname;
      backlog_bytes = 0;
      drop_hooks = [];
      st = { enqueued = 0; dropped = 0; marked = 0; bytes_enqueued = 0; max_backlog = 0 };
      m = (if Sim_obs.Metrics.active metrics then Some metrics else None);
    }
  in
  (match t.m with
   | Some m ->
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"pktqueue" ~id:qname ~name ~units
         read
     in
     reg "depth_pkts" "pkts" (fun () -> float_of_int t.len);
     reg "depth_bytes" "bytes" (fun () -> float_of_int t.backlog_bytes);
     reg "drops" "pkts" (fun () -> float_of_int t.st.dropped);
     reg "ecn_marks" "pkts" (fun () -> float_of_int t.st.marked)
   | None -> ());
  t

let add_drop_hook t hook = t.drop_hooks <- t.drop_hooks @ [ hook ]

let red_average t = t.red_avg

(* RED early-drop decision for an arriving packet. Returns [`Accept],
   [`Mark] or [`Drop]. *)
let red_verdict t r =
  t.red_avg <-
    ((1. -. r.weight) *. t.red_avg)
    +. (r.weight *. float_of_int t.len);
  if t.red_avg < float_of_int r.min_th then `Accept
  else if t.red_avg >= float_of_int r.max_th then
    if r.mark then `Mark else `Drop
  else begin
    let p =
      r.max_p
      *. (t.red_avg -. float_of_int r.min_th)
      /. float_of_int (r.max_th - r.min_th)
    in
    if Sim_engine.Rng.float t.red_rng 1.0 < p then
      if r.mark then `Mark else `Drop
    else `Accept
  end

let backlog_pkts t = t.len
let backlog_bytes t = t.backlog_bytes
let is_empty t = t.len = 0
let capacity t = t.cap
let layer t = t.lay
let stats t = t.st

let enqueue t pkt =
  let red_decision =
    match t.red with Some r -> red_verdict t r | None -> `Accept
  in
  if t.len >= t.cap || red_decision = `Drop then begin
    t.st.dropped <- t.st.dropped + 1;
    (match t.m with
     | Some m ->
       Sim_obs.Metrics.emit m ~kind:"queue_drop"
         ~conn:pkt.Packet.conn
         ~subflow:pkt.Packet.subflow
         ~info:
           [ ("queue", t.qname); ("size", string_of_int pkt.Packet.size) ]
         ()
     | None -> ());
    List.iter (fun f -> f pkt) t.drop_hooks;
    (* A drop ends the packet's life; hooks have all seen it. The
       order is a contract (pktqueue.mli): free strictly after the
       last hook, so hooks read a live packet but must copy to
       retain. *)
    Packet.free ~ctx:t.ctx pkt;
    false
  end
  else begin
    if red_decision = `Mark then begin
      pkt.Packet.ce <- true;
      t.st.marked <- t.st.marked + 1
    end;
    (match t.ecn_threshold with
     | Some k when t.len >= k ->
       pkt.Packet.ce <- true;
       t.st.marked <- t.st.marked + 1
     | Some _ | None -> ());
    if Array.length t.ring = 0 then t.ring <- Array.make t.cap pkt;
    let tail = t.head + t.len in
    t.ring.(if tail >= t.cap then tail - t.cap else tail) <- pkt;
    t.len <- t.len + 1;
    t.backlog_bytes <- t.backlog_bytes + pkt.Packet.size;
    t.st.enqueued <- t.st.enqueued + 1;
    t.st.bytes_enqueued <- t.st.bytes_enqueued + pkt.Packet.size;
    if t.len > t.st.max_backlog then t.st.max_backlog <- t.len;
    true
  end

let take t =
  if t.len = 0 then invalid_arg "Pktqueue.take: empty queue";
  let pkt = t.ring.(t.head) in
  t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
  t.len <- t.len - 1;
  t.backlog_bytes <- t.backlog_bytes - pkt.Packet.size;
  pkt
