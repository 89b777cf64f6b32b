(* Event-driven fluid transport engine.

   A connection is a small timer-driven state machine over the rate
   allocator instead of a packet exchange:

     Handshake --1 RTT--> Running --last byte sent--> Draining
                                        --RTT/2 tail--> Finished

   While Running, the connection owns one allocator flow per leg
   (subflow); the effective send rate is the aggregate allocation
   capped by a doubling slow-start window model (IW * mss / RTT,
   doubling each RTT until it reaches the allocated share — the
   regime that dominates short-flow FCT). Remaining bytes are
   integrated in closed form between rate changes, so the engine
   costs O(log(size)) timer events per flow: handshake, a few
   slow-start doublings, optional phase switch, completion, drain.

   Multipath: a connection carries several legs with allocator
   weights from {!Sim_mptcp.Lia.fluid_weights} (coupled) or unit
   weights (uncoupled). MMPTCP's two-phase shape reuses
   {!Mmptcp.Strategy.plan}: the scatter legs are swapped for the
   MPTCP legs when the byte or time trigger fires
   ([switch_on_congestion] has no fluid analogue — congestion is
   never a discrete event here — and behaves as [Never]).

   Everything hangs off [t]; per-run timers only (D001/D002 clean by
   construction). *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler

type leg_spec = { path : int array; weight : float; rtt_s : float }

type switch_spec = {
  sw_plan : Mmptcp.Strategy.switch_plan;
  sw_legs : leg_spec array;
}

type state = Handshake | Running | Draining | Finished

type conn = {
  c_id : int;
  c_t : t;
  c_size : int;  (* bytes this stage transfers *)
  c_rtt : float;  (* representative RTT: min over initial legs, s *)
  c_slow_start : bool;
  c_on_complete : conn -> unit;
  c_started : Time.t;
  mutable c_state : state;
  mutable c_leg_specs : leg_spec array;  (* pending until Running *)
  mutable c_legs : conn Alloc.flow array;
  mutable c_remaining : float;  (* bytes *)
  mutable c_done : float;  (* bytes, includes [done_bytes] offset *)
  mutable c_rate : float;  (* effective send rate, bytes/s *)
  mutable c_alloc_bps : float;  (* aggregate allocation, bits/s *)
  mutable c_last_t : float;  (* seconds of last integration *)
  mutable c_ss_cap : float;  (* slow-start rate cap, bytes/s *)
  mutable c_next_double : float;  (* absolute s; infinity when done *)
  mutable c_switch : switch_spec option;
  mutable c_switched : bool;
  mutable c_timer : Scheduler.Timer.t option;
  mutable c_completed : Time.t option;
}

and t = {
  sched : Scheduler.t;
  alloc : conn Alloc.t;
  metrics : Sim_obs.Metrics.t;  (* per-sim registry; emits are one branch when off *)
  ledger : Sim_obs.Flow_ledger.t;  (* per-sim flow ledger; same discipline *)
  mss : int;
  iw : int;
  flush_interval : float;  (* rate-rebalance quantum, seconds *)
  mutable flush_timer : Scheduler.Timer.t option;
  mutable active : int;
  mutable started : int;
  mutable completed : int;
  mutable switched : int;
}

let byte_tol = 1.0

let now_s t = Time.to_sec (Scheduler.now t.sched)

let aggregate_bps c =
  Array.fold_left (fun acc f -> acc +. Alloc.rate f) 0. c.c_legs

let effective_rate c = Float.min (c.c_alloc_bps /. 8.) c.c_ss_cap

let integrate c ~now =
  if now > c.c_last_t then begin
    (match c.c_state with
    | Running ->
      let sent = Float.min (c.c_rate *. (now -. c.c_last_t)) c.c_remaining in
      c.c_remaining <- c.c_remaining -. sent;
      c.c_done <- c.c_done +. sent
    | Handshake | Draining | Finished -> ());
    c.c_last_t <- now
  end

let the_timer c = match c.c_timer with Some tm -> tm | None -> assert false

(* Global rebalances are quantised: mutations mark the allocator
   dirty and this timer drains it every [flush_interval] of virtual
   time, so a burst of arrivals/departures pays for one ripple pass
   instead of one per event. A starting connection still gets an
   accurate initial rate from the local [Alloc.settle] pass; the
   quantum only delays redistribution among the incumbents, an error
   below the one-RTT adaptation lag the packet model has anyway. *)
let request_flush t =
  let tm = match t.flush_timer with Some tm -> tm | None -> assert false in
  if not (Scheduler.Timer.is_pending tm) then
    Scheduler.Timer.schedule_after tm (Time.of_sec t.flush_interval)

let on_flush_timer t =
  let dirty = Alloc.pending_dirty t.alloc in
  Alloc.flush t.alloc ~now:(now_s t);
  if dirty > 0 && Sim_obs.Metrics.active t.metrics then
    Sim_obs.Metrics.emit t.metrics ~kind:"fluid_rebalance"
      ~info:
        [
          ("dirty", string_of_int dirty);
          ("carried", string_of_int (Alloc.pending_dirty t.alloc));
        ]
      ();
  if Alloc.pending_dirty t.alloc > 0 then request_flush t

(* Arm the connection's timer at an absolute float-second deadline
   (clamped to now; +1 ns absorbs of_sec truncation so the fire lands
   at-or-after the analytic instant). *)
let arm_at c time_s =
  let target =
    Time.max
      (Time.add (Time.of_sec time_s) (Time.of_ns 1))
      (Scheduler.now c.c_t.sched)
  in
  Scheduler.Timer.schedule_at (the_timer c) target

let switch_bytes_trigger c =
  if c.c_switched then None
  else
    match c.c_switch with
    | Some { sw_plan = { Mmptcp.Strategy.switch_after_bytes = Some v; _ }; _ }
      ->
      Some (float_of_int v)
    | Some _ | None -> None

let switch_time_trigger c =
  if c.c_switched then None
  else
    match c.c_switch with
    | Some { sw_plan = { Mmptcp.Strategy.switch_after_time = Some d; _ }; _ } ->
      Some (Time.to_sec c.c_started +. Time.to_sec d)
    | Some _ | None -> None

let re_arm c ~now =
  match c.c_state with
  | Running ->
    let dl = ref infinity in
    if c.c_rate > 0. then
      dl := Float.min !dl (now +. (c.c_remaining /. c.c_rate));
    dl := Float.min !dl c.c_next_double;
    (match switch_bytes_trigger c with
    | Some v when c.c_rate > 0. && c.c_done < v ->
      dl := Float.min !dl (now +. ((v -. c.c_done) /. c.c_rate))
    | Some _ | None -> ());
    (match switch_time_trigger c with
    | Some at -> dl := Float.min !dl at
    | None -> ());
    if !dl < infinity then arm_at c !dl
    else Scheduler.Timer.cancel (the_timer c)
  | Handshake | Draining | Finished -> ()

let refresh_rate c ~now =
  integrate c ~now;
  c.c_alloc_bps <- aggregate_bps c;
  c.c_rate <- effective_rate c

let add_legs c specs =
  let t = c.c_t in
  c.c_legs <-
    Array.map
      (fun s -> Alloc.add t.alloc ~weight:s.weight ~path:s.path ~data:c)
      specs

let remove_legs c ~now =
  let t = c.c_t in
  Array.iter (fun f -> Alloc.remove t.alloc ~now f) c.c_legs;
  c.c_legs <- [||]

let emit_switch c =
  let t = c.c_t in
  Sim_obs.Metrics.emit
    (Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched))
    ~kind:"phase_switch" ~conn:c.c_id
    ~info:
      [
        ("to", "multipath");
        ("model", "fluid");
        ("subflows", string_of_int (Array.length c.c_legs));
      ]
    ()

let do_switch c ~now =
  match c.c_switch with
  | None -> ()
  | Some { sw_legs; _ } ->
    c.c_switched <- true;
    c.c_switch <- None;
    c.c_t.switched <- c.c_t.switched + 1;
    Sim_obs.Flow_ledger.on_phase_switch c.c_t.ledger ~conn:c.c_id;
    remove_legs c ~now;
    c.c_leg_specs <- sw_legs;
    add_legs c sw_legs;
    emit_switch c;
    Alloc.settle c.c_t.alloc ~now c.c_legs;
    request_flush c.c_t;
    refresh_rate c ~now

let complete c =
  let t = c.c_t in
  c.c_state <- Finished;
  c.c_completed <- Some (Scheduler.now t.sched);
  Scheduler.Timer.cancel (the_timer c);
  t.active <- t.active - 1;
  t.completed <- t.completed + 1;
  Sim_obs.Flow_ledger.on_complete t.ledger ~conn:c.c_id;
  c.c_on_complete c

let enter_drain c ~now =
  remove_legs c ~now;
  c.c_state <- Draining;
  c.c_rate <- 0.;
  (* The freed capacity reaches the survivors at the next quantum. *)
  request_flush c.c_t;
  (* Tail: the last byte is in flight for half an RTT. *)
  arm_at c (now +. (c.c_rtt /. 2.))

let step c ~now =
  integrate c ~now;
  if c.c_remaining <= byte_tol then enter_drain c ~now
  else begin
    (match (switch_bytes_trigger c, switch_time_trigger c) with
    | Some v, _ when c.c_done +. 0.5 >= v -> do_switch c ~now
    | _, Some at when now +. 1e-12 >= at -> do_switch c ~now
    | _ -> ());
    if c.c_state = Running then begin
      while now +. 1e-12 >= c.c_next_double do
        c.c_ss_cap <- c.c_ss_cap *. 2.;
        if c.c_ss_cap >= c.c_alloc_bps /. 8. then begin
          c.c_ss_cap <- infinity;
          c.c_next_double <- infinity
        end
        else c.c_next_double <- c.c_next_double +. c.c_rtt
      done;
      c.c_rate <- effective_rate c;
      re_arm c ~now
    end
  end

let go_running c =
  let t = c.c_t in
  let now = now_s t in
  c.c_state <- Running;
  c.c_last_t <- now;
  Sim_obs.Flow_ledger.on_handshake t.ledger ~conn:c.c_id;
  add_legs c c.c_leg_specs;
  (if c.c_slow_start then begin
     c.c_ss_cap <- float_of_int (t.iw * t.mss) /. c.c_rtt;
     c.c_next_double <- now +. c.c_rtt
   end
   else begin
     c.c_ss_cap <- infinity;
     c.c_next_double <- infinity
   end);
  Alloc.settle t.alloc ~now c.c_legs;
  (* The info list would allocate before [emit]'s own guard ran. *)
  if Sim_obs.Metrics.active t.metrics then
    Sim_obs.Metrics.emit t.metrics ~kind:"fluid_settle" ~conn:c.c_id
      ~info:[ ("legs", string_of_int (Array.length c.c_legs)) ]
      ();
  request_flush t;
  refresh_rate c ~now;
  step c ~now

let on_timer c =
  let now = now_s c.c_t in
  match c.c_state with
  | Handshake -> go_running c
  | Running ->
    refresh_rate c ~now;
    step c ~now
  | Draining -> complete c
  | Finished -> ()

(* Allocator rate-change callback: re-integrate at the old rate, then
   adopt the new aggregate and move the deadlines. *)
let on_leg_rate flow =
  let c = Alloc.data flow in
  match c.c_state with
  | Running ->
    let now = now_s c.c_t in
    refresh_rate c ~now;
    re_arm c ~now
  | Handshake | Draining | Finished -> ()

let make ~sched ~cap_bps ?(params = Sim_tcp.Tcp_params.default)
    ?(flush_interval = 2e-3) () =
  let t =
    {
      sched;
      (* One relaxation wave per quantum: under churn the ripple
         re-dirties the population anyway, so extra waves per flush
         redo the same work; convergence continues next quantum. *)
      alloc = Alloc.create ~max_waves:1 ~caps:cap_bps ~on_rate:on_leg_rate ();
      metrics = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched);
      ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched);
      mss = params.Sim_tcp.Tcp_params.mss;
      iw = params.Sim_tcp.Tcp_params.initial_window;
      flush_interval;
      flush_timer = None;
      active = 0;
      started = 0;
      completed = 0;
      switched = 0;
    }
  in
  t.flush_timer <- Some (Scheduler.Timer.create sched on_flush_timer t);
  let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx sched) in
  (if Sim_obs.Metrics.active m then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"fluid" ~id:"engine" ~name ~units
         read
     in
     reg "active_conns" "conns" (fun () -> float_of_int t.active);
     reg "conns_completed" "conns" (fun () -> float_of_int t.completed);
     reg "phase_switches" "conns" (fun () -> float_of_int t.switched);
     reg "rebalance_pending" "flows" (fun () ->
         float_of_int (Alloc.pending_dirty t.alloc));
     (* Allocator work counters: how hard the incremental max-min
        machinery is running (see Alloc's self-profiling section). *)
     reg "alloc_live_flows" "flows" (fun () ->
         float_of_int (Alloc.live_flows t.alloc));
     reg "alloc_flushes" "flushes" (fun () ->
         float_of_int (Alloc.flushes_run t.alloc));
     reg "alloc_waves" "waves" (fun () ->
         float_of_int (Alloc.waves_run t.alloc));
     reg "alloc_settles" "settles" (fun () ->
         float_of_int (Alloc.settles_run t.alloc));
     reg "alloc_heap_pops" "pops" (fun () ->
         float_of_int (Alloc.heap_pops t.alloc))
   end);
  t

let start t ?(done_bytes = 0) ?(slow_start = true) ?(handshake = true) ?switch
    ~legs ~size ~on_complete () =
  if Array.length legs = 0 then invalid_arg "Engine.start: no legs";
  let rtt =
    Array.fold_left (fun acc s -> Float.min acc s.rtt_s) infinity legs
  in
  if not (rtt > 0. && rtt < 1e3) then
    invalid_arg "Engine.start: leg rtt out of range";
  let conn_id = Sim_tcp.Conn_id.fresh (Scheduler.ctx t.sched) in
  let c =
    {
      c_id = conn_id;
      c_t = t;
      c_size = size;
      c_rtt = rtt;
      c_slow_start = slow_start;
      c_on_complete = on_complete;
      c_started = Scheduler.now t.sched;
      c_state = Handshake;
      c_leg_specs = legs;
      c_legs = [||];
      c_remaining = float_of_int size;
      c_done = float_of_int done_bytes;
      c_rate = 0.;
      c_alloc_bps = 0.;
      c_last_t = now_s t;
      c_ss_cap = infinity;
      c_next_double = infinity;
      c_switch = switch;
      c_switched = false;
      c_timer = None;
      c_completed = None;
    }
  in
  c.c_timer <- Some (Scheduler.Timer.create t.sched on_timer c);
  t.active <- t.active + 1;
  t.started <- t.started + 1;
  (let m = Sim_engine.Sim_ctx.metrics (Scheduler.ctx t.sched) in
   if Sim_obs.Metrics.want_conn m conn_id then begin
     let reg name units read =
       Sim_obs.Metrics.register m ~component:"fluid"
         ~id:(Printf.sprintf "c%d" conn_id)
         ~name ~units read
     in
     reg "rate_mbps" "Mb/s" (fun () -> c.c_rate *. 8. /. 1e6);
     reg "remaining_bytes" "bytes" (fun () -> c.c_remaining);
     reg "legs" "legs" (fun () -> float_of_int (Array.length c.c_legs))
   end);
  (* Legs join the allocator only at [go_running]; registering them
     during the handshake would let it consume bandwidth. *)
  if handshake then arm_at c (now_s t +. rtt) else go_running c;
  c

let flush t = Alloc.flush t.alloc ~now:(now_s t)
let set_link_avail t ~link bps = Alloc.set_avail t.alloc ~link bps
let link_alloc_bps t ~link = Alloc.link_alloc t.alloc ~link
let finalize t = Alloc.finalize t.alloc ~now:(now_s t)
let link_utilisation t ~link = Alloc.link_utilisation t.alloc ~link ~now:(now_s t)

let conn_id c = c.c_id
let conn_size c = c.c_size
let conn_started c = c.c_started
let conn_completed c = c.c_completed
let conn_is_complete c = c.c_state = Finished
let conn_switched c = c.c_switched

let conn_fct c =
  match c.c_completed with
  | None -> None
  | Some at -> Some (Time.diff at c.c_started)

(* A conn drains once at most [byte_tol] bytes remain, so a finished
   conn's float residue must not truncate its count below [c_size]. *)
let conn_bytes c =
  match c.c_state with
  | Finished -> c.c_size
  | Handshake | Running | Draining ->
    int_of_float (Float.max 0. (float_of_int c.c_size -. c.c_remaining))

let active t = t.active
let started t = t.started
let completed t = t.completed
let switched t = t.switched
