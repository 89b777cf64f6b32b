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

(* A connection's numeric state. All-float, so OCaml stores it flat
   and every update below is a plain store: a mutable float field of
   the mixed [conn] record would box on every write. *)
type fstate = {
  mutable remaining : float;  (* bytes *)
  mutable sent : float;  (* bytes, includes [done_bytes] offset *)
  mutable rate : float;  (* effective send rate, bytes/s *)
  mutable alloc_bps : float;  (* aggregate allocation, bits/s *)
  mutable last_t : float;  (* seconds of last integration *)
  mutable ss_cap : float;  (* slow-start rate cap, bytes/s *)
  mutable next_double : float;  (* absolute s; infinity when done *)
  (* Triggers of the pending phase switch; infinity when there is
     none, or once it has happened. *)
  mutable sw_bytes : float;  (* bytes *)
  mutable sw_at : float;  (* absolute s *)
}

type conn = {
  c_id : int;
  c_t : t;
  c_size : int;  (* bytes this stage transfers *)
  c_rtt : float;  (* representative RTT: min over initial legs, s *)
  c_slow_start : bool;
  c_on_complete : conn -> unit;
  c_started : Time.t;
  c_f : fstate;
  mutable c_state : state;
  mutable c_leg_specs : leg_spec array;  (* pending until Running *)
  mutable c_legs : conn Alloc.flow array;
  mutable c_switch : switch_spec option;
  mutable c_switched : bool;
  mutable c_batch : int;  (* changed legs left in the current batch *)
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

(* A refresh runs once per changed connection per allocator wave. The
   helpers it calls are [@inline] so that no float is boxed to cross a
   call (DESIGN.md §4m). The sum is a loop rather than a fold for the
   same reason; it runs from 0. in leg order. *)
let[@inline] aggregate_bps c =
  let legs = c.c_legs in
  let sum = ref 0. in
  for i = 0 to Array.length legs - 1 do
    sum := !sum +. Alloc.rate legs.(i)
  done;
  !sum

let[@inline] effective_rate f = Float.min (f.alloc_bps /. 8.) f.ss_cap

let[@inline] integrate c ~now =
  let f = c.c_f in
  if now > f.last_t then begin
    (match c.c_state with
    | Running ->
      let sent = Float.min (f.rate *. (now -. f.last_t)) f.remaining in
      f.remaining <- f.remaining -. sent;
      f.sent <- f.sent +. sent
    | Handshake | Draining | Finished -> ());
    f.last_t <- now
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
let[@inline] arm_at c time_s =
  let target =
    Time.max
      (Time.add (Time.of_sec time_s) (Time.of_ns 1))
      (Scheduler.now c.c_t.sched)
  in
  Scheduler.Timer.schedule_at (the_timer c) target

let[@inline] re_arm c ~now =
  match c.c_state with
  | Running ->
    let f = c.c_f in
    let dl = ref infinity in
    if f.rate > 0. then dl := Float.min !dl (now +. (f.remaining /. f.rate));
    dl := Float.min !dl f.next_double;
    if f.sw_bytes < infinity && f.rate > 0. && f.sent < f.sw_bytes then
      dl := Float.min !dl (now +. ((f.sw_bytes -. f.sent) /. f.rate));
    if f.sw_at < infinity then dl := Float.min !dl f.sw_at;
    if !dl < infinity then arm_at c !dl
    else Scheduler.Timer.cancel (the_timer c)
  | Handshake | Draining | Finished -> ()

let[@inline] refresh_rate c ~now =
  integrate c ~now;
  c.c_f.alloc_bps <- aggregate_bps c;
  c.c_f.rate <- effective_rate c.c_f

let add_legs c specs =
  let t = c.c_t in
  c.c_legs <-
    Array.map
      (fun s -> Alloc.add t.alloc ~weight:s.weight ~path:s.path ~data:c)
      specs

let remove_legs c ~now =
  let legs = c.c_legs in
  for i = 0 to Array.length legs - 1 do
    Alloc.remove c.c_t.alloc ~now legs.(i)
  done;
  c.c_legs <- [||]

let emit_switch c =
  let t = c.c_t in
  (* The info list would allocate before [emit]'s own guard ran. *)
  if Sim_obs.Metrics.active t.metrics then
    Sim_obs.Metrics.emit t.metrics ~kind:"phase_switch" ~conn:c.c_id
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
    c.c_f.sw_bytes <- infinity;
    c.c_f.sw_at <- infinity;
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
  c.c_f.rate <- 0.;
  (* The freed capacity reaches the survivors at the next quantum. *)
  request_flush c.c_t;
  (* Tail: the last byte is in flight for half an RTT. *)
  arm_at c (now +. (c.c_rtt /. 2.))

let step c ~now =
  integrate c ~now;
  let f = c.c_f in
  if f.remaining <= byte_tol then enter_drain c ~now
  else begin
    if f.sent +. 0.5 >= f.sw_bytes || now +. 1e-12 >= f.sw_at then
      do_switch c ~now;
    if c.c_state = Running then begin
      while now +. 1e-12 >= f.next_double do
        f.ss_cap <- f.ss_cap *. 2.;
        if f.ss_cap >= f.alloc_bps /. 8. then begin
          f.ss_cap <- infinity;
          f.next_double <- infinity
        end
        else f.next_double <- f.next_double +. c.c_rtt
      done;
      f.rate <- effective_rate f;
      re_arm c ~now
    end
  end

let go_running c =
  let t = c.c_t in
  let f = c.c_f in
  let now = now_s t in
  c.c_state <- Running;
  f.last_t <- now;
  Sim_obs.Flow_ledger.on_handshake t.ledger ~conn:c.c_id;
  add_legs c c.c_leg_specs;
  (if c.c_slow_start then begin
     f.ss_cap <- float_of_int (t.iw * t.mss) /. c.c_rtt;
     f.next_double <- now +. c.c_rtt
   end
   else begin
     f.ss_cap <- infinity;
     f.next_double <- infinity
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

(* Allocator batch callback, once per wave: each connection with a
   changed leg re-integrates at its old rate, then adopts the new
   aggregate and moves its deadline, once, at the position of its
   *last* changed leg. A refresh at each changed leg would re-arm the
   timer to the same deadline each time, and only the last arm's seq
   orders the timer among equal deadlines; refreshing there keeps
   every timer's (time, seq) order, and with it every result, the
   same (DESIGN.md §4k). The first pass counts each connection's
   changed legs; the second refreshes a connection when its count
   drops to zero. *)
let on_leg_rates legs n =
  for i = 0 to n - 1 do
    let c = Alloc.data legs.(i) in
    c.c_batch <- c.c_batch + 1
  done;
  for i = 0 to n - 1 do
    let c = Alloc.data legs.(i) in
    c.c_batch <- c.c_batch - 1;
    if c.c_batch = 0 then
      match c.c_state with
      | Running ->
        let now = now_s c.c_t in
        refresh_rate c ~now;
        re_arm c ~now
      | Handshake | Draining | Finished -> ()
  done

(* The triggers of a connection's pending switch, as [fstate] keeps
   them. *)
let switch_bytes = function
  | Some { sw_plan = { Mmptcp.Strategy.switch_after_bytes = Some v; _ }; _ } ->
    float_of_int v
  | Some _ | None -> infinity

let switch_at ~started = function
  | Some { sw_plan = { Mmptcp.Strategy.switch_after_time = Some d; _ }; _ } ->
    Time.to_sec started +. Time.to_sec d
  | Some _ | None -> infinity

let make ~sched ~cap_bps ?(params = Sim_tcp.Tcp_params.default)
    ?(flush_interval = 2e-3) () =
  let t =
    {
      sched;
      (* One relaxation wave per quantum: under churn the ripple
         re-dirties the population anyway, so extra waves per flush
         redo the same work; convergence continues next quantum. *)
      alloc = Alloc.create ~max_waves:1 ~caps:cap_bps ~on_rate:on_leg_rates ();
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
  let rtt = ref infinity in
  for i = 0 to Array.length legs - 1 do
    rtt := Float.min !rtt legs.(i).rtt_s
  done;
  let rtt = !rtt in
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
      c_f =
        {
          remaining = float_of_int size;
          sent = float_of_int done_bytes;
          rate = 0.;
          alloc_bps = 0.;
          last_t = now_s t;
          ss_cap = infinity;
          next_double = infinity;
          sw_bytes = switch_bytes switch;
          sw_at = switch_at switch ~started:(Scheduler.now t.sched);
        };
      c_state = Handshake;
      c_leg_specs = legs;
      c_legs = [||];
      c_switch = switch;
      c_switched = false;
      c_batch = 0;
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
     reg "rate_mbps" "Mb/s" (fun () -> c.c_f.rate *. 8. /. 1e6);
     reg "remaining_bytes" "bytes" (fun () -> c.c_f.remaining);
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
    int_of_float (Float.max 0. (float_of_int c.c_size -. c.c_f.remaining))

let active t = t.active
let started t = t.started
let completed t = t.completed
let switched t = t.switched
