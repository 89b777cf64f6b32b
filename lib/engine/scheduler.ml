(* Discrete-event scheduler: binary heap for the near-future event
   stream, hierarchical timing wheel for the far-future timer
   population. See DESIGN.md §4e.

   Every armed event carries a unique (time, seq) key; seq is a single
   monotone counter consumed once per arm. The wheel never fires
   anything itself: [run] drains due wheel slots into the heap, and the
   heap restores exact (time, seq) order, so the observable firing
   order is identical to a heap-only scheduler. *)

type t = {
  heap : Timer_wheel.entry Event_heap.t;
  wheel : Timer_wheel.t;
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable processed : int;
  mutable tombstones : int;  (* cancelled cells still buried in the heap *)
  (* Cached Timer_wheel.next_due_ns, valid while the wheel generation
     is unchanged — the run loop consults the wheel before every pop,
     and in the common case (draining heap events between timer
     activity) the wheel has not moved. *)
  mutable wheel_due : int;
  mutable wheel_gen : int;
  (* Event-cell pool accounting across every {!Event.pool} of this
     scheduler, exposed to the Probe's self-profiling gauges. *)
  mutable cells_allocated : int;
  mutable cells_free : int;
  ctx : Sim_ctx.t;
}

let create () =
  {
    heap = Event_heap.create ();
    wheel = Timer_wheel.create ();
    now = Sim_time.zero;
    next_seq = 0;
    processed = 0;
    tombstones = 0;
    wheel_due = max_int;
    wheel_gen = -1;
    cells_allocated = 0;
    cells_free = 0;
    ctx = Sim_ctx.create ();
  }

let now t = t.now
let ctx t = t.ctx

(* Arm [e] at [time], consuming exactly one seq. Entries due within one
   level-0 wheel slot skip the wheel and go straight onto the heap. *)
let arm t (e : Timer_wheel.entry) time =
  e.time <- Sim_time.to_ns time;
  e.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if not (Timer_wheel.schedule t.wheel e) then begin
    e.state <- Timer_wheel.st_heap;
    Event_heap.push t.heap ~time:e.time ~seq:e.seq e
  end

let cancelled_pending t = t.tombstones

(* A heap cell is live iff its entry is still heap-resident under the
   same seq; anything else (cancelled, or re-armed since) is a
   tombstone. Compact once tombstones dominate: O(n) filter+heapify,
   amortised against the >= n/2 pops the tombstones would otherwise
   cost, keyed only on exact (time, seq) so drain order is unchanged. *)
let maybe_compact t =
  if t.tombstones > 64 && t.tombstones * 2 > Event_heap.length t.heap then begin
    Event_heap.compact t.heap ~keep:(fun ~time:_ ~seq e ->
        e.state = Timer_wheel.st_heap && e.seq = seq);
    t.tombstones <- 0
  end

(* Detach [e] from wherever it is pending; keeps the fire/state pair so
   a re-armable timer can reuse it. *)
let detach t (e : Timer_wheel.entry) =
  if e.state = Timer_wheel.st_wheel then Timer_wheel.cancel t.wheel e
  else if e.state = Timer_wheel.st_heap then begin
    (* The heap cell stays behind as a tombstone. *)
    e.state <- Timer_wheel.st_idle;
    t.tombstones <- t.tombstones + 1;
    maybe_compact t
  end

let is_pending (e : Timer_wheel.entry) =
  e.state = Timer_wheel.st_wheel || e.state = Timer_wheel.st_heap

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> Sim_time.to_ns u | None -> max_int in
  let emit (e : Timer_wheel.entry) =
    e.state <- Timer_wheel.st_heap;
    Event_heap.push t.heap ~time:e.time ~seq:e.seq e
  in
  let continue = ref true in
  while !continue && !budget > 0 do
    let wheel_due =
      let g = Timer_wheel.generation t.wheel in
      if g = t.wheel_gen then t.wheel_due
      else begin
        let d = Timer_wheel.next_due_ns t.wheel in
        t.wheel_gen <- g;
        t.wheel_due <- d;
        d
      end
    in
    let heap_due = Event_heap.top_time t.heap in
    if wheel_due <= heap_due && wheel_due <> max_int then
      (* Wheel slots due at or before the heap top must drain first:
         [wheel_due] is a lower bound, so a resident entry could key
         below the heap top. Draining moves them into the heap, which
         then decides the true order. *)
      if wheel_due > horizon then continue := false
      else Timer_wheel.advance t.wheel ~upto:wheel_due ~emit
    else if heap_due = max_int || heap_due > horizon then
      (* Empty (max_int sentinel) or next event beyond the horizon. *)
      continue := false
    else begin
      let e = Event_heap.top_value t.heap in
      let seq = Event_heap.top_seq t.heap in
      Event_heap.drop t.heap;
      if e.state = Timer_wheel.st_heap && e.seq = seq then begin
        t.now <- Sim_time.of_ns heap_due;
        e.state <- Timer_wheel.st_fired;
        t.processed <- t.processed + 1;
        decr budget;
        let (Timer_wheel.Run (fire, state)) = e.run in
        fire state
      end
      else
        (* Stale cell of a cancelled or re-armed event. Skipping it
           consumes neither budget nor clock. *)
        t.tombstones <- t.tombstones - 1
    end
  done;
  (* When the queue drained (or only holds events beyond the horizon)
     advance the clock to the horizon, so repeated bounded runs make
     progress. A stop caused by [max_events] leaves the clock alone. *)
  if !budget > 0 then
    match until with
    | Some u when Sim_time.(u > t.now) -> t.now <- u
    | Some _ | None -> ()

(* Live work only: heap cells net of tombstones, plus wheel residents.
   A backlog of cancelled-only cells reports zero. *)
let pending_events t =
  Event_heap.length t.heap - t.tombstones + Timer_wheel.live t.wheel

let heap_pending t = Event_heap.length t.heap - t.tombstones
let wheel_pending t = Timer_wheel.live t.wheel
let events_processed t = t.processed
let event_cells_allocated t = t.cells_allocated
let event_cells_free t = t.cells_free

module Timer = struct
  type sched = t

  type t = { sched : sched; entry : Timer_wheel.entry }

  let create sched fire state = { sched; entry = Timer_wheel.make_entry fire state }
  let is_pending tm = is_pending tm.entry

  (* Keeps the fire/state pair: that is the point of the abstraction —
     one entry, one pair, reused across every re-arm of an RTO or
     delayed-ACK timer. *)
  let cancel tm = detach tm.sched tm.entry

  let schedule_at tm time =
    cancel tm;
    if Sim_time.(time < tm.sched.now) then
      invalid_arg "Scheduler.Timer.schedule_at: time is in the past";
    arm tm.sched tm.entry time

  let schedule_after tm delay = schedule_at tm (Sim_time.add tm.sched.now delay)
end

module Event = struct
  type sched = t

  (* A pool of one-shot typed event cells sharing one fire function.
     Each cell owns its wheel/heap entry and a payload slot; the
     entry's [run] points back at the cell, so the steady-state path
     — acquire, fill payload, arm — allocates nothing. Cells return
     to the pool's freelist the moment they fire or are cancelled.

     The freelist is a plain array stack (the Packet pool's idiom);
     it starts empty and takes its first backing array from the first
     released cell, so no dummy payload value is ever needed. Freed
     slots above [free_count] keep stale cell pointers alive — cells
     are pool members for the scheduler's lifetime, so this pins no
     memory that was not already pinned.

     Cell generation parity mirrors the packet-pool sanitizer: odd
     while armed, even while pooled. [cancel] on an even-generation
     cell is a use-after-free (the event already fired, or was
     cancelled) and raises when the sanitizer is compiled in. Like
     the packet pool, ABA reuse — cancelling a stale handle after the
     cell was re-acquired for a new event — is outside the parity
     check and must be avoided by contract (DESIGN.md §4j): only the
     scheduling site may hold a cell, and only until fire/cancel. *)
  type 'a cell = {
    c_entry : Timer_wheel.entry;
    mutable c_payload : 'a;
    mutable c_gen : int;
    c_pool : 'a pool;
  }

  and 'a pool = {
    p_sched : sched;
    p_fire : 'a -> unit;
    mutable p_free : 'a cell array;
    mutable p_free_count : int;
  }

  let pool sched ~fire =
    { p_sched = sched; p_fire = fire; p_free = [||]; p_free_count = 0 }

  let release p c =
    c.c_gen <- c.c_gen + 1;  (* armed (odd) -> pooled (even) *)
    if p.p_free_count = Array.length p.p_free then begin
      let a = Array.make (max 8 (2 * p.p_free_count)) c in
      Array.blit p.p_free 0 a 0 p.p_free_count;
      p.p_free <- a
    end;
    p.p_free.(p.p_free_count) <- c;
    p.p_free_count <- p.p_free_count + 1;
    p.p_sched.cells_free <- p.p_sched.cells_free + 1

  (* Static fire function shared by every cell: read the payload out,
     return the cell to the pool, then run the pool's handler. The
     release happens first so the handler may itself schedule into the
     same pool and reuse this very cell. *)
  let fire_cell c =
    let p = c.c_pool in
    let v = c.c_payload in
    release p c;
    p.p_fire v

  let acquire p v =
    if p.p_free_count > 0 then begin
      p.p_free_count <- p.p_free_count - 1;
      let c = p.p_free.(p.p_free_count) in
      p.p_sched.cells_free <- p.p_sched.cells_free - 1;
      c.c_gen <- c.c_gen + 1;  (* pooled (even) -> armed (odd) *)
      c.c_payload <- v;
      c
    end
    else begin
      let c =
        { c_entry = Timer_wheel.make_entry ignore (); c_payload = v;
          c_gen = 1; c_pool = p }
      in
      c.c_entry.run <- Timer_wheel.Run (fire_cell, c);
      p.p_sched.cells_allocated <- p.p_sched.cells_allocated + 1;
      c
    end

  let schedule_at p time v =
    if Sim_time.(time < p.p_sched.now) then
      invalid_arg "Scheduler.Event.schedule_at: time is in the past";
    let c = acquire p v in
    arm p.p_sched c.c_entry time;
    c

  let schedule_after p delay v =
    schedule_at p (Sim_time.add p.p_sched.now delay) v

  let is_pending c = is_pending c.c_entry

  let cancel p c =
    if Sanitizer_mode.on && c.c_gen land 1 = 0 then
      invalid_arg
        "Scheduler.Event.cancel: cell is not armed (already fired or \
         cancelled — stale cell handle)";
    if is_pending c then begin
      detach p.p_sched c.c_entry;
      let v = c.c_payload in
      release p c;
      Some v
    end
    else None
end
