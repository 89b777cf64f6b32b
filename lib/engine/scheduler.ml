(* Discrete-event scheduler: one 4-ary min-heap of (time, seq, slot)
   int triples over a per-scheduler slot table of entries, with lazy
   timer re-arm. See DESIGN.md §4e.

   Every arm consumes one seq from a single monotone counter and gives
   the entry its true key (time, seq). The heap holds *cells*: each
   pending entry has exactly one current cell, keyed at or before its
   true key. A re-arm to a time at or after the current cell's time
   only rewrites the entry; when that cell pops, the entry is pushed
   again at its true key. A re-arm to an earlier time pushes a new
   cell and leaves the old one behind as a stale cell. Every entry
   therefore fires at exactly its own key, in exact (time, seq) order,
   and a cell can never pop after its entry's true key.

   A cell is recognised at pop by its seq: a cell whose seq is not its
   entry's [cell_seq] is superseded, and the current cell of an entry
   that is no longer pending was cancelled. Both are stale; they are
   dropped at pop, or filtered out by compaction once they dominate. *)

(* What to do when the entry fires: a fire function paired with the
   state it runs on. Packing the pair behind one existential keeps the
   entry monomorphic while letting a re-armable timer or a pooled
   event cell install a *static* fire function once and never allocate
   per arm. *)
type erun = Run : ('a -> unit) * 'a -> erun

type entry = {
  mutable time : int;       (* true key: due time, ns *)
  mutable seq : int;        (* true key: seq consumed by the last arm *)
  mutable cell_time : int;  (* key of the current cell, valid when ... *)
  mutable cell_seq : int;   (* ... this is >= 0 *)
  mutable pending : bool;
  mutable run : erun;
}

let noop_run = Run (ignore, ())

let make_entry run =
  { time = 0; seq = 0; cell_time = 0; cell_seq = -1; pending = false; run }

type t = {
  heap : Event_heap.t;
  (* Slot table: heap cell -> entry. A slot is written once at push and
     cleared (to [nil]) and freed at pop or compaction, so a fired or
     cancelled entry is never pinned beyond its last cell. *)
  mutable slots : entry array;
  mutable free : int array;  (* free slot stack, [free_count] deep *)
  mutable free_count : int;
  mutable used : int;        (* slots ever handed out; the rest are fresh *)
  nil : entry;
  keep : time:int -> seq:int -> int -> bool;  (* compaction filter *)
  mutable now : Sim_time.t;
  mutable next_seq : int;
  mutable processed : int;
  mutable stale : int;       (* heap cells that will not fire as keyed *)
  (* Event-cell pool accounting across every {!Event.pool} of this
     scheduler, exposed to the Probe's self-profiling gauges. *)
  mutable cells_allocated : int;
  mutable cells_free : int;
  ctx : Sim_ctx.t;
}

let now t = t.now
let ctx t = t.ctx

let alloc_slot t e =
  let s =
    if t.free_count > 0 then begin
      t.free_count <- t.free_count - 1;
      t.free.(t.free_count)
    end
    else begin
      if t.used = Array.length t.slots then begin
        (* The free stack is empty here, so it is simply re-made. *)
        let cap = max 64 (2 * t.used) in
        let slots = Array.make cap t.nil in
        Array.blit t.slots 0 slots 0 t.used;
        t.slots <- slots;
        t.free <- Array.make cap 0
      end;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.slots.(s) <- e;
  s

let free_slot t s =
  t.slots.(s) <- t.nil;
  t.free.(t.free_count) <- s;
  t.free_count <- t.free_count + 1

(* Compaction keeps exactly the current cells of pending entries and
   frees every other cell's slot; an entry whose cancelled cell goes
   loses its [cell_seq]. *)
let keep_cell t ~time:_ ~seq s =
  let e = t.slots.(s) in
  if seq = e.cell_seq && e.pending then true
  else begin
    if seq = e.cell_seq then e.cell_seq <- -1;
    free_slot t s;
    false
  end

let create () =
  let nil = make_entry noop_run in
  (* The filter is built once here, so compaction allocates nothing. *)
  let rec t =
    {
      heap = Event_heap.create ();
      slots = [||];
      free = [||];
      free_count = 0;
      used = 0;
      nil;
      keep = (fun ~time ~seq s -> keep_cell t ~time ~seq s);
      now = Sim_time.zero;
      next_seq = 0;
      processed = 0;
      stale = 0;
      cells_allocated = 0;
      cells_free = 0;
      ctx = Sim_ctx.create ();
    }
  in
  t

(* Compact once stale cells dominate: O(n) filter+heapify, amortised
   against the >= n/2 pops the stale cells would otherwise cost, keyed
   only on exact (time, seq) so drain order is unchanged. *)
let maybe_compact t =
  if t.stale > 64 && t.stale * 2 > Event_heap.length t.heap then begin
    Event_heap.compact t.heap ~keep:t.keep;
    t.stale <- 0
  end

(* Arm [e] at [time], consuming exactly one seq. *)
let arm t e time =
  let time = Sim_time.to_ns time in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if e.cell_seq >= 0 && e.cell_time <= time then begin
    (* Lazy re-arm: the current cell pops no later than the new key and
       re-pushes the entry then. A cancelled cell comes back to life. *)
    if not e.pending then t.stale <- t.stale - 1;
    e.time <- time;
    e.seq <- seq;
    e.pending <- true
  end
  else begin
    (* A pending entry's current cell is superseded and becomes stale;
       a cancelled one's was counted stale already. *)
    let superseded = e.cell_seq >= 0 && e.pending in
    e.time <- time;
    e.seq <- seq;
    e.cell_time <- time;
    e.cell_seq <- seq;
    e.pending <- true;
    Event_heap.push t.heap ~time ~seq (alloc_slot t e);
    if superseded then begin
      t.stale <- t.stale + 1;
      maybe_compact t
    end
  end

(* Disarm [e]; its current cell stays queued as a stale cell (and comes
   back to life if [e] is re-armed at or after it). Keeps the fire/state
   pair so a re-armable timer can reuse it. *)
let detach t e =
  if e.pending then begin
    e.pending <- false;
    t.stale <- t.stale + 1;
    maybe_compact t
  end

let cancelled_pending t = t.stale

let run ?until ?max_events t =
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let horizon = match until with Some u -> Sim_time.to_ns u | None -> max_int in
  let heap = t.heap in
  let continue = ref true in
  while !continue && !budget > 0 do
    let time = Event_heap.top_time heap in
    if time = max_int || time > horizon then
      (* Empty (max_int sentinel) or next cell beyond the horizon. *)
      continue := false
    else begin
      let seq = Event_heap.top_seq heap in
      let s = Event_heap.top_value heap in
      let e = t.slots.(s) in
      if seq = e.cell_seq && e.pending && seq <> e.seq then begin
        (* Lazily re-armed: queue the entry at its true key, in place.
           Costs neither budget nor clock. *)
        Event_heap.replace_top heap ~time:e.time ~seq:e.seq s;
        e.cell_time <- e.time;
        e.cell_seq <- e.seq
      end
      else begin
        Event_heap.drop heap;
        free_slot t s;
        if seq <> e.cell_seq then
          (* Superseded by a re-arm to an earlier time. *)
          t.stale <- t.stale - 1
        else begin
          e.cell_seq <- -1;
          if e.pending then begin
            t.now <- Sim_time.of_ns time;
            e.pending <- false;
            t.processed <- t.processed + 1;
            decr budget;
            let (Run (fire, state)) = e.run in
            fire state
          end
          else (* Cancelled. *)
            t.stale <- t.stale - 1
        end
      end
    end
  done;
  (* When the queue drained (or only holds events beyond the horizon)
     advance the clock to the horizon, so repeated bounded runs make
     progress. A stop caused by [max_events] leaves the clock alone. *)
  if !budget > 0 then
    match until with
    | Some u when Sim_time.(u > t.now) -> t.now <- u
    | Some _ | None -> ()

(* Every pending entry owns exactly one non-stale cell. The armed
   Event cells are the pool cells off their freelists; the rest of the
   pending entries are Timers. *)
let pending_events t = Event_heap.length t.heap - t.stale
let heap_pending t = t.cells_allocated - t.cells_free
let wheel_pending t = pending_events t - heap_pending t
let events_processed t = t.processed
let event_cells_allocated t = t.cells_allocated
let event_cells_free t = t.cells_free

module Timer = struct
  type sched = t

  type t = { sched : sched; entry : entry }

  let create sched fire state = { sched; entry = make_entry (Run (fire, state)) }
  let is_pending tm = tm.entry.pending

  (* Keeps the fire/state pair: that is the point of the abstraction —
     one entry, one pair, reused across every re-arm of an RTO or
     delayed-ACK timer. *)
  let cancel tm = detach tm.sched tm.entry

  (* The time check comes first: a rejected re-arm leaves any pending
     occurrence in place. *)
  let schedule_at tm time =
    if Sim_time.(time < tm.sched.now) then
      invalid_arg "Scheduler.Timer.schedule_at: time is in the past";
    arm tm.sched tm.entry time

  let schedule_after tm delay = schedule_at tm (Sim_time.add tm.sched.now delay)
end

module Event = struct
  type sched = t

  (* A pool of one-shot typed event cells sharing one fire function.
     Each cell owns its scheduler entry and a payload slot; the entry's
     [run] points back at the cell, so the steady-state path —
     acquire, fill payload, arm — allocates nothing. Cells return to
     the pool's freelist the moment they fire or are cancelled.

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
    c_entry : entry;
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
        { c_entry = make_entry noop_run; c_payload = v; c_gen = 1; c_pool = p }
      in
      c.c_entry.run <- Run (fire_cell, c);
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

  let is_pending c = c.c_entry.pending

  let cancel p c =
    if Sanitizer_mode.on && c.c_gen land 1 = 0 then
      invalid_arg
        "Scheduler.Event.cancel: cell is not armed (already fired or \
         cancelled — stale cell handle)";
    if c.c_entry.pending then begin
      detach p.p_sched c.c_entry;
      let v = c.c_payload in
      release p c;
      Some v
    end
    else None
end
