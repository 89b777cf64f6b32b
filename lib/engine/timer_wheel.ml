(* Hierarchical timing wheel (Varghese & Lauck), specialised for the
   scheduler's timer population: TCP retransmission and delayed-ACK
   timers that are armed far in the future and almost always cancelled
   or re-armed before they fire.

   Seven levels of 32 slots each; a level-[l] slot spans
   [2^(10 + 5l)] ns, so level 0 resolves ~1 us and the whole wheel
   covers ~9.8 hours (times beyond that are clamped to the farthest
   top-level slot and re-dispatched when the cursor gets there). The
   level-0 slot doubles as the admission cutoff: anything due sooner
   is refused by [schedule] and belongs on the caller's heap. A 1 us
   cutoff deliberately routes ordinary packet events (link transit)
   through the wheel too — measured on the fig1a suite, keeping the
   binary heap down to the handful of events inside the current
   microsecond beats sparing mid-range events the wheel's
   insert-then-emit double handling.

   Schedule, cancel and re-arm are O(1): entries are intrusive nodes
   in per-slot doubly-linked lists, and a per-level occupancy bitmap
   (32 slots = 32 bits, comfortably inside OCaml's 63-bit int) makes
   finding the next non-empty slot a handful of bit operations. Times
   are native-int nanoseconds ({!Sim_time}'s representation), so all
   of this is unboxed word arithmetic.

   The wheel does NOT order events within a slot. Exactness comes from
   the handoff contract: [advance] emits every entry whose slot starts
   at or before [upto], and the caller re-keys emitted entries by
   their exact [(time, seq)] in its binary heap. Emitting an entry
   early is therefore always safe (the heap re-orders it); the
   invariants below guarantee an entry is never emitted late:

   - [cursor] only moves forward, and only to slot starts <= the
     earliest pending event time;
   - an entry inserted at level [l] satisfies
     [time - cursor < 32 * width_l], so its slot index cannot wrap
     past a second occurrence before the cursor reaches it;
   - cascading re-inserts strictly below the drained level, so each
     entry descends at most [levels] times. *)

(* What to do when the entry fires: a fire function paired with the
   state it runs on. Packing the pair behind one existential keeps the
   entry monomorphic (the heap and the slot lists need that) while
   letting a re-armable timer or a pooled event cell install a
   *static* fire function once and never allocate per arm. *)
type erun = Run : ('a -> unit) * 'a -> erun

type entry = {
  mutable time : int;    (* absolute ns; exact, not slot-rounded *)
  mutable seq : int;     (* scheduler insertion counter at last arm *)
  mutable run : erun;
  mutable state : int;   (* see st_* below *)
  mutable next : entry;  (* intrusive slot list; self-linked when free *)
  mutable prev : entry;
  mutable slot : int;    (* flat slot index while in the wheel, -1 otherwise *)
}

(* States live here (not in Scheduler) so that cancel/advance can
   maintain them without a dependency cycle. *)
let st_idle = 0  (* not scheduled: never armed, cancelled, or a popped tombstone *)
let st_wheel = 1 (* linked into a wheel slot *)
let st_heap = 2  (* handed off to the scheduler's heap *)
let st_fired = 3

let noop_run = Run (ignore, ())

let make_entry fire state =
  let rec e =
    { time = 0; seq = 0; run = Run (fire, state); state = st_idle; next = e;
      prev = e; slot = -1 }
  in
  e

let bits = 5
let slots_per_level = 32
let slot_mask = slots_per_level - 1
let bitmap_mask = (1 lsl slots_per_level) - 1
let shift0 = 10 (* level-0 slot width: 1024 ns *)
let levels = 7

type t = {
  heads : entry array;    (* levels * slots_per_level sentinel nodes *)
  occupied : int array;   (* per-level bitmap of non-empty slots; exact *)
  mutable cursor : int;   (* every slot starting at or before this is drained *)
  mutable live : int;     (* entries currently linked in the wheel *)
  mutable gen : int;      (* bumped on every mutation; see [generation] *)
}

let create () =
  (* Slot sentinels carry no event, so the 224 heads share the single
     [noop_run] instead of a fresh [Run] block each — and they are
     built non-recursively via a local placeholder, because a
     [let rec] record binding compiles to a dummy block plus a
     backpatch copy, doubling the dominant allocation of [create].
     [nil]'s fields are never mutated: every head overwrites
     [next]/[prev] with itself before [create] returns. *)
  let rec nil =
    { time = 0; seq = 0; run = noop_run; state = st_idle; next = nil;
      prev = nil; slot = -1 }
  in
  let make_head () =
    let e =
      { time = 0; seq = 0; run = noop_run; state = st_idle; next = nil;
        prev = nil; slot = -1 }
    in
    e.next <- e;
    e.prev <- e;
    e
  in
  {
    heads = Array.init (levels * slots_per_level) (fun _ -> make_head ());
    occupied = Array.make levels 0;
    cursor = 0;
    live = 0;
    gen = 0;
  }

let live t = t.live
let cursor_ns t = t.cursor
let generation t = t.gen

(* Number of trailing zeros of a non-zero 32-bit value, by de Bruijn
   multiplication (no ctz primitive in stdlib). The table is a string
   so it is immutable data, not module-level mutable state:
   [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
      31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |] *)
let ctz_table =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let ctz32 x = Char.code ctz_table.[((x land -x) * 0x077CB531) lsr 27 land 31]

let shift_of_level l = shift0 + (bits * l)
let width_of_level l = 1 lsl shift_of_level l
let index_at l time = (time lsr shift_of_level l) land slot_mask

let link_tail head e =
  e.prev <- head.prev;
  e.next <- head;
  head.prev.next <- e;
  head.prev <- e

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev;
  e.next <- e;
  e.prev <- e

(* Insert [e] (whose [time], [seq] are set) into the right slot.
   Returns false without inserting when the entry is due within one
   level-0 slot of the cursor: batching it in the wheel would buy
   nothing, the caller should push it straight onto its heap.

   Wrap guard: when [delta] is in the top 1/32 of a level's span, the
   entry's slot index can equal the cursor's own index while its slot
   is the *next* occurrence of that index (32 slots later). Leaving it
   there would make [advance] cascade it now and re-insert it into the
   same slot, looping. Detect the collision (masked indices equal,
   unmasked slot numbers different) and bump the entry one level up,
   where [delta < width_(l+1)] makes a wrap impossible. *)
let clamp_slot t =
  let top = levels - 1 in
  (top * slots_per_level) + ((index_at top t.cursor + slot_mask) land slot_mask)

let schedule t e =
  let delta = e.time - t.cursor in
  if delta < width_of_level 0 then false
  else begin
    (* Smallest level whose full span still contains [delta]; the span
       of level [l] is the width of level [l+1]. *)
    let rec find_level l =
      if l >= levels then -1
      else if delta < width_of_level (l + 1) then l
      else find_level (l + 1)
    in
    let l = find_level 0 in
    let flat =
      if l < 0 then
        (* Beyond the wheel's span: park in the farthest top-level slot
           and re-dispatch when the cursor reaches it. *)
        clamp_slot t
      else begin
        let sh = shift_of_level l in
        let se = e.time lsr sh in
        let sc = t.cursor lsr sh in
        let idx = se land slot_mask in
        if idx = sc land slot_mask && se <> sc then
          if l + 1 >= levels then clamp_slot t
          else ((l + 1) * slots_per_level) + index_at (l + 1) e.time
        else (l * slots_per_level) + idx
      end
    in
    link_tail t.heads.(flat) e;
    e.slot <- flat;
    e.state <- st_wheel;
    t.occupied.(flat / slots_per_level) <-
      t.occupied.(flat / slots_per_level) lor (1 lsl (flat land slot_mask));
    t.live <- t.live + 1;
    t.gen <- t.gen + 1;
    true
  end

(* O(1): unlink, clear the occupancy bit when the slot empties. The
   caller owns [run] (a re-armable timer keeps its fire/state pair; a
   one-shot handle drops it to release captured state early). *)
let cancel t e =
  let flat = e.slot in
  unlink e;
  e.slot <- -1;
  e.state <- st_idle;
  t.live <- t.live - 1;
  t.gen <- t.gen + 1;
  let head = t.heads.(flat) in
  if head.next == head then begin
    let l = flat / slots_per_level and idx = flat land slot_mask in
    t.occupied.(l) <- t.occupied.(l) land lnot (1 lsl idx)
  end

(* Start time of the earliest non-empty slot (a lower bound on the
   earliest pending event time: entries sit anywhere inside their
   slot). [max_int] when the wheel is empty. *)
let next_due_ns t =
  let best = ref max_int in
  for l = 0 to levels - 1 do
    let b = t.occupied.(l) in
    if b <> 0 then begin
      let cur = index_at l t.cursor in
      (* Rotate so bit 0 is the cursor's slot; the first set bit gives
         the distance (in slots) to the next occupied slot. *)
      let r = ((b lsr cur) lor (b lsl (slots_per_level - cur))) land bitmap_mask in
      let d = ctz32 r in
      let w = width_of_level l in
      let align = t.cursor land lnot (w - 1) in
      let start = align + (d * w) in
      if start < !best then best := start
    end
  done;
  !best

let drain_slot t l idx ~emit ~reinsert =
  let head = t.heads.((l * slots_per_level) + idx) in
  while head.next != head do
    let e = head.next in
    unlink e;
    e.slot <- -1;
    t.live <- t.live - 1;
    if l = 0 then begin
      e.state <- st_idle;
      emit e
    end
    else reinsert e
  done;
  t.occupied.(l) <- t.occupied.(l) land lnot (1 lsl idx)

(* Move the cursor forward, emitting (via [emit]) every entry whose
   slot starts at or before [upto]. Higher levels drain first so a
   cascaded entry lands in a lower slot of the same pass (or is
   emitted directly when it is within one level-0 slot). *)
let advance t ~upto ~emit =
  t.gen <- t.gen + 1;
  let reinsert e = if not (schedule t e) then (e.state <- st_idle; emit e) in
  let continue = ref true in
  while !continue do
    let due = next_due_ns t in
    if due = max_int || due > upto then begin
      if upto > t.cursor then t.cursor <- upto;
      continue := false
    end
    else begin
      if due > t.cursor then t.cursor <- due;
      (* Only slots containing the cursor can be due ([next_due_ns]
         guarantees no earlier occupied slot exists), and the wrap
         guard in [schedule] ensures everything in them belongs to the
         current occurrence. *)
      for l = levels - 1 downto 0 do
        let idx = index_at l t.cursor in
        if t.occupied.(l) land (1 lsl idx) <> 0 then
          drain_slot t l idx ~emit ~reinsert
      done
    end
  done
