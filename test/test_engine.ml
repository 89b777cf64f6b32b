(* Unit and property tests for the discrete-event engine. *)

module Time = Sim_engine.Sim_time
module Event_heap = Sim_engine.Event_heap
module Scheduler = Sim_engine.Scheduler
module Rng = Sim_engine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let test_time_constructors () =
  check_int "1us in ns" 1000 (Time.to_ns (Time.of_us 1.));
  check_int "1ms in ns" 1_000_000 (Time.to_ns (Time.of_ms 1.));
  check_int "1s in ns" 1_000_000_000 (Time.to_ns (Time.of_sec 1.));
  Alcotest.(check (float 1e-9)) "round trip sec" 2.5 (Time.to_sec (Time.of_sec 2.5))

let test_time_arithmetic () =
  let a = Time.of_ms 5. and b = Time.of_ms 3. in
  Alcotest.(check (float 1e-9)) "add" 8. (Time.to_ms (Time.add a b));
  Alcotest.(check (float 1e-9)) "diff" 2. (Time.to_ms (Time.diff a b));
  check_bool "lt" true Time.(b < a);
  check_bool "le refl" true Time.(a <= a);
  Alcotest.check_raises "negative diff" (Invalid_argument "Sim_time.diff: negative result")
    (fun () -> ignore (Time.diff b a))

let test_time_scale () =
  Alcotest.(check (float 1e-9)) "double" 10.
    (Time.to_ms (Time.scale (Time.of_ms 5.) 2.));
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Sim_time.scale: negative factor") (fun () ->
      ignore (Time.scale (Time.of_ms 1.) (-1.)))

let test_time_negative_rejected () =
  Alcotest.check_raises "of_ns negative" (Invalid_argument "Sim_time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.of_ns 500));
  Alcotest.(check string) "ms" "1.500ms" (Time.to_string (Time.of_ms 1.5))

(* ------------------------------------------------------------------ *)
(* Event_heap *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:30 ~seq:0 3;
  Event_heap.push h ~time:10 ~seq:1 1;
  Event_heap.push h ~time:20 ~seq:2 2;
  let pop () =
    match Event_heap.pop h with Some (_, _, v) -> v | None -> -1
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] [ first; second; third ]

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:5 ~seq:i i
  done;
  let order = List.init 10 (fun _ ->
      match Event_heap.pop h with Some (_, _, v) -> v | None -> -1)
  in
  Alcotest.(check (list int)) "insertion order on tie" (List.init 10 Fun.id) order

let test_heap_empty () =
  let h = Event_heap.create () in
  check_bool "empty" true (Event_heap.is_empty h);
  check_bool "pop none" true (Event_heap.pop h = None);
  check_bool "peek none" true (Event_heap.peek_time h = None)

let test_heap_clear () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:1 ~seq:0 0;
  Event_heap.clear h;
  check_int "cleared" 0 (Event_heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in (time, seq) order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> Event_heap.push h ~time:t ~seq:i t) times;
      let rec drain acc =
        match Event_heap.pop h with
        | None -> List.rev acc
        | Some (t, _, _) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare popped
      && List.length popped = List.length times)

let test_heap_compact () =
  let h = Event_heap.create () in
  for i = 0 to 99 do
    Event_heap.push h ~time:((i * 7919) mod 1000) ~seq:i i
  done;
  Event_heap.compact h ~keep:(fun ~time:_ ~seq:_ v -> v mod 3 = 0);
  check_int "survivors" 34 (Event_heap.length h);
  let rec drain acc =
    match Event_heap.pop h with
    | None -> List.rev acc
    | Some (t, s, _) -> drain ((t, s) :: acc)
  in
  let keys = drain [] in
  check_bool "still sorted after compact" true (keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Scheduler traces against a sorted reference *)

(* One step of a random trace over [trace_timers] re-armable timers and
   one Event pool. Delays are relative to the clock at the step, so a
   timer re-arm lands earlier or later than its pending occurrence at
   random; the small-delay half makes same-instant ties common. *)
type op =
  | Timer_arm of int * int  (* timer, delay ns *)
  | Timer_cancel of int
  | Event_arm of int  (* delay ns *)
  | Event_cancel of int  (* index into the pending cells *)
  | Run_until of int  (* delay ns *)
  | Run_max of int

let trace_timers = 16

let trace_arb =
  let open QCheck.Gen in
  let delay = oneof [ int_bound 50; int_bound 5_000_000 ] in
  let op =
    frequency
      [
        (5, map2 (fun k d -> Timer_arm (k, d)) (int_bound (trace_timers - 1)) delay);
        (2, map (fun k -> Timer_cancel k) (int_bound (trace_timers - 1)));
        (4, map (fun d -> Event_arm d) delay);
        (2, map (fun j -> Event_cancel j) (int_bound 1000));
        (1, map (fun d -> Run_until d) (int_bound 3_000_000));
        (1, map (fun n -> Run_max n) (int_bound 8));
      ]
  in
  let print = function
    | Timer_arm (k, d) -> Printf.sprintf "T%d@+%d" k d
    | Timer_cancel k -> Printf.sprintf "cancel T%d" k
    | Event_arm d -> Printf.sprintf "E@+%d" d
    | Event_cancel j -> Printf.sprintf "cancel E#%d" j
    | Run_until d -> Printf.sprintf "run until +%d" d
    | Run_max n -> Printf.sprintf "run max %d" n
  in
  QCheck.make ~print:QCheck.Print.(list print) (list_size (0 -- 400) op)

(* Drive the scheduler and a sorted-list model through [ops], then drain
   both. The model keeps every pending occurrence as (time, seq, id):
   timers are ids [0, trace_timers), events take fresh ids above. It
   fires in (time, seq) order and moves its clock exactly as [run]
   does. [check s ~timers ~events] runs after every step with the
   model's pending counts. True when both fired the same (time, id)
   log and every check held. *)
let trace_matches_model ?(check = fun _ ~timers:_ ~events:_ -> true) ops =
  let s = Scheduler.create () in
  let log = ref [] in
  let record id = log := (Time.to_ns (Scheduler.now s), id) :: !log in
  let cells = Hashtbl.create 16 in
  let pool =
    Scheduler.Event.pool s ~fire:(fun id ->
        Hashtbl.remove cells id;
        record id)
  in
  let timers =
    Array.init trace_timers (fun k -> Scheduler.Timer.create s record k)
  in
  let now = ref 0 and seq = ref 0 and next_id = ref trace_timers in
  let pending = ref [] and expected = ref [] in
  let remove id = pending := List.filter (fun (_, _, i) -> i <> id) !pending in
  let arm id time =
    remove id;
    pending := (time, !seq, id) :: !pending;
    incr seq
  in
  (* Fire up to [budget] due occurrences (time <= [horizon]). *)
  let fire ~horizon ~budget =
    let due =
      List.sort compare (List.filter (fun (t, _, _) -> t <= horizon) !pending)
    in
    let rec go n = function
      | (t, _, id) :: rest when n > 0 ->
        remove id;
        now := t;
        expected := (t, id) :: !expected;
        go (n - 1) rest
      | _ -> ()
    in
    go budget due
  in
  let ok = ref true in
  List.iter
    (fun op ->
      (match op with
      | Timer_arm (k, d) ->
        Scheduler.Timer.schedule_at timers.(k) (Time.of_ns (!now + d));
        arm k (!now + d)
      | Timer_cancel k ->
        Scheduler.Timer.cancel timers.(k);
        remove k
      | Event_arm d ->
        let id = !next_id in
        incr next_id;
        Hashtbl.replace cells id
          (Scheduler.Event.schedule_at pool (Time.of_ns (!now + d)) id);
        arm id (!now + d)
      | Event_cancel j ->
        let live =
          List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) cells [])
        in
        if live <> [] then begin
          let id = List.nth live (j mod List.length live) in
          let back = Scheduler.Event.cancel pool (Hashtbl.find cells id) in
          if back <> Some id then ok := false;
          Hashtbl.remove cells id;
          remove id
        end
      | Run_until d ->
        let u = !now + d in
        Scheduler.run ~until:(Time.of_ns u) s;
        fire ~horizon:u ~budget:max_int;
        now := u
      | Run_max n ->
        Scheduler.run ~max_events:n s;
        fire ~horizon:max_int ~budget:n);
      let n = List.length !pending in
      let nt =
        List.length (List.filter (fun (_, _, id) -> id < trace_timers) !pending)
      in
      if Time.to_ns (Scheduler.now s) <> !now
         || Scheduler.pending_events s <> n
         || not (check s ~timers:nt ~events:(n - nt))
      then ok := false)
    ops;
  Scheduler.run s;
  fire ~horizon:max_int ~budget:max_int;
  !ok && List.rev !log = List.rev !expected && Scheduler.pending_events s = 0

(* Timer re-arms to earlier and later times, cancels, Event arms and
   cancels, and runs bounded by [until] and [max_events], all against
   the sorted reference: same firing log, same clock and pending count
   after every step. *)
let prop_wheel_matches_heap =
  QCheck.Test.make ~name:"wheel + handoff heap matches sorted reference"
    ~count:200 trace_arb trace_matches_model

(* ------------------------------------------------------------------ *)
(* Scheduler *)

(* Every test arms through the scheduler's two handles: pooled
   one-shot cells ([Event]) and re-armable timers ([Timer]). *)

let test_scheduler_order_and_clock () =
  let s = Scheduler.create () in
  let log = ref [] in
  let p =
    Scheduler.Event.pool s ~fire:(fun tag ->
        log := (tag, Time.to_ms (Scheduler.now s)) :: !log)
  in
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 2.) "b");
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) "a");
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 3.) "c");
  Scheduler.run s;
  Alcotest.(check (list (pair string (float 1e-6))))
    "events fire in order at their times"
    [ ("a", 1.); ("b", 2.); ("c", 3.) ]
    (List.rev !log)

let test_scheduler_same_time_fifo () =
  let s = Scheduler.create () in
  let log = ref [] in
  let p = Scheduler.Event.pool s ~fire:(fun i -> log := i :: !log) in
  for i = 0 to 4 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) i)
  done;
  Scheduler.run s;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_scheduler_cancel () =
  let s = Scheduler.create () in
  let fired = ref false in
  let p = Scheduler.Event.pool s ~fire:(fun () -> fired := true) in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) () in
  ignore (Scheduler.Event.cancel p c : unit option);
  check_bool "not pending" false (Scheduler.Event.is_pending c);
  Scheduler.run s;
  check_bool "cancelled did not fire" false !fired;
  check_int "nothing processed" 0 (Scheduler.events_processed s)

(* Ten events at 1..10 ms, each bumping [count]. *)
let ten_counted s count =
  let p = Scheduler.Event.pool s ~fire:(fun () -> incr count) in
  for i = 1 to 10 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) ())
  done

let test_scheduler_until () =
  let s = Scheduler.create () in
  let count = ref 0 in
  ten_counted s count;
  Scheduler.run ~until:(Time.of_ms 5.) s;
  check_int "only events <= 5ms" 5 !count;
  Alcotest.(check (float 1e-6)) "clock at horizon" 5. (Time.to_ms (Scheduler.now s));
  Scheduler.run s;
  check_int "rest fire on resume" 10 !count

let test_scheduler_nested_scheduling () =
  let s = Scheduler.create () in
  let log = ref [] in
  let inner = Scheduler.Event.pool s ~fire:(fun () -> log := "inner" :: !log) in
  let outer =
    Scheduler.Event.pool s ~fire:(fun () ->
        log := "outer" :: !log;
        ignore (Scheduler.Event.schedule_after inner (Time.of_ms 1.) ()))
  in
  ignore (Scheduler.Event.schedule_after outer (Time.of_ms 1.) ());
  Scheduler.run s;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-6)) "final clock" 2. (Time.to_ms (Scheduler.now s))

let test_scheduler_past_rejected () =
  let s = Scheduler.create () in
  let late = Scheduler.Event.pool s ~fire:ignore in
  let tm = Scheduler.Timer.create s ignore () in
  let checked = ref false in
  let p =
    Scheduler.Event.pool s ~fire:(fun () ->
        Alcotest.check_raises "past event"
          (Invalid_argument "Scheduler.Event.schedule_at: time is in the past")
          (fun () ->
            ignore (Scheduler.Event.schedule_at late (Time.of_ms 1.) ()));
        Alcotest.check_raises "past timer"
          (Invalid_argument "Scheduler.Timer.schedule_at: time is in the past")
          (fun () -> Scheduler.Timer.schedule_at tm (Time.of_ms 1.));
        checked := true)
  in
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 5.) ());
  Scheduler.run s;
  check_bool "checks ran" true !checked

let test_scheduler_max_events () =
  let s = Scheduler.create () in
  let count = ref 0 in
  ten_counted s count;
  Scheduler.run ~max_events:3 s;
  check_int "bounded" 3 !count

let test_scheduler_counts () =
  let s = Scheduler.create () in
  let p = Scheduler.Event.pool s ~fire:ignore in
  ignore (Scheduler.Event.schedule_after p Time.zero ());
  ignore (Scheduler.Event.schedule_after p Time.zero ());
  check_int "pending" 2 (Scheduler.pending_events s);
  Scheduler.run s;
  check_int "processed" 2 (Scheduler.events_processed s)

(* Random schedule/cancel trace against a sorted-list model: the
   scheduler (heap, lazy re-arm and stale cells underneath) must fire
   exactly the non-cancelled events in (time, arm-order) order. Each arm goes
   through an Event pool cell or its own Timer, as the trace says, so
   the two handles must interleave by one shared seq. Cancels happen
   during the run, from an event armed earlier than the victim. *)
let prop_scheduler_matches_model =
  QCheck.Test.make ~name:"scheduler matches sorted-list model" ~count:200
    QCheck.(
      list (pair (int_bound 5_000_000) (pair bool (option (int_bound 4_999_999)))))
    (fun trace ->
      let s = Scheduler.create () in
      let fired = ref [] in
      let record i = fired := (Time.to_ns (Scheduler.now s), i) :: !fired in
      let pool = Scheduler.Event.pool s ~fire:record in
      let arms =
        List.mapi
          (fun i (t_ns, (typed, cancel_at)) ->
            let at = Time.of_ns t_ns in
            let cancel =
              if typed then begin
                let c = Scheduler.Event.schedule_at pool at i in
                fun () -> ignore (Scheduler.Event.cancel pool c : int option)
              end
              else begin
                let tm = Scheduler.Timer.create s record i in
                Scheduler.Timer.schedule_at tm at;
                fun () -> Scheduler.Timer.cancel tm
              end
            in
            (i, t_ns, cancel_at, cancel))
          trace
      in
      (* A cancel only counts when it strictly precedes the victim's
         due time; a later one would hit an already-fired event (and,
         for cells, trip the stale-handle sanitizer by contract). *)
      let cancels = Scheduler.Event.pool s ~fire:(fun cancel -> cancel ()) in
      let expected = ref [] in
      List.iter
        (fun (i, t_ns, cancel_at, cancel) ->
          match cancel_at with
          | Some c_ns when c_ns < t_ns ->
            ignore (Scheduler.Event.schedule_at cancels (Time.of_ns c_ns) cancel)
          | Some _ | None -> expected := (t_ns, i) :: !expected)
        arms;
      Scheduler.run s;
      List.rev !fired = List.sort compare !expected)

(* The probe's two scheduler gauges split [pending_events] exactly:
   [heap_pending] counts armed Event cells and [wheel_pending] pending
   Timers, after every step of a random trace. *)
let prop_pending_split =
  QCheck.Test.make ~name:"heap_pending + wheel_pending = pending_events"
    ~count:200 trace_arb
    (trace_matches_model ~check:(fun s ~timers ~events ->
         Scheduler.heap_pending s = events
         && Scheduler.wheel_pending s = timers
         && Scheduler.heap_pending s + Scheduler.wheel_pending s
            = Scheduler.pending_events s))

(* ------------------------------------------------------------------ *)
(* Scheduler.Timer *)

let test_timer_cancel_rearm () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let tm = Scheduler.Timer.create s (fun () -> incr count) () in
  (* Cancel before first arm is a no-op; a cancelled arm never fires. *)
  Scheduler.Timer.cancel tm;
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  check_bool "pending after arm" true (Scheduler.Timer.is_pending tm);
  Scheduler.Timer.cancel tm;
  check_bool "idle after cancel" false (Scheduler.Timer.is_pending tm);
  Scheduler.run s;
  check_int "cancelled arm never fired" 0 !count;
  (* The closure survives cancel: re-arm still works. *)
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  Scheduler.run s;
  check_int "re-arm after cancel fires" 1 !count;
  (* Re-arm supersedes: only the latest deadline fires. *)
  Scheduler.Timer.schedule_after tm (Time.of_ms 5.);
  Scheduler.Timer.schedule_after tm (Time.of_ms 1.);
  Scheduler.run s;
  check_int "superseded arm fires once" 2 !count

let test_timer_seq_interleaving () =
  (* A Timer consumes one seq per arm, exactly like an Event arm:
     armed before a same-time one-shot, it fires first; re-armed after,
     it fires second. *)
  let s = Scheduler.create () in
  let log = ref [] in
  let tm = Scheduler.Timer.create s (fun () -> log := "timer" :: !log) () in
  let oneshot = Scheduler.Event.pool s ~fire:(fun tag -> log := tag :: !log) in
  Scheduler.Timer.schedule_at tm (Time.of_ms 1.);
  ignore (Scheduler.Event.schedule_at oneshot (Time.of_ms 1.) "oneshot");
  Scheduler.run s;
  Scheduler.Timer.schedule_at tm (Time.of_ms 2.);
  ignore (Scheduler.Event.schedule_at oneshot (Time.of_ms 2.) "oneshot2");
  (* Re-arm after the one-shot: the timer moves behind it. *)
  Scheduler.Timer.schedule_at tm (Time.of_ms 2.);
  Scheduler.run s;
  Alcotest.(check (list string))
    "seq order across arms"
    [ "timer"; "oneshot"; "oneshot2"; "timer" ]
    (List.rev !log)

let test_timer_rejected_rearm_keeps_pending () =
  (* A re-arm into the past raises and leaves the pending occurrence
     exactly as it was. *)
  let s = Scheduler.create () in
  let log = ref [] in
  let tm =
    Scheduler.Timer.create s (fun () -> log := Time.to_ms (Scheduler.now s) :: !log) ()
  in
  Scheduler.Timer.schedule_at tm (Time.of_ms 5.);
  Scheduler.run ~until:(Time.of_ms 2.) s;
  Alcotest.check_raises "past re-arm"
    (Invalid_argument "Scheduler.Timer.schedule_at: time is in the past")
    (fun () -> Scheduler.Timer.schedule_at tm (Time.of_ms 1.));
  check_bool "still pending" true (Scheduler.Timer.is_pending tm);
  Scheduler.run s;
  Alcotest.(check (list (float 1e-6))) "fires at 5 ms" [ 5. ] !log

let test_timer_stale_cells_bounded () =
  (* 100 timers armed far out, then 10,000 re-arms, each to a time
     earlier than the timer's pending one: every re-arm leaves a stale
     cell behind, and compaction must keep them within 2 x live + 64. *)
  let s = Scheduler.create () in
  let fired = ref 0 in
  let n = 100 in
  let tms = Array.init n (fun _ -> Scheduler.Timer.create s incr fired) in
  let due = Array.make n 0 in
  Array.iteri
    (fun i tm ->
      due.(i) <- 1_000_000_000 + i;
      Scheduler.Timer.schedule_at tm (Time.of_ns due.(i)))
    tms;
  for k = 0 to 9_999 do
    let i = (k * 37) mod n in
    due.(i) <- due.(i) - 1 - (k mod 7);
    Scheduler.Timer.schedule_at tms.(i) (Time.of_ns due.(i));
    let stale = Scheduler.cancelled_pending s
    and live = Scheduler.pending_events s in
    if stale > (2 * live) + 64 then
      Alcotest.failf "after %d re-arms: %d stale cells beside %d live" (k + 1)
        stale live
  done;
  check_int "every timer pending once" n (Scheduler.pending_events s);
  Scheduler.run s;
  check_int "each fired once" n !fired;
  check_int "no stale cells after run" 0 (Scheduler.cancelled_pending s)

let test_scheduler_tombstones_and_compaction () =
  let s = Scheduler.create () in
  let p = Scheduler.Event.pool s ~fire:ignore in
  (* 200 events within the level-0 cutoff (< 1024 ns), so they all land
     in the heap; cancelling all but every 10th leaves 180 tombstones,
     which must trip compaction (threshold: > 64 and > half the heap). *)
  let cells =
    List.init 200 (fun i ->
        Scheduler.Event.schedule_at p (Time.of_ns (i mod 1000)) ())
  in
  List.iteri
    (fun i c ->
      if i mod 10 <> 0 then ignore (Scheduler.Event.cancel p c : unit option))
    cells;
  check_int "pending counts live only" 20 (Scheduler.pending_events s);
  check_bool "compaction kept tombstones low" true
    (Scheduler.cancelled_pending s <= 100);
  Scheduler.run s;
  check_int "survivors fired" 20 (Scheduler.events_processed s);
  check_int "no pending after run" 0 (Scheduler.pending_events s);
  check_int "no tombstones after run" 0 (Scheduler.cancelled_pending s)

let test_scheduler_far_future () =
  (* An event 50,000 s out, far beyond every other, still fires in
     order and moves the clock there. *)
  let s = Scheduler.create () in
  let log = ref [] in
  let p = Scheduler.Event.pool s ~fire:(fun tag -> log := tag :: !log) in
  ignore (Scheduler.Event.schedule_at p (Time.of_sec 50_000.) "far");
  ignore (Scheduler.Event.schedule_at p (Time.of_ms 1.) "near");
  Scheduler.run s;
  Alcotest.(check (list string)) "near before far" [ "near"; "far" ]
    (List.rev !log);
  Alcotest.(check (float 1e-6))
    "clock at far event" 50_000. (Time.to_sec (Scheduler.now s))

(* ------------------------------------------------------------------ *)
(* Scheduler.Event: pooled typed cells *)

(* The typed event path must be observationally identical to the
   closure path: same trace of arms and mid-run cancels, same log of
   (payload, fire-time) — which pins time, (time, seq) tie order and
   side-effect order all at once. The reference run arms every event
   as a one-off Timer over a closure; the pool run routes the flagged
   subset through an Event pool. Both runs arm in the same order, and
   one seq is consumed per arm on either path, so any divergence in the
   interleaving of typed and closure events shows up as a reordered
   log. *)
let prop_event_pool_matches_closures =
  QCheck.Test.make ~name:"typed event pool matches closure reference"
    ~count:200
    QCheck.(
      list (pair (int_bound 5_000_000) (pair bool (option (int_bound 4_999_999)))))
    (fun trace ->
      let run use_pool =
        let s = Scheduler.create () in
        let log = ref [] in
        let record i = log := (i, Time.to_ns (Scheduler.now s)) :: !log in
        let pool = Scheduler.Event.pool s ~fire:record in
        let closure_at t f =
          let tm = Scheduler.Timer.create s f () in
          Scheduler.Timer.schedule_at tm t;
          tm
        in
        let arms =
          List.mapi
            (fun i (t_ns, (typed, cancel_at)) ->
              let at = Time.of_ns t_ns in
              let cancel =
                if use_pool && typed then begin
                  let c = Scheduler.Event.schedule_at pool at i in
                  fun () -> ignore (Scheduler.Event.cancel pool c : int option)
                end
                else begin
                  let tm = closure_at at (fun () -> record i) in
                  fun () -> Scheduler.Timer.cancel tm
                end
              in
              (i, t_ns, cancel_at, cancel))
            trace
        in
        (* Cancels that strictly precede the victim's due time count;
           later ones would race an already-fired event (and, for
           cells, trip the stale-handle sanitizer by contract). *)
        let expected = ref [] in
        List.iter
          (fun (i, t_ns, cancel_at, cancel) ->
            match cancel_at with
            | Some c_ns when c_ns < t_ns ->
              ignore (closure_at (Time.of_ns c_ns) cancel : Scheduler.Timer.t)
            | Some _ | None -> expected := (t_ns, i) :: !expected)
          arms;
        Scheduler.run s;
        (List.rev !log, List.sort compare !expected)
      in
      let log_ref, _ = run false in
      let log_pool, expected = run true in
      log_ref = log_pool
      && log_pool = List.map (fun (t, i) -> (i, t)) expected)

let test_event_cell_reuse () =
  (* A fire handler that re-arms into its own pool must reuse the very
     cell that just fired (release happens before the handler runs):
     a whole chain of sequential events costs one cell. *)
  let s = Scheduler.create () in
  let count = ref 0 in
  let pool_ref = ref None in
  let fire n =
    incr count;
    if n > 0 then
      match !pool_ref with
      | Some p -> ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) (n - 1))
      | None -> assert false
  in
  let p = Scheduler.Event.pool s ~fire in
  pool_ref := Some p;
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) 5);
  Scheduler.run s;
  check_int "whole chain fired" 6 !count;
  check_int "one cell ever allocated" 1 (Scheduler.event_cells_allocated s);
  check_int "cell back in the pool" 1 (Scheduler.event_cells_free s)

let test_event_cancel_then_rearm () =
  let s = Scheduler.create () in
  let got = ref [] in
  let p = Scheduler.Event.pool s ~fire:(fun v -> got := v :: !got) in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) 42 in
  check_bool "pending after arm" true (Scheduler.Event.is_pending c);
  (match Scheduler.Event.cancel p c with
  | Some v -> check_int "cancel hands the payload back" 42 v
  | None -> Alcotest.fail "cancel of an armed cell must return its payload");
  check_bool "idle after cancel" false (Scheduler.Event.is_pending c);
  Scheduler.run s;
  check_bool "cancelled event never fired" true (!got = []);
  (* The cancelled cell is pool property again: the next arm reuses it. *)
  ignore (Scheduler.Event.schedule_after p (Time.of_ms 1.) 7);
  check_int "cancelled cell reused" 1 (Scheduler.event_cells_allocated s);
  Scheduler.run s;
  Alcotest.(check (list int)) "re-arm fires with the new payload" [ 7 ] !got

let test_event_stale_cancel () =
  (* Cancelling a cell whose event already fired is a use-after-free
     on the cell: the pool may have reissued it. Generation parity
     catches it in the sanitizer profile; compiled out, the cancel is
     a silent no-op (the entry is idle). *)
  let s = Scheduler.create () in
  let p = Scheduler.Event.pool s ~fire:(fun (_ : int) -> ()) in
  let c = Scheduler.Event.schedule_after p (Time.of_ms 1.) 0 in
  Scheduler.run s;
  if Sim_engine.Sanitizer_mode.on then
    Alcotest.check_raises "stale handle trips the sanitizer"
      (Invalid_argument
         "Scheduler.Event.cancel: cell is not armed (already fired or \
          cancelled — stale cell handle)")
      (fun () -> ignore (Scheduler.Event.cancel p c))
  else
    check_bool "stale cancel is a no-op without the sanitizer" true
      (Scheduler.Event.cancel p c = None)

let test_event_pool_accounting () =
  (* Cells allocate at the high-water mark of in-flight events and
     never beyond it. *)
  let s = Scheduler.create () in
  let fired = ref 0 in
  let p = Scheduler.Event.pool s ~fire:(fun (_ : int) -> incr fired) in
  for i = 1 to 8 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i)
  done;
  check_int "eight cells at the high-water mark" 8
    (Scheduler.event_cells_allocated s);
  check_int "none free while armed" 0 (Scheduler.event_cells_free s);
  Scheduler.run s;
  check_int "all fired" 8 !fired;
  check_int "all back in the pool" 8 (Scheduler.event_cells_free s);
  (* A second wave of the same width allocates nothing new. *)
  for i = 1 to 8 do
    ignore (Scheduler.Event.schedule_after p (Time.of_ms (float_of_int i)) i)
  done;
  Scheduler.run s;
  check_int "steady state allocates no cells" 8
    (Scheduler.event_cells_allocated s)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let da = List.init 100 (fun _ -> Rng.int a 1000) in
  let db = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" da db

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let da = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let db = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  check_bool "different seeds diverge" true (da <> db)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let c1 = List.init 10 (fun _ -> Rng.int child 1000) in
  (* Draining the parent must not change what an identically created
     child would have produced. *)
  let parent2 = Rng.create ~seed:7 in
  let child2 = Rng.split parent2 in
  ignore (List.init 50 (fun _ -> Rng.int parent2 10));
  let c2 = List.init 10 (fun _ -> Rng.int child2 1000) in
  Alcotest.(check (list int)) "split streams reproducible" c1 c2

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 3.5 in
      v >= 0. && v < 3.5)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "empirical mean within 5%" true (Float.abs (mean -. 4.0) < 0.2)

let prop_rng_shuffle_permutes =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let r = Rng.create ~seed in
      let a = Array.of_list l in
      Rng.shuffle r a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_rng_derangement =
  QCheck.Test.make ~name:"derangement has no fixed point" ~count:200
    QCheck.(pair small_int (int_range 2 200))
    (fun (seed, n) ->
      let r = Rng.create ~seed in
      let d = Rng.derangement r n in
      let no_fixed = Array.for_all Fun.id (Array.mapi (fun i v -> i <> v) d) in
      let is_perm = List.sort compare (Array.to_list d) = List.init n Fun.id in
      no_fixed && is_perm)

let test_rng_int_in () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 100 do
    let v = Rng.int_in r 5 9 in
    check_bool "in range" true (v >= 5 && v <= 9)
  done

let test_rng_bad_args () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "exp mean" (Invalid_argument "Rng.exponential: mean must be positive")
    (fun () -> ignore (Rng.exponential r ~mean:0.))

(* The first 16 draws of each kind for two seeds (1, and the jitter
   stream seed of link 0), pinned to the values the generator has
   always produced: every simulated result depends on these streams
   (per-hop link jitter, MMPTCP's scatter ports, arrivals), so a
   change of state representation must reproduce them bit for bit.
   [split] pins each child's first [bits64]. Floats are compared by
   bit pattern. *)
let rng_golden =
  [
    ( 1,
      [| 0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
         0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
         0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL;
         0xe1d9d25350c18b44L; 0x83db02da19918686L; 0x889af42f2e548689L;
         0xec3add8a85bfa5eeL; 0x33ab0c5babe05527L; 0x27a774aeba5ef45bL;
         0x8bcb0ba992bb02deL |],
      [| 415844; 154100; 621268; 938306; 933616; 861756; 29089; 132952;
         329733; 981562; 198168; 230256; 65990; 203156; 154872; 893692 |],
      [| 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
         0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
         0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
         0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
         0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
         0x1.179617532576p-1 |],
      [| 0x55c55969ed403149L; 0x81fb535ca52e6825L; 0xa53ffa611d4be918L;
         0x16ba5b30692dd2a2L; 0xf01299dc05d70986L; 0xa389390354dbe8caL;
         0x49b288b6df2c88cfL; 0x2ede7ae59f4051e0L; 0x7010b62c1b16786bL;
         0x1402e4e5145ffe66L; 0x57c394c33369d41cL; 0xe12dcbdfe797ab5fL;
         0x14027c9d7bfb77a6L; 0xc2b1524cf41b8174L; 0x2919180e478bca5L;
         0x9b61ff5070ead4cbL |] );
    ( 0x11CC,
      [| 0x967577df2c0cda59L; 0x9067ade43df73d47L; 0x37364c25f909555fL;
         0x41461b22779d6addL; 0xf13b980c09442510L; 0x9ac8177457a960faL;
         0x3f5bf92238dfed51L; 0x7fee4831a5ee498dL; 0x20633016456d6dc3L;
         0x21932ca1cb34e0aL; 0xd40b55a0677e4969L; 0x50d88a7dc1b4787cL;
         0xbe77d1eb2113bd24L; 0xc4f364a3da03f074L; 0x30535dd62acaecc2L;
         0x2a1e9ec6790436b7L |],
      [| 253939; 576411; 716837; 111427; 889385; 302887; 904912; 969914;
         553518; 560283; 74109; 531687; 591979; 398721; 857892; 318258 |],
      [| 0x1.2ceaefbe5819bp-1; 0x1.20cf5bc87bee7p-1; 0x1.b9b2612fc84a8p-3;
         0x1.05186c89de75ap-2; 0x1.e277301812884p-1; 0x1.35902ee8af52cp-1;
         0x1.fadfc911c6ff4p-3; 0x1.ffb920c697b92p-2; 0x1.031980b22b6b4p-3;
         0x1.0c99650e59a4p-7; 0x1.a816ab40cefc9p-1; 0x1.436229f706d1ep-2;
         0x1.7cefa3d642277p-1; 0x1.89e6c947b407ep-1; 0x1.829aeeb156574p-3;
         0x1.50f4f633c8218p-3 |],
      [| 0x9d5cf4a329ae235cL; 0x48b5a38647a21fb0L; 0x92622b1dd8ce30b5L;
         0xf931abc6d7513e91L; 0xafa51a2ecbe9532dL; 0x2e3cc813b3333724L;
         0x9f7f73fee62fb69cL; 0x95387223ec10edb8L; 0x81a85fb9925c54d7L;
         0xe9ec9be4fb093dbdL; 0xe440d75d8becb773L; 0xba25dc41135d7cafL;
         0x509127b49881b6bbL; 0xbbd1dc1bb1ef0dcdL; 0x9e3656e4e9d05888L;
         0x18af722a8385e8f9L |] )
  ]

let test_rng_golden () =
  List.iter
    (fun (seed, bits, ints, floats, splits) ->
      let name kind i = Printf.sprintf "seed %d %s #%d" seed kind i in
      let r = Rng.create ~seed in
      Array.iteri
        (fun i v -> Alcotest.(check int64) (name "bits64" i) v (Rng.bits64 r))
        bits;
      let r = Rng.create ~seed in
      Array.iteri
        (fun i v -> check_int (name "int" i) v (Rng.int r 1_000_003))
        ints;
      let r = Rng.create ~seed in
      Array.iteri
        (fun i v ->
          Alcotest.(check int64) (name "float" i) (Int64.bits_of_float v)
            (Int64.bits_of_float (Rng.float r 1.0)))
        floats;
      let r = Rng.create ~seed in
      Array.iteri
        (fun i v ->
          Alcotest.(check int64) (name "split" i) v (Rng.bits64 (Rng.split r)))
        splits)
    rng_golden

(* ------------------------------------------------------------------ *)
(* Allocation budgets

   After warm-up these hot-path operations allocate nothing. Tests run
   in the dev profile, which compiles with -opaque, so the budgets hold
   without cross-module inlining. The slack absorbs the boxed floats
   that the Gc.minor_words calls themselves return. *)

let alloc_slack = 64.

(* One round over 64 timers and one Event pool: each timer is armed
   1 us to ~16 ms ahead, re-armed later (a lazy re-arm), then re-armed
   earlier (a fresh cell; the old one goes stale), and every other one
   is cancelled; each round also arms 64 events and cancels every
   fourth. Stale cells pass the compaction threshold midway through
   every round. The run then fires the rest, popping the stale cells
   and re-queueing the lazily re-armed timers on the way. *)
let sched_round s timers pool r =
  let base = Time.to_ns (Scheduler.now s) in
  for i = 0 to Array.length timers - 1 do
    let tm = timers.(i) in
    let d = 1024 + (((i * 104_729) + (r * 7_919)) land 0xFF_FFFF) in
    Scheduler.Timer.schedule_at tm (Time.of_ns (base + d));
    Scheduler.Timer.schedule_at tm (Time.of_ns (base + d + 512));
    Scheduler.Timer.schedule_at tm (Time.of_ns (base + (d / 2)));
    if i land 1 = 1 then Scheduler.Timer.cancel tm;
    let c = Scheduler.Event.schedule_at pool (Time.of_ns (base + d)) i in
    if i land 3 = 1 then
      match Scheduler.Event.cancel pool c with
      | Some _ -> ()
      | None -> Alcotest.fail "armed cell not cancelled"
  done;
  Scheduler.run s

let test_wheel_no_alloc () =
  let s = Scheduler.create () in
  let fired = ref 0 in
  let timers = Array.init 64 (fun _ -> Scheduler.Timer.create s incr fired) in
  let pool = Scheduler.Event.pool s ~fire:(fun (_ : int) -> incr fired) in
  for r = 0 to 9 do
    sched_round s timers pool r
  done;
  let w0 = Gc.minor_words () in
  for r = 10 to 1009 do
    sched_round s timers pool r
  done;
  let dw = Gc.minor_words () -. w0 in
  check_int "every live arm fired" (1010 * 80) !fired;
  check_int "nothing left behind" 0 (Scheduler.cancelled_pending s);
  (* [Event.cancel] hands the payload back in a [Some]: two words per
     cancel are the API's, not the scheduler's. *)
  let cancel_words = 2. *. 1000. *. 16. in
  if dw > cancel_words +. alloc_slack then
    Alcotest.failf
      "1,000 rounds of timer and event arms, re-arms, cancels and fires \
       allocated %.0f minor words beyond the cancels' options"
      (dw -. cancel_words)

let test_rng_no_alloc () =
  let r = Rng.create ~seed:9 in
  let acc = ref 0 in
  let draws n =
    for _ = 1 to n do
      acc := !acc + Rng.int r 60_000 + Rng.float_trunc r 5_000
    done
  in
  draws 1_000;
  let w0 = Gc.minor_words () in
  draws 100_000;
  let dw = Gc.minor_words () -. w0 in
  check_bool "draws land" true (!acc > 0);
  if dw > alloc_slack then
    Alcotest.failf "200,000 draws allocated %.0f minor words" dw

let test_rng_float_trunc () =
  let a = Rng.create ~seed:0x11CC and b = Rng.create ~seed:0x11CC in
  for _ = 1 to 1_000 do
    check_int "same draw as float, truncated"
      (int_of_float (Rng.float a 5_000.))
      (Rng.float_trunc b 5_000)
  done

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_engine"
    [
      ( "sim_time",
        [
          Alcotest.test_case "constructors" `Quick test_time_constructors;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "scale" `Quick test_time_scale;
          Alcotest.test_case "negative rejected" `Quick test_time_negative_rejected;
          Alcotest.test_case "pretty printing" `Quick test_time_pp;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "compact" `Quick test_heap_compact;
          qt prop_heap_sorts;
        ] );
      ( "timer_wheel",
        [
          qt prop_wheel_matches_heap;
          Alcotest.test_case "arm and advance allocate nothing" `Quick
            test_wheel_no_alloc;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "order and clock" `Quick test_scheduler_order_and_clock;
          Alcotest.test_case "same-time fifo" `Quick test_scheduler_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_scheduler_cancel;
          Alcotest.test_case "run until" `Quick test_scheduler_until;
          Alcotest.test_case "nested scheduling" `Quick test_scheduler_nested_scheduling;
          Alcotest.test_case "past rejected" `Quick test_scheduler_past_rejected;
          Alcotest.test_case "max events" `Quick test_scheduler_max_events;
          Alcotest.test_case "counters" `Quick test_scheduler_counts;
          Alcotest.test_case "tombstones and compaction" `Quick
            test_scheduler_tombstones_and_compaction;
          Alcotest.test_case "far-future clamp" `Quick test_scheduler_far_future;
          qt prop_scheduler_matches_model;
          qt prop_pending_split;
        ] );
      ( "timer",
        [
          Alcotest.test_case "cancel and re-arm" `Quick test_timer_cancel_rearm;
          Alcotest.test_case "seq interleaving" `Quick test_timer_seq_interleaving;
          Alcotest.test_case "rejected re-arm keeps the pending occurrence" `Quick
            test_timer_rejected_rearm_keeps_pending;
          Alcotest.test_case "stale cells within 2 x live + 64" `Quick
            test_timer_stale_cells_bounded;
        ] );
      ( "event_pool",
        [
          Alcotest.test_case "fire releases before handler (reuse)" `Quick
            test_event_cell_reuse;
          Alcotest.test_case "cancel then re-arm" `Quick
            test_event_cancel_then_rearm;
          Alcotest.test_case "stale handle cancel" `Quick test_event_stale_cancel;
          Alcotest.test_case "pool accounting" `Quick test_event_pool_accounting;
          qt prop_event_pool_matches_closures;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "bad arguments" `Quick test_rng_bad_args;
          Alcotest.test_case "golden streams" `Quick test_rng_golden;
          Alcotest.test_case "float_trunc is float truncated" `Quick
            test_rng_float_trunc;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_alloc;
          qt prop_rng_int_bounds;
          qt prop_rng_float_bounds;
          qt prop_rng_shuffle_permutes;
          qt prop_rng_derangement;
        ] );
    ]
