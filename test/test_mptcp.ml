(* MPTCP tests: LIA coupling maths, the shared dataplane, and full
   multipath connections over reference topologies. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Fattree = Sim_net.Fattree
module Multihomed = Sim_net.Multihomed
module Cong = Sim_tcp.Cong
module Lia = Sim_mptcp.Lia
module Dataplane = Sim_mptcp.Dataplane
module Mptcp_conn = Sim_mptcp.Mptcp_conn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A synthetic window over a bare [Cong.win], for exercising
   controllers without a TCP stack behind them. *)
let fake_window ?(mss = 1400) ?(cwnd = 14_000.) ?(ssthresh = 7_000.)
    ?(rtt_ms = 1.) () =
  let win = { Cong.cwnd; ssthresh } in
  let rtt = Sim_tcp.Rtt_estimator.create ~params:Sim_tcp.Tcp_params.default in
  Sim_tcp.Rtt_estimator.observe rtt (Time.of_ms rtt_ms);
  ({ Cong.win; mss; flight = (fun () -> int_of_float win.Cong.cwnd); rtt }, win)

(* ------------------------------------------------------------------ *)
(* LIA *)

let test_lia_alpha_empty () =
  let g = Lia.make_group () in
  Alcotest.(check (float 1e-9)) "empty group" 1. (Lia.alpha g)

let test_lia_alpha_symmetric () =
  (* Two identical subflows: alpha = total * (c/r^2) / (2c/r)^2 = 1/2. *)
  let g = Lia.make_group () in
  let w1, _ = fake_window () and w2, _ = fake_window () in
  ignore (Lia.attach g w1);
  ignore (Lia.attach g w2);
  check_int "count" 2 (Lia.subflow_count g);
  Alcotest.(check (float 1e-9)) "alpha" 0.5 (Lia.alpha g)

let test_lia_alpha_n_symmetric () =
  (* n identical subflows: alpha = 1/n, so the aggregate grows like one
     TCP - the design goal of LIA. *)
  let g = Lia.make_group () in
  for _ = 1 to 8 do
    let w, _ = fake_window () in
    ignore (Lia.attach g w)
  done;
  Alcotest.(check (float 1e-9)) "alpha 1/8" 0.125 (Lia.alpha g)

let test_lia_increase_capped_by_uncoupled () =
  (* In congestion avoidance the coupled increase can never exceed what
     a standalone TCP would do on the same subflow. *)
  let g = Lia.make_group () in
  let w1, c1 = fake_window ~cwnd:14_000. ~ssthresh:7_000. () in
  let w2, _ = fake_window ~cwnd:140_000. ~ssthresh:7_000. () in
  let cc1 = Lia.attach g w1 in
  ignore (Lia.attach g w2);
  let before = c1.Cong.cwnd in
  cc1.Cong.on_ack ~acked:1400 ~ece:false;
  let coupled_inc = c1.Cong.cwnd -. before in
  (* Standalone byte-counted AIMD would add mss*mss/cwnd = 140 bytes. *)
  check_bool "capped" true (coupled_inc <= 140. +. 1e-9);
  check_bool "positive" true (coupled_inc > 0.)

let test_lia_slow_start_uncoupled () =
  let g = Lia.make_group () in
  let w, c = fake_window ~cwnd:2_800. ~ssthresh:100_000. () in
  let cc = Lia.attach g w in
  cc.Cong.on_ack ~acked:1400 ~ece:false;
  Alcotest.(check (float 1e-9)) "slow start adds acked" 4_200. c.Cong.cwnd

let test_lia_loss_halves () =
  let g = Lia.make_group () in
  let w, c = fake_window ~cwnd:14_000. ~ssthresh:100_000. () in
  let cc = Lia.attach g w in
  cc.Cong.on_loss Cong.Fast_retransmit;
  Alcotest.(check (float 1e-9)) "ssthresh = flight/2" 7_000. c.Cong.ssthresh;
  Alcotest.(check (float 1e-9)) "cwnd = ssthresh" 7_000. c.Cong.cwnd;
  cc.Cong.on_loss Cong.Timeout;
  Alcotest.(check (float 1e-9)) "timeout collapses to 1 mss" 1_400. c.Cong.cwnd

let test_lia_shifts_away_from_congested () =
  (* A subflow with a much larger RTT (a congested path) should receive
     a smaller coupled increase than the fast subflow. *)
  let g = Lia.make_group () in
  let wf, cf = fake_window ~cwnd:14_000. ~ssthresh:1. ~rtt_ms:0.5 () in
  let ws, cs = fake_window ~cwnd:14_000. ~ssthresh:1. ~rtt_ms:10. () in
  let ccf = Lia.attach g wf and ccs = Lia.attach g ws in
  let f0 = cf.Cong.cwnd and s0 = cs.Cong.cwnd in
  for _ = 1 to 10 do
    ccf.Cong.on_ack ~acked:1400 ~ece:false;
    ccs.Cong.on_ack ~acked:1400 ~ece:false
  done;
  (* Both windows are equal, so per-ack increases are equal; but the
     fast path gets 20x more ACKs per unit time in reality. Here we
     check the per-ack increase at least does not favour the slow
     path. *)
  check_bool "no bias to congested path" true (cf.Cong.cwnd -. f0 >= cs.Cong.cwnd -. s0 -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Dataplane *)

(* The plane's next chunk as [Some (dsn, len)], [None] when drained. *)
let pull_opt p ~max =
  let c = { Sim_tcp.Tcp_tx.dsn = -1; len = 0 } in
  if Dataplane.pull p c ~max then Some (c.Sim_tcp.Tcp_tx.dsn, c.Sim_tcp.Tcp_tx.len)
  else None

let test_dataplane_sequential_pull () =
  let sched = Scheduler.create () in
  let p = Dataplane.create ~sched ~size:3_000 ~on_complete:(fun () -> ()) in
  Alcotest.(check (option (pair int int))) "first" (Some (0, 1400)) (pull_opt p ~max:1400);
  Alcotest.(check (option (pair int int))) "second" (Some (1400, 1400)) (pull_opt p ~max:1400);
  Alcotest.(check (option (pair int int))) "tail" (Some (2800, 200)) (pull_opt p ~max:1400);
  Alcotest.(check (option (pair int int))) "drained" None (pull_opt p ~max:1400);
  check_bool "nothing unassigned" false (Dataplane.unassigned p);
  check_int "assigned" 3_000 (Dataplane.assigned p)

let test_dataplane_completion_once () =
  let sched = Scheduler.create () in
  let fired = ref 0 in
  let p = Dataplane.create ~sched ~size:1_000 ~on_complete:(fun () -> incr fired) in
  Dataplane.deliver p ~dsn:0 ~len:500;
  check_int "not yet" 0 !fired;
  Dataplane.deliver p ~dsn:500 ~len:500;
  check_int "fired" 1 !fired;
  Dataplane.deliver p ~dsn:0 ~len:1000;
  check_int "idempotent" 1 !fired;
  check_bool "complete" true (Dataplane.is_complete p)

let test_dataplane_duplicates_ignored () =
  let sched = Scheduler.create () in
  let p = Dataplane.create ~sched ~size:2_000 ~on_complete:(fun () -> ()) in
  Dataplane.deliver p ~dsn:0 ~len:1000;
  Dataplane.deliver p ~dsn:0 ~len:1000;
  check_int "unique bytes only" 1000 (Dataplane.received_bytes p);
  check_bool "incomplete" false (Dataplane.is_complete p)

let test_dataplane_out_of_order_delivery () =
  let sched = Scheduler.create () in
  let done_ = ref false in
  let p = Dataplane.create ~sched ~size:3_000 ~on_complete:(fun () -> done_ := true) in
  Dataplane.deliver p ~dsn:2_000 ~len:1_000;
  Dataplane.deliver p ~dsn:0 ~len:1_000;
  Dataplane.deliver p ~dsn:1_000 ~len:1_000;
  check_bool "completes out of order" true !done_

(* ------------------------------------------------------------------ *)
(* Connections *)

let test_mptcp_completes_direct () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let c =
    Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:70_000 ~subflows:4 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Mptcp_conn.is_complete c);
  check_int "bytes" 70_000 (Mptcp_conn.bytes_received c);
  check_int "subflows" 4 (Mptcp_conn.subflow_count c)

let test_mptcp_completes_fattree () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  let c =
    Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 20)
      ~size:200_000 ~subflows:8 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Mptcp_conn.is_complete c);
  check_int "bytes" 200_000 (Mptcp_conn.bytes_received c)

(* After warm-up and its handshake, a 70 KB MPTCP-8 transfer across
   the k=4 tree allocates at most one minor word per event (dev
   profile, -opaque). A first transfer on the same network grows the
   packet and event pools and the queue rings; the second one is
   measured from the moment all eight subflows are established, and
   what it still allocates is per connection (its send rings and span
   arrays, its completion record), not per event. *)
let test_mptcp_alloc_per_event () =
  let sched = Scheduler.create () in
  let net = Fattree.create ~sched (Fattree.default_params ~k:4 ~oversub:2 ()) in
  let transfer () =
    Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 20)
      ~size:70_000 ~subflows:8 ()
  in
  let warm = transfer () in
  Scheduler.run ~until:(Time.of_sec 5.) sched;
  check_bool "warm-up complete" true (Mptcp_conn.is_complete warm);
  let c = transfer () in
  let established () =
    let all = ref true in
    for i = 0 to 7 do
      if Sim_tcp.Tcp_tx.state (Mptcp_conn.subflow_tx c i) <> Sim_tcp.Tcp_tx.Established
      then all := false
    done;
    !all
  in
  while not (established ()) do
    Scheduler.run ~max_events:1 sched
  done;
  let e0 = Scheduler.events_processed sched in
  let w0 = Gc.minor_words () in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  let dw = Gc.minor_words () -. w0 in
  let events = Scheduler.events_processed sched - e0 in
  check_bool "complete" true (Mptcp_conn.is_complete c);
  check_bool "ran events" true (events > 500);
  let per_event = dw /. float_of_int events in
  if per_event > 1. then
    Alcotest.failf "%.0f minor words over %d events: %.2f words/event" dw events
      per_event

let test_mptcp_single_subflow_close_to_tcp () =
  let run_mptcp () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    let c =
      Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:100_000 ~subflows:1 ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    Option.get (Mptcp_conn.fct c)
  in
  let run_tcp () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    let f =
      Sim_tcp.Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:100_000 ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    Option.get (Sim_tcp.Flow.fct f)
  in
  let tm = Time.to_ms (run_mptcp ()) and tt = Time.to_ms (run_tcp ()) in
  check_bool "within 10%" true (Float.abs (tm -. tt) /. tt < 0.1)

let test_mptcp_multihomed_beats_tcp () =
  (* On a dual-homed fat-tree an 8-subflow connection can use both host
     NICs; single-path TCP cannot. This is the Roadmap claim about
     multi-homed topologies. *)
  let size = 4_000_000 in
  let run_proto n_subflows =
    let sched = Scheduler.create () in
    let net =
      Multihomed.create ~sched (Multihomed.default_params ~k:4 ~oversub:1 ())
    in
    let c =
      Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 12)
        ~size ~subflows:n_subflows ()
    in
    Scheduler.run ~until:(Time.of_sec 30.) sched;
    (Mptcp_conn.is_complete c, Option.map Time.to_ms (Mptcp_conn.fct c))
  in
  let ok8, t8 = run_proto 8 in
  let ok1, t1 = run_proto 1 in
  check_bool "both complete" true (ok8 && ok1);
  match (t8, t1) with
  | Some t8, Some t1 -> check_bool "8 subflows faster" true (t8 < t1 *. 0.8)
  | _ -> Alcotest.fail "missing fct"

let test_mptcp_uncoupled_runs () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let c =
    Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:50_000 ~subflows:4 ~coupled:false ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Mptcp_conn.is_complete c);
  check_bool "no lia alpha" true (Mptcp_conn.lia_alpha c = None)

let test_mptcp_random_loss_property =
  QCheck.Test.make ~name:"mptcp completes under random loss" ~count:15
    QCheck.(pair small_int (int_range 1 10))
    (fun (seed, percent) ->
      let sched = Scheduler.create () in
      let net = Dumbbell.direct ~sched () in
      let rng = Sim_engine.Rng.create ~seed in
      (* Drop data packets on the forward link with the given
         probability. *)
      Sim_net.Link.attach net.Topology.links.(0) (fun pkt ->
          if
            (not (Sim_net.Packet.is_data pkt))
            || Sim_engine.Rng.int rng 100 >= percent
          then Sim_net.Host.receive (Topology.host net 1) pkt);
      let c =
        Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
          ~size:50_000 ~subflows:4 ()
      in
      Scheduler.run ~until:(Time.of_sec 200.) sched;
      Mptcp_conn.is_complete c && Mptcp_conn.bytes_received c = 50_000)

let test_mptcp_invalid_subflows () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  Alcotest.check_raises "zero subflows"
    (Invalid_argument "Mptcp_conn.start: subflows must be >= 1") (fun () ->
      ignore
        (Mptcp_conn.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
           ~size:1 ~subflows:0 ()))

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_mptcp"
    [
      ( "lia",
        [
          Alcotest.test_case "alpha empty" `Quick test_lia_alpha_empty;
          Alcotest.test_case "alpha symmetric" `Quick test_lia_alpha_symmetric;
          Alcotest.test_case "alpha 1/n" `Quick test_lia_alpha_n_symmetric;
          Alcotest.test_case "capped by uncoupled" `Quick test_lia_increase_capped_by_uncoupled;
          Alcotest.test_case "slow start" `Quick test_lia_slow_start_uncoupled;
          Alcotest.test_case "loss response" `Quick test_lia_loss_halves;
          Alcotest.test_case "no bias to congested" `Quick test_lia_shifts_away_from_congested;
        ] );
      ( "dataplane",
        [
          Alcotest.test_case "sequential pull" `Quick test_dataplane_sequential_pull;
          Alcotest.test_case "completion once" `Quick test_dataplane_completion_once;
          Alcotest.test_case "duplicates" `Quick test_dataplane_duplicates_ignored;
          Alcotest.test_case "out of order" `Quick test_dataplane_out_of_order_delivery;
        ] );
      ( "connection",
        [
          Alcotest.test_case "completes direct" `Quick test_mptcp_completes_direct;
          Alcotest.test_case "completes fattree" `Quick test_mptcp_completes_fattree;
          Alcotest.test_case "1 subflow ~ tcp" `Quick test_mptcp_single_subflow_close_to_tcp;
          Alcotest.test_case "multihomed beats tcp" `Slow test_mptcp_multihomed_beats_tcp;
          Alcotest.test_case "uncoupled" `Quick test_mptcp_uncoupled_runs;
          Alcotest.test_case "invalid subflows" `Quick test_mptcp_invalid_subflows;
          qt test_mptcp_random_loss_property;
          Alcotest.test_case "at most one word per event" `Quick
            test_mptcp_alloc_per_event;
        ] );
    ]
