(* DCTCP controller tests: alpha dynamics on a synthetic window, and
   end-to-end behaviour over an ECN-marking bottleneck. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Pktqueue = Sim_net.Pktqueue
module Link = Sim_net.Link
module Cong = Sim_tcp.Cong
module Dctcp = Sim_dctcp.Dctcp
module Flow = Sim_tcp.Flow

let check_bool = Alcotest.(check bool)

let fake_window ?(mss = 1400) ?(cwnd = 14_000.) ?(ssthresh = 1.) () =
  let win = { Cong.cwnd; ssthresh } in
  let rtt = Sim_tcp.Rtt_estimator.create ~params:Sim_tcp.Tcp_params.default in
  Sim_tcp.Rtt_estimator.observe rtt (Time.of_ms 1.);
  ({ Cong.win; mss; flight = (fun () -> int_of_float win.Cong.cwnd); rtt }, win)

let feed cc ~acked ~ece n =
  for _ = 1 to n do
    cc.Cong.on_ack ~acked ~ece
  done

let test_alpha_starts_zero () =
  let w, _ = fake_window () in
  let cc = Dctcp.make w in
  Alcotest.(check (option (float 1e-9))) "alpha 0" (Some 0.) (Dctcp.alpha_of cc)

let test_alpha_rises_under_marking () =
  let w, _ = fake_window () in
  let cc = Dctcp.make w in
  (* Several fully-marked windows: alpha must climb towards 1. *)
  feed cc ~acked:1400 ~ece:true 100;
  match Dctcp.alpha_of cc with
  | Some a -> check_bool "alpha grew" true (a > 0.3)
  | None -> Alcotest.fail "no alpha"

let test_alpha_decays_when_clean () =
  let w, _ = fake_window () in
  let cc = Dctcp.make w in
  feed cc ~acked:1400 ~ece:true 50;
  let a1 = Option.get (Dctcp.alpha_of cc) in
  (* Clean traffic: alpha must decay geometrically. The window grows
     while clean, so updates get sparser - allow plenty of acks. *)
  feed cc ~acked:1400 ~ece:false 2_000;
  let a2 = Option.get (Dctcp.alpha_of cc) in
  check_bool
    (Printf.sprintf "alpha decayed (%.3f -> %.3f)" a1 a2)
    true
    (a2 < a1 /. 2.)

let test_marked_window_cuts_cwnd () =
  let w, c = fake_window ~cwnd:28_000. () in
  let cc = Dctcp.make w in
  let before = c.Cong.cwnd in
  feed cc ~acked:1400 ~ece:true 40;
  check_bool "cwnd reduced below growth path" true (c.Cong.cwnd < before +. 40. *. 140.)

let test_clean_window_grows () =
  let w, c = fake_window ~cwnd:14_000. ~ssthresh:1. () in
  let cc = Dctcp.make w in
  let before = c.Cong.cwnd in
  feed cc ~acked:1400 ~ece:false 20;
  check_bool "grows like reno" true (c.Cong.cwnd > before)

let test_loss_still_halves () =
  let w, c = fake_window ~cwnd:20_000. () in
  let cc = Dctcp.make w in
  cc.Cong.on_loss Cong.Fast_retransmit;
  Alcotest.(check (float 1e-9)) "ssthresh" 10_000. c.Cong.ssthresh;
  Alcotest.(check (float 1e-9)) "cwnd" 10_000. c.Cong.cwnd

let ecn_spec threshold =
  { Topology.default_link_spec with ecn_threshold = Some threshold }

let test_dctcp_flow_completes_with_marking () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ~spec:(ecn_spec Dctcp.recommended_marking_threshold) () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:2_000_000
      ~cc:(fun w -> Dctcp.make w)
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete f);
  let marked =
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.marked
  in
  check_bool "queue marked packets" true (marked > 0)

let test_dctcp_keeps_queue_short () =
  (* The signature DCTCP property: backlog hovers near the marking
     threshold instead of filling the buffer like Reno does. *)
  let run cc =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:3_000_000 ~cc ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    check_bool "complete" true (Flow.is_complete f);
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.max_backlog
  in
  let dctcp_backlog = run (fun w -> Dctcp.make w) in
  let reno_backlog = run Sim_tcp.Reno.make in
  check_bool
    (Printf.sprintf "dctcp backlog (%d) shorter than reno (%d)" dctcp_backlog
       reno_backlog)
    true
    (dctcp_backlog < reno_backlog)

let test_dctcp_avoids_loss_at_bottleneck () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:2_000_000
      ~cc:(fun w -> Dctcp.make w)
      ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "complete" true (Flow.is_complete f);
  Alcotest.(check int) "no drops"
    0
    (Pktqueue.stats (Link.queue net.Topology.links.(0))).Pktqueue.dropped

let test_back_to_back_runs_identical () =
  (* Regression for the old global alpha registry: a second identical
     run must see exactly the first one's dynamics, with no state
     carried over from the previous simulation. *)
  let run_once () =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched ~spec:(ecn_spec 17) () in
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:1_000_000
        ~cc:(fun w -> Dctcp.make w)
        ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    let st = Pktqueue.stats (Link.queue net.Topology.links.(0)) in
    ( Flow.is_complete f,
      st.Pktqueue.marked,
      st.Pktqueue.dropped,
      st.Pktqueue.max_backlog )
  in
  let r1 = run_once () in
  let r2 = run_once () in
  check_bool "identical marking/backlog trajectory" true (r1 = r2)

let () =
  Alcotest.run "sim_dctcp"
    [
      ( "alpha",
        [
          Alcotest.test_case "starts at zero" `Quick test_alpha_starts_zero;
          Alcotest.test_case "rises under marking" `Quick test_alpha_rises_under_marking;
          Alcotest.test_case "decays when clean" `Quick test_alpha_decays_when_clean;
        ] );
      ( "window",
        [
          Alcotest.test_case "marked window cuts" `Quick test_marked_window_cuts_cwnd;
          Alcotest.test_case "clean window grows" `Quick test_clean_window_grows;
          Alcotest.test_case "loss halves" `Quick test_loss_still_halves;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "completes with marking" `Quick test_dctcp_flow_completes_with_marking;
          Alcotest.test_case "keeps queue short" `Quick test_dctcp_keeps_queue_short;
          Alcotest.test_case "avoids loss" `Quick test_dctcp_avoids_loss_at_bottleneck;
          Alcotest.test_case "back-to-back runs identical" `Quick
            test_back_to_back_runs_identical;
        ] );
    ]
