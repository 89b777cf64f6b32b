(* Unit and property tests for packets, queues, links, ECMP. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Addr = Sim_net.Addr
module Packet = Sim_net.Packet
module Ecmp = Sim_net.Ecmp
module Pktqueue = Sim_net.Pktqueue
module Link = Sim_net.Link
module Layer = Sim_net.Layer
module Host = Sim_net.Host

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Hand-built packets/queues in these tests sit outside any one
   simulation; a file-level context supplies their ids. *)
let ctx = Sim_engine.Sim_ctx.create ()

let mk_pkt ?(src = 0) ?(dst = 1) ?(conn = 1) ?(subflow = 0) ?(src_port = 1000)
    ?(dst_port = 2000) ?(seq = 0) ?(ack_seq = 0) ?(len = 1000)
    ?(bits = Packet.data_bits) () =
  Packet.make ~ctx ~src:(Addr.of_int src) ~dst:(Addr.of_int dst) ~conn ~subflow
    ~src_port ~dst_port ~seq ~ack_seq ~len ~bits ~dsn:(-1)

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_size () =
  let p = mk_pkt ~len:1400 () in
  check_int "wire size includes header" (1400 + Packet.header_bytes) p.Packet.size

let test_packet_uids_unique () =
  let a = mk_pkt () and b = mk_pkt () in
  check_bool "distinct uids" true (a.Packet.uid <> b.Packet.uid)

let test_packet_classify () =
  let data = mk_pkt ~len:100 () in
  check_bool "data" true (Packet.is_data data);
  check_bool "data not ack" false (Packet.is_pure_ack data);
  let ack = mk_pkt ~len:0 ~bits:Packet.pure_ack_bits () in
  check_bool "pure ack" true (Packet.is_pure_ack ack)

(* --- pool ownership & sanitizer ---------------------------------- *)

let test_pool_copy_independent () =
  let p = mk_pkt ~seq:500 ~len:700 () in
  p.Packet.sack.(0) <- 100;
  p.Packet.sack.(1) <- 200;
  p.Packet.sack_count <- 1;
  let c = Packet.copy ~ctx p in
  Packet.free ~ctx p;
  (* The copy owns its record: freeing (and, in debug, poisoning) the
     original must not be observable through it. *)
  check_int "seq survives original's free" 500 c.Packet.seq;
  check_int "len survives original's free" 700 c.Packet.len;
  Alcotest.(check (list (pair int int)))
    "sack blocks survive original's free" [ (100, 200) ]
    (Packet.sack_blocks c)

let test_pool_fresh_uid_on_reuse () =
  let a = mk_pkt () in
  let uid_a = a.Packet.uid in
  Packet.free ~ctx a;
  let b = mk_pkt () in
  (* LIFO freelist: the record just freed is the one reissued... *)
  check_bool "record is physically reused" true (b == a);
  (* ...but with a fresh uid, so uid sequences are identical with or
     without reuse. *)
  check_bool "fresh uid on reuse" true (b.Packet.uid <> uid_a)

let test_pool_sack_isolation () =
  let a = mk_pkt () in
  a.Packet.sack.(0) <- 100;
  a.Packet.sack.(1) <- 200;
  a.Packet.sack_count <- 1;
  let c = Packet.copy ~ctx a in
  Packet.free ~ctx a;
  let b = mk_pkt () in
  (* [b] reuses [a]'s record: its SACK state must be reset, not the
     stale (in debug: poisoned) scratch contents. *)
  check_int "reused packet has no sack blocks" 0 b.Packet.sack_count;
  Alcotest.(check (list (pair int int)))
    "sack_blocks empty after reuse" [] (Packet.sack_blocks b);
  (* And the copy's scratch array is its own, not shared with the
     recycled record. *)
  b.Packet.sack.(0) <- 7;
  Alcotest.(check (list (pair int int)))
    "copy's sack unaffected by reuse" [ (100, 200) ]
    (Packet.sack_blocks c)

let test_pool_sanitizer_catches_uaf () =
  (* Plant a deliberate use-after-free and a double free; in debug
     profiles the sanitizer must turn both into Invalid_argument. In
     release (sanitizer compiled out) the test is vacuous — skip
     rather than corrupt the pool. *)
  if Packet.sanitizer then begin
    let p = mk_pkt () in
    Packet.free ~ctx p;
    check_bool "accessor raises on freed packet" true
      (match Packet.is_data p with
      | _ -> false
      | exception Invalid_argument _ -> true);
    check_bool "double free raises" true
      (match Packet.free ~ctx p with
      | () -> false
      | exception Invalid_argument _ -> true)
  end

let test_pool_live_counter () =
  if Packet.sanitizer then begin
    let ctx = Sim_engine.Sim_ctx.create () in
    let mk () =
      Packet.make ~ctx ~src:(Addr.of_int 0) ~dst:(Addr.of_int 1) ~conn:1
        ~subflow:0 ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0 ~len:0
        ~bits:Packet.data_bits ~dsn:(-1)
    in
    check_int "starts balanced" 0 (Sim_engine.Sim_ctx.pool_live ctx);
    let a = mk () in
    let b = mk () in
    check_int "two live" 2 (Sim_engine.Sim_ctx.pool_live ctx);
    Packet.free ~ctx a;
    Packet.free ~ctx b;
    check_int "clean teardown balances to zero" 0
      (Sim_engine.Sim_ctx.pool_live ctx)
  end

let test_addr () =
  check_int "round trip" 5 (Addr.to_int (Addr.of_int 5));
  check_bool "equal" true (Addr.equal (Addr.of_int 3) (Addr.of_int 3));
  Alcotest.check_raises "negative" (Invalid_argument "Addr.of_int: negative")
    (fun () -> ignore (Addr.of_int (-1)))

(* ------------------------------------------------------------------ *)
(* ECMP *)

let test_ecmp_deterministic () =
  let p = mk_pkt () in
  check_int "same packet, same choice"
    (Ecmp.select p ~salt:3 ~n:8)
    (Ecmp.select p ~salt:3 ~n:8)

let test_ecmp_flow_consistent () =
  (* Two packets of the same 5-tuple hash identically regardless of
     payload. *)
  let a = mk_pkt ~len:100 () and b = mk_pkt ~len:1400 () in
  check_int "flow-consistent" (Ecmp.select a ~salt:9 ~n:4) (Ecmp.select b ~salt:9 ~n:4)

let prop_ecmp_in_range =
  QCheck.Test.make ~name:"ecmp select in range" ~count:500
    QCheck.(quad small_int small_int small_int (int_range 1 64))
    (fun (sport, dport, salt, n) ->
      let p =
        mk_pkt ~src:1 ~dst:2 ~src_port:sport ~dst_port:dport ~len:10 ()
      in
      let v = Ecmp.select p ~salt ~n in
      v >= 0 && v < n)

let prop_ecmp_pure_function =
  (* Path selection is a pure function of (5-tuple, salt): distinct
     packet objects with distinct uids and payload sizes, and repeated
     evaluations, all agree. This is the property the parallel runner
     leans on — spraying must not depend on allocation order or
     anything else ambient. *)
  QCheck.Test.make ~name:"ecmp pure function of (5-tuple, salt)" ~count:500
    QCheck.(
      pair
        (quad small_int small_int small_int small_int)
        (pair small_int (int_range 1 64)))
    (fun ((src, dst, sport, dport), (salt, n)) ->
      let mk len =
        mk_pkt ~src ~dst ~src_port:sport ~dst_port:dport ~len ()
      in
      let a = mk 10 and b = mk 1000 in
      let first = Ecmp.select a ~salt ~n in
      first = Ecmp.select b ~salt ~n
      && first = Ecmp.select a ~salt ~n
      && Ecmp.flow_hash a = Ecmp.flow_hash b)

let test_ecmp_hash_golden () =
  (* Pinned outputs of the stable hash (simlint rule D003 rationale):
     these exact values must survive compiler and stdlib upgrades. If
     one changes, every sprayed packet re-routes and every figure
     silently shifts — fail loudly here instead. *)
  List.iter
    (fun ((src, dst, sport, dport, salt), expected) ->
      check_int
        (Printf.sprintf "hash(%d,%d,%d,%d salt=%d)" src dst sport dport salt)
        expected
        (Ecmp.hash_fields ~src ~dst ~sport ~dport ~salt))
    [
      ((0, 0, 0, 0, 0), 0);
      ((1, 2, 1000, 2000, 0), 3557164111517134063);
      ((1, 2, 1000, 2000, 7), 263550837379141819);
      ((17, 3, 49152, 80, 1), 93383986432196622);
      ((511, 12, 60000, 443, 255), 4529278519970514627);
    ]

let prop_ecmp_not_polymorphic_hash =
  (* The stable hash must not delegate to [Hashtbl.hash]: tracking the
     polymorphic hash under any obvious packing would re-introduce the
     compiler-version dependence D003 exists to prevent. *)
  QCheck.Test.make ~name:"ecmp hash independent of Hashtbl.hash" ~count:200
    QCheck.(quad small_int small_int small_int small_int)
    (fun (src, dst, sport, dport) ->
      let h = Ecmp.hash_fields ~src ~dst ~sport ~dport ~salt:0 in
      h <> Hashtbl.hash (src, dst, sport, dport)
      && h <> Hashtbl.hash [| src; dst; sport; dport |]
      && h <> Hashtbl.hash [ src; dst; sport; dport ])

let test_ecmp_port_spread () =
  (* Per-packet source-port randomisation must spread over all
     next-hops: the core mechanism of the scatter phase. *)
  let n = 8 in
  let counts = Array.make n 0 in
  for sport = 1000 to 1999 do
    let p = mk_pkt ~src:1 ~dst:2 ~src_port:sport ~len:10 () in
    let i = Ecmp.select p ~salt:0 ~n in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool (Printf.sprintf "bucket %d populated reasonably" i) true
        (c > 60 && c < 190))
    counts

let test_ecmp_salts_decorrelate () =
  (* The same flow should not pick the same index at every switch. *)
  let p = mk_pkt () in
  let choices = List.init 32 (fun salt -> Ecmp.select p ~salt ~n:4) in
  check_bool "not all equal" true
    (List.exists (fun c -> c <> List.hd choices) (List.tl choices))

(* ------------------------------------------------------------------ *)
(* Pktqueue *)

let test_queue_fifo () =
  let q = Pktqueue.create ~ctx ~capacity:10 ~layer:Layer.Core_layer () in
  let a = mk_pkt () and b = mk_pkt () in
  check_bool "enq a" true (Pktqueue.enqueue q a);
  check_bool "enq b" true (Pktqueue.enqueue q b);
  check_bool "fifo order" true
    (match Pktqueue.dequeue q with Some p -> p == a | None -> false);
  check_bool "fifo order 2" true
    (match Pktqueue.dequeue q with Some p -> p == b | None -> false);
  check_bool "drained" true (Pktqueue.dequeue q = None)

let test_queue_drop_tail () =
  let q = Pktqueue.create ~ctx ~capacity:2 ~layer:Layer.Core_layer () in
  check_bool "1 fits" true (Pktqueue.enqueue q (mk_pkt ()));
  check_bool "2 fits" true (Pktqueue.enqueue q (mk_pkt ()));
  check_bool "3 dropped" false (Pktqueue.enqueue q (mk_pkt ()));
  let st = Pktqueue.stats q in
  check_int "drop counted" 1 st.Pktqueue.dropped;
  check_int "enq counted" 2 st.Pktqueue.enqueued

let test_queue_backlog_accounting () =
  let q = Pktqueue.create ~ctx ~capacity:10 ~layer:Layer.Edge_layer () in
  let p = mk_pkt ~len:960 () in
  ignore (Pktqueue.enqueue q p);
  check_int "backlog pkts" 1 (Pktqueue.backlog_pkts q);
  check_int "backlog bytes" 1000 (Pktqueue.backlog_bytes q);
  ignore (Pktqueue.dequeue q);
  check_int "empty bytes" 0 (Pktqueue.backlog_bytes q)

let test_queue_ecn_marks () =
  let q = Pktqueue.create ~ctx ~ecn_threshold:2 ~capacity:10 ~layer:Layer.Core_layer () in
  let p1 = mk_pkt () and p2 = mk_pkt () and p3 = mk_pkt () in
  ignore (Pktqueue.enqueue q p1);
  ignore (Pktqueue.enqueue q p2);
  ignore (Pktqueue.enqueue q p3);
  check_bool "below threshold unmarked" false p1.Packet.ce;
  check_bool "below threshold unmarked 2" false p2.Packet.ce;
  check_bool "at threshold marked" true p3.Packet.ce;
  check_int "marked count" 1 (Pktqueue.stats q).Pktqueue.marked

let prop_queue_never_exceeds_capacity =
  QCheck.Test.make ~name:"queue backlog <= capacity" ~count:200
    QCheck.(pair (int_range 1 20) (list bool))
    (fun (cap, ops) ->
      let q = Pktqueue.create ~ctx ~capacity:cap ~layer:Layer.Host_layer () in
      List.iter
        (fun enq ->
          if enq then ignore (Pktqueue.enqueue q (mk_pkt ()))
          else ignore (Pktqueue.dequeue q))
        ops;
      Pktqueue.backlog_pkts q <= cap)

(* ------------------------------------------------------------------ *)
(* RED *)

let test_red_accepts_below_min () =
  let q =
    Pktqueue.create ~ctx ~red:Pktqueue.default_red ~capacity:100
      ~layer:Layer.Core_layer ()
  in
  for _ = 1 to 4 do
    check_bool "accepted below min_th" true (Pktqueue.enqueue q (mk_pkt ()))
  done;
  check_int "no drops" 0 (Pktqueue.stats q).Pktqueue.dropped

let test_red_drops_early () =
  (* Hold the instantaneous queue above max_th with a fast EWMA: RED
     must drop long before the physical capacity. *)
  let red = { Pktqueue.default_red with Pktqueue.weight = 1.0 } in
  let q = Pktqueue.create ~ctx ~red ~capacity:1_000 ~layer:Layer.Core_layer () in
  let accepted = ref 0 in
  for _ = 1 to 100 do
    if Pktqueue.enqueue q (mk_pkt ()) then incr accepted
  done;
  check_bool "dropped early" true ((Pktqueue.stats q).Pktqueue.dropped > 0);
  check_bool "backlog held near max_th" true (Pktqueue.backlog_pkts q < 30)

let test_red_mark_mode_marks_instead () =
  let red = { Pktqueue.default_red with Pktqueue.weight = 1.0; mark = true } in
  let q = Pktqueue.create ~ctx ~red ~capacity:1_000 ~layer:Layer.Core_layer () in
  for _ = 1 to 100 do
    ignore (Pktqueue.enqueue q (mk_pkt ()))
  done;
  check_int "nothing dropped" 0 (Pktqueue.stats q).Pktqueue.dropped;
  check_bool "packets marked" true ((Pktqueue.stats q).Pktqueue.marked > 0)

let test_red_average_tracks () =
  let red = { Pktqueue.default_red with Pktqueue.weight = 0.5 } in
  let q = Pktqueue.create ~ctx ~red ~capacity:1_000 ~layer:Layer.Core_layer () in
  check_bool "starts at zero" true (Pktqueue.red_average q = 0.);
  for _ = 1 to 5 do
    ignore (Pktqueue.enqueue q (mk_pkt ()))
  done;
  check_bool "average rose" true (Pktqueue.red_average q > 0.)

let test_red_invalid_params () =
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Pktqueue.create: bad RED thresholds") (fun () ->
      ignore
        (Pktqueue.create ~ctx
           ~red:{ Pktqueue.default_red with Pktqueue.min_th = 10; max_th = 10 }
           ~capacity:100 ~layer:Layer.Core_layer ()))

(* ------------------------------------------------------------------ *)
(* Link *)

(* Timing-sensitive tests use jitterless links so arrival instants are
   exact. *)
let make_link ?(rate = 100e6) ?(delay = Time.of_us 20.) ?(cap = 10) sched =
  let queue = Pktqueue.create ~ctx ~capacity:cap ~layer:Layer.Core_layer () in
  Link.create ~jitter:Time.zero ~sched ~rate_bps:rate ~delay ~queue ~id:0 ()

let test_link_delivery_time () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  let arrival = ref Time.zero in
  Link.attach link (fun _ -> arrival := Scheduler.now sched);
  (* 1000B at 100 Mb/s = 80 us serialisation + 20 us propagation. *)
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run sched;
  Alcotest.(check (float 0.01)) "tx + prop delay" 100. (Time.to_us !arrival)

let test_link_pipelining () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  let times = ref [] in
  Link.attach link (fun _ -> times := Time.to_us (Scheduler.now sched) :: !times);
  Link.send link (mk_pkt ~len:960 ());
  Link.send link (mk_pkt ~len:960 ());
  Scheduler.run sched;
  (* Second packet starts serialising when the first finishes: arrivals
     at 100 us and 180 us. *)
  Alcotest.(check (list (float 0.01))) "pipelined arrivals" [ 100.; 180. ]
    (List.rev !times)

let test_link_drop_when_full () =
  let sched = Scheduler.create () in
  let link = make_link ~cap:2 sched in
  let received = ref 0 in
  Link.attach link (fun _ -> incr received);
  (* First packet dequeues immediately into the transmitter, so
     capacity 2 queues two more; the 4th is dropped. *)
  for _ = 1 to 4 do
    Link.send link (mk_pkt ())
  done;
  Scheduler.run sched;
  check_int "3 delivered" 3 !received;
  check_int "1 dropped" 1 (Pktqueue.stats (Link.queue link)).Pktqueue.dropped

let test_link_utilisation () =
  let sched = Scheduler.create () in
  let link = make_link ~delay:Time.zero sched in
  let sink = ref 0 in
  Link.attach link (fun _ -> incr sink);
  for _ = 1 to 5 do
    Link.send link (mk_pkt ~len:960 ())
  done;
  Scheduler.run sched;
  (* 5 packets x 80us back to back: busy the whole time. *)
  let u = Link.utilisation link ~now:(Scheduler.now sched) in
  check_bool "fully utilised" true (u > 0.99 && u <= 1.01)

let test_link_requires_attach () =
  let sched = Scheduler.create () in
  let link = make_link sched in
  Alcotest.check_raises "unattached" (Failure "Link.send: no receiver attached")
    (fun () -> Link.send link (mk_pkt ()))

(* ------------------------------------------------------------------ *)
(* Host *)

let test_host_demux () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 9) in
  let got = ref [] in
  Host.bind h ~conn:7 (fun p -> got := p.Packet.conn :: !got);
  let p7 = mk_pkt ~src:0 ~dst:9 ~conn:7 ~len:1 () in
  let p8 = mk_pkt ~src:0 ~dst:9 ~conn:8 ~len:1 () in
  Host.receive h p7;
  Host.receive h p8;
  Alcotest.(check (list int)) "bound conn delivered" [ 7 ] !got;
  check_int "unmatched counted" 1 (Host.unmatched h)

let test_host_double_bind_rejected () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Host.bind h ~conn:1 ignore;
  Alcotest.check_raises "double bind"
    (Invalid_argument "Host.bind: connection id already bound") (fun () ->
      Host.bind h ~conn:1 ignore)

let test_host_unbind () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Host.bind h ~conn:1 ignore;
  Host.unbind h ~conn:1;
  Host.bind h ~conn:1 ignore;
  check_int "no unmatched" 0 (Host.unmatched h)

let test_host_needs_nic () =
  let sched = Scheduler.create () in
  let h = Host.create ~sched ~addr:(Addr.of_int 1) in
  Alcotest.check_raises "no nic" (Failure "Host.send: host has no NIC") (fun () ->
      Host.send h (mk_pkt ()))

(* ------------------------------------------------------------------ *)
(* Flow monitor *)

module Flowmon = Sim_net.Flowmon
module Topology = Sim_net.Topology
module Dumbbell = Sim_net.Dumbbell
module Flow = Sim_tcp.Flow

let test_flowmon_accounts_bytes () =
  let sched = Scheduler.create () in
  let net = Dumbbell.direct ~sched () in
  let fm = Flowmon.attach net in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:70_000 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "flow complete" true (Flow.is_complete f);
  match Flowmon.conn_stats fm ~conn:(Flow.conn f) with
  | None -> Alcotest.fail "no stats for connection"
  | Some s ->
    (* 50 segments, one hop, payload + headers. *)
    check_int "segments" 50 s.Flowmon.tx_packets;
    check_int "bytes include headers" (70_000 + (50 * 40)) s.Flowmon.tx_bytes;
    check_int "no drops" 0 s.Flowmon.drops;
    check_int "no retransmissions" 0 s.Flowmon.retransmitted_segments

let test_flowmon_counts_drops_and_rtx () =
  let sched = Scheduler.create () in
  let spec = { Topology.default_link_spec with queue_capacity = 5 } in
  let net = Dumbbell.direct ~sched ~spec () in
  let fm = Flowmon.attach net in
  let f =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
      ~size:700_000 ()
  in
  Scheduler.run ~until:(Time.of_sec 30.) sched;
  check_bool "flow complete despite tiny queue" true (Flow.is_complete f);
  match Flowmon.conn_stats fm ~conn:(Flow.conn f) with
  | None -> Alcotest.fail "no stats"
  | Some s ->
    check_bool "observed drops" true (s.Flowmon.drops > 0);
    check_bool "observed retransmissions" true (s.Flowmon.retransmitted_segments > 0);
    check_int "drops equal monitor total" (Flowmon.total_drops fm) s.Flowmon.drops

let test_flowmon_top_talkers () =
  let sched = Scheduler.create () in
  let net = Dumbbell.create ~sched ~pairs:2 () in
  let fm = Flowmon.attach net in
  let big =
    Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 2)
      ~size:500_000 ()
  in
  let small =
    Flow.start ~src:(Topology.host net 1) ~dst:(Topology.host net 3)
      ~size:10_000 ()
  in
  Scheduler.run ~until:(Time.of_sec 10.) sched;
  check_bool "both done" true (Flow.is_complete big && Flow.is_complete small);
  match Flowmon.top_talkers fm ~n:1 with
  | [ (conn, _) ] -> check_int "big flow leads" (Flow.conn big) conn
  | _ -> Alcotest.fail "expected exactly one top talker"

let test_flowmon_passive () =
  (* Attaching a monitor must not change outcomes. *)
  let run monitored =
    let sched = Scheduler.create () in
    let net = Dumbbell.direct ~sched () in
    if monitored then ignore (Flowmon.attach net);
    let f =
      Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:70_000 ()
    in
    Scheduler.run ~until:(Time.of_sec 10.) sched;
    Option.map Time.to_ns (Flow.fct f)
  in
  check_bool "same fct" true (run true = run false)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "sim_net"
    [
      ( "packet",
        [
          Alcotest.test_case "wire size" `Quick test_packet_size;
          Alcotest.test_case "unique uids" `Quick test_packet_uids_unique;
          Alcotest.test_case "classification" `Quick test_packet_classify;
          Alcotest.test_case "copy independent of freed original" `Quick
            test_pool_copy_independent;
          Alcotest.test_case "fresh uid on pool reuse" `Quick
            test_pool_fresh_uid_on_reuse;
          Alcotest.test_case "sack scratch isolation" `Quick
            test_pool_sack_isolation;
          Alcotest.test_case "sanitizer catches use-after-free" `Quick
            test_pool_sanitizer_catches_uaf;
          Alcotest.test_case "pool live counter balances" `Quick
            test_pool_live_counter;
          Alcotest.test_case "addresses" `Quick test_addr;
        ] );
      ( "ecmp",
        [
          Alcotest.test_case "deterministic" `Quick test_ecmp_deterministic;
          Alcotest.test_case "flow consistent" `Quick test_ecmp_flow_consistent;
          Alcotest.test_case "port randomisation spreads" `Quick test_ecmp_port_spread;
          Alcotest.test_case "salts decorrelate" `Quick test_ecmp_salts_decorrelate;
          Alcotest.test_case "stable hash golden values" `Quick test_ecmp_hash_golden;
          qt prop_ecmp_in_range;
          qt prop_ecmp_pure_function;
          qt prop_ecmp_not_polymorphic_hash;
        ] );
      ( "pktqueue",
        [
          Alcotest.test_case "fifo" `Quick test_queue_fifo;
          Alcotest.test_case "drop tail" `Quick test_queue_drop_tail;
          Alcotest.test_case "backlog accounting" `Quick test_queue_backlog_accounting;
          Alcotest.test_case "ecn marking" `Quick test_queue_ecn_marks;
          qt prop_queue_never_exceeds_capacity;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery time" `Quick test_link_delivery_time;
          Alcotest.test_case "pipelining" `Quick test_link_pipelining;
          Alcotest.test_case "drop when full" `Quick test_link_drop_when_full;
          Alcotest.test_case "utilisation" `Quick test_link_utilisation;
          Alcotest.test_case "requires attach" `Quick test_link_requires_attach;
        ] );
      ( "host",
        [
          Alcotest.test_case "demux" `Quick test_host_demux;
          Alcotest.test_case "double bind rejected" `Quick test_host_double_bind_rejected;
          Alcotest.test_case "unbind" `Quick test_host_unbind;
          Alcotest.test_case "needs nic" `Quick test_host_needs_nic;
        ] );
      ( "red",
        [
          Alcotest.test_case "accepts below min" `Quick test_red_accepts_below_min;
          Alcotest.test_case "drops early" `Quick test_red_drops_early;
          Alcotest.test_case "mark mode" `Quick test_red_mark_mode_marks_instead;
          Alcotest.test_case "average tracks" `Quick test_red_average_tracks;
          Alcotest.test_case "invalid params" `Quick test_red_invalid_params;
        ] );
      ( "flowmon",
        [
          Alcotest.test_case "accounts bytes" `Quick test_flowmon_accounts_bytes;
          Alcotest.test_case "drops and rtx" `Quick test_flowmon_counts_drops_and_rtx;
          Alcotest.test_case "top talkers" `Quick test_flowmon_top_talkers;
          Alcotest.test_case "passive" `Quick test_flowmon_passive;
        ] );
    ]
