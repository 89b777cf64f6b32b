(* Engine micro-benchmarks: the three hot paths the timer-wheel work
   targets, measured in isolation so a regression shows up here before
   it shows up as minutes on the full fig1a run.

   - churn:*      schedule/cancel/re-arm cost of the timer population,
                  heap-only (tombstones) vs scheduler (wheel + Timer)
   - packet:*     one serialise-then-deliver hop through a Link, and a
                  complete short TCP transfer
   - fig1a:inner  one tiny-scale MMPTCP scenario — the inner loop the
                  fig1a experiment repeats per (size, protocol) point

   Default mode runs bechamel and writes per-benchmark estimates to
   BENCH_engine.json (override with --out FILE). --smoke executes every
   benchmark body once and exits — CI uses it to keep the suite
   compiling and running without paying measurement time. *)

module Stime = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Event_heap = Sim_engine.Event_heap
module Scale = Sim_experiments.Scale
module Scenario = Sim_workload.Scenario

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* churn: the RTO pattern — arm a timer far out, cancel or re-arm it
   shortly after, so almost nothing ever fires. *)

let timers = 512
let rounds = 8

(* Heap-only churn: every cancel leaves a tombstone behind, every
   re-arm is a fresh push; this is what the scheduler did before the
   wheel, minus closure allocation. *)
let churn_heap () =
  let h = Event_heap.create () in
  let seq = ref 0 in
  for round = 0 to rounds - 1 do
    for i = 0 to timers - 1 do
      let due = ((round * timers) + i + 200) * 1_000 in
      Event_heap.push h ~time:due ~seq:!seq i;
      incr seq
    done
  done;
  (* Drain: all but the last round's cells are stale. *)
  while Event_heap.top_time h <> max_int do
    Event_heap.drop h
  done

(* Scheduler churn: same pattern through the real API — one re-armable
   Timer per flow, re-armed [rounds] times; cancels unlink from the
   wheel in O(1) instead of leaving tombstones. *)
let churn_sched () =
  let sched = Scheduler.create () in
  let tms =
    Array.init timers (fun _ -> Scheduler.Timer.create sched ignore ())
  in
  for round = 0 to rounds - 1 do
    for i = 0 to timers - 1 do
      let due = ((round * timers) + i + 200) * 1_000 in
      Scheduler.Timer.schedule_at tms.(i) (Stime.of_ns due)
    done
  done;
  Array.iter Scheduler.Timer.cancel tms;
  Scheduler.run sched

(* ------------------------------------------------------------------ *)
(* packet path *)

let packet_hop () =
  let sched = Scheduler.create () in
  let queue =
    Sim_net.Pktqueue.create
      ~ctx:(Scheduler.ctx sched)
      ~capacity:128 ~layer:Sim_net.Layer.Edge_layer ()
  in
  let link =
    Sim_net.Link.create ~jitter:Stime.zero ~sched ~rate_bps:10e9
      ~delay:(Stime.of_us 1.) ~queue ~id:0 ()
  in
  let got = ref 0 in
  Sim_net.Link.attach link (fun _ -> incr got);
  let ctx = Scheduler.ctx sched in
  for _ = 0 to 63 do
    let pkt =
      Sim_net.Packet.make ~ctx ~src:(Sim_net.Addr.of_int 1)
        ~dst:(Sim_net.Addr.of_int 2) ~conn:1 ~subflow:0 ~src_port:1234
        ~dst_port:80 ~seq:0 ~ack_seq:0 ~len:1400
        ~bits:Sim_net.Packet.data_bits ~dsn:0
    in
    Sim_net.Link.send link pkt
  done;
  Scheduler.run sched;
  assert (!got = 64)

let tcp_transfer () =
  let sched = Scheduler.create () in
  let net = Sim_net.Dumbbell.direct ~sched () in
  let f =
    Sim_tcp.Flow.start
      ~src:(Sim_net.Topology.host net 0)
      ~dst:(Sim_net.Topology.host net 1)
      ~size:70_000 ()
  in
  Scheduler.run ~until:(Stime.of_sec 5.) sched;
  assert (Sim_tcp.Flow.is_complete f)

(* Same transfer with the probe sampler armed at 100 us: bounds the
   cost of observing a simulation. The unprobed tcp-70KB case above is
   the disabled-registry baseline — every component now carries its
   one [active]/[want_conn] branch, so any drift in that number
   against the recorded BENCH_engine.json is the overhead of having
   the metrics registry present but off (target: within noise). *)
let tcp_transfer_probed () =
  let sched = Scheduler.create () in
  let probe =
    Sim_engine.Probe.create sched ~interval:(Stime.of_us 100.)
  in
  Sim_engine.Probe.start probe;
  let net = Sim_net.Dumbbell.direct ~sched () in
  let f =
    Sim_tcp.Flow.start
      ~src:(Sim_net.Topology.host net 0)
      ~dst:(Sim_net.Topology.host net 1)
      ~size:70_000 ()
  in
  Scheduler.run ~until:(Stime.of_sec 5.) sched;
  assert (Sim_tcp.Flow.is_complete f);
  let c = Sim_engine.Probe.capture probe in
  assert (Array.length c.Sim_obs.Capture.samples > 0)

(* Same transfer with the flow ledger recording: bounds the cost of
   per-flow lifecycle accounting on the packet path. The unledgered
   packet:tcp-70KB case is the A side of the A/B — the ledger hooks
   are present but disabled there, so any drift in that number against
   the recorded BENCH_engine.json is the price of having the ledger
   compiled in and off (target: within noise). *)
let tcp_transfer_ledgered () =
  let sched = Scheduler.create () in
  let ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched) in
  Sim_obs.Flow_ledger.enable ledger ~clock_ns:(fun () ->
      Stime.to_ns (Scheduler.now sched));
  let net = Sim_net.Dumbbell.direct ~sched () in
  let f =
    Sim_tcp.Flow.start
      ~src:(Sim_net.Topology.host net 0)
      ~dst:(Sim_net.Topology.host net 1)
      ~size:70_000 ()
  in
  Sim_obs.Flow_ledger.on_start ledger ~conn:(Sim_tcp.Flow.conn f) ~src:0 ~dst:1
    ~size:70_000 ~long:false;
  Scheduler.run ~until:(Stime.of_sec 5.) sched;
  assert (Sim_tcp.Flow.is_complete f);
  assert (Sim_obs.Flow_ledger.count ledger = 1)

(* ------------------------------------------------------------------ *)
(* fig1a inner loop: one MMPTCP scenario at tiny scale — what the
   fig1a experiment runs once per (flow-size, protocol) point. *)

let fig1a_inner () =
  let cfg =
    Scale.scenario_config Scale.tiny
      ~protocol:(Scenario.Mmptcp_proto Mmptcp.Strategy.default)
  in
  ignore (Scenario.run cfg)

(* ------------------------------------------------------------------ *)
(* fluid path: the flow-level engine end to end — 10k short transfers
   over 64 shared links, staggered arrivals, light load. Exercises the
   allocator's incremental water-fill, the quantum-batched flush timer
   and the closed-form byte integration; this is the per-flow cost the
   ext-scale experiment multiplies by 10^5. *)

let fluid_flows () =
  let sched = Scheduler.create () in
  let eng = Sim_fluid.Engine.make ~sched ~cap_bps:(Array.make 64 1e9) () in
  let completed = ref 0 in
  let arrivals =
    Scheduler.Event.pool sched ~fire:(fun i ->
        ignore
          (Sim_fluid.Engine.start eng
             ~legs:
               [|
                 {
                   Sim_fluid.Engine.path = [| i mod 32; 32 + (i * 7 mod 32) |];
                   weight = 1.;
                   rtt_s = 1e-4;
                 };
               |]
             ~size:70_000
             ~on_complete:(fun _ -> incr completed)
             ()))
  in
  for i = 0 to 9_999 do
    ignore
      (Scheduler.Event.schedule_at arrivals (Stime.of_us (float_of_int i *. 100.)) i)
  done;
  Scheduler.run sched;
  assert (!completed = 10_000)

(* The same 10k-flow fluid drive with the ledger recording every
   lifecycle: per-flow cost of a ledger cell plus the hook writes the
   engine makes (handshake, completion) — what `--ledger` adds to an
   ext-scale-sized run. *)
let ledger_fluid_flows () =
  let sched = Scheduler.create () in
  let ledger = Sim_engine.Sim_ctx.ledger (Scheduler.ctx sched) in
  Sim_obs.Flow_ledger.enable ledger ~clock_ns:(fun () ->
      Stime.to_ns (Scheduler.now sched));
  let eng = Sim_fluid.Engine.make ~sched ~cap_bps:(Array.make 64 1e9) () in
  let completed = ref 0 in
  let arrivals =
    Scheduler.Event.pool sched ~fire:(fun i ->
        let c =
          Sim_fluid.Engine.start eng
            ~legs:
              [|
                {
                  Sim_fluid.Engine.path = [| i mod 32; 32 + (i * 7 mod 32) |];
                  weight = 1.;
                  rtt_s = 1e-4;
                };
              |]
            ~size:70_000
            ~on_complete:(fun _ -> incr completed)
            ()
        in
        Sim_obs.Flow_ledger.on_start ledger ~conn:(Sim_fluid.Engine.conn_id c)
          ~src:(i mod 32)
          ~dst:(32 + (i * 7 mod 32))
          ~size:70_000 ~long:false)
  in
  for i = 0 to 9_999 do
    ignore
      (Scheduler.Event.schedule_at arrivals (Stime.of_us (float_of_int i *. 100.)) i)
  done;
  Scheduler.run sched;
  assert (!completed = 10_000);
  assert (Sim_obs.Flow_ledger.count ledger = 10_000)

(* hybrid path: a tiny-scale FatTree scenario where every 70 KB short
   flow starts packet-level and promotes to fluid at 10 KB — the
   handoff machinery (byte-threshold watch, leg re-resolution,
   residual-capacity coupling) exercised 1000 times. *)

let hybrid_handoff () =
  let cfg =
    {
      (Scale.scenario_config Scale.tiny
         ~protocol:(Scenario.Mptcp_proto { subflows = 8; coupled = true }))
      with
      Scenario.model = Scenario.Hybrid { handoff_bytes = 10_000 };
      short_flows = 1_000;
    }
  in
  let r = Scenario.run cfg in
  assert (Array.length r.Scenario.shorts = 1_000)

(* ------------------------------------------------------------------ *)

let benchmarks =
  [
    ("churn:heap-4k-arms", churn_heap);
    ("churn:sched-4k-arms", churn_sched);
    ("packet:link-hop-64", packet_hop);
    ("packet:tcp-70KB", tcp_transfer);
    ("obs:tcp-70KB-probed", tcp_transfer_probed);
    ("obs:tcp-70KB-ledgered", tcp_transfer_ledgered);
    ("fig1a:inner-loop", fig1a_inner);
    ("fluid:10k-flows", fluid_flows);
    ("obs:ledger-10k-flows", ledger_fluid_flows);
    ("hybrid:handoff-1k", hybrid_handoff);
  ]

(* Benchmarks whose single run is heavyweight (hundreds of ms and up).
   Under the adaptive sampler a ~2 s body gets one or two samples
   whose iteration counts differ run to run, which alone moved
   fig1a:inner-loop ~15% between otherwise identical invocations.
   These get a pinned config instead: every sample executes the body
   exactly once ([~start:1 ~sampling:(`Linear 0)]), a fixed number of
   times, so two invocations of the suite do identical work. *)
let heavy =
  [
    "fig1a:inner-loop";
    "fluid:10k-flows";
    "obs:ledger-10k-flows";
    "hybrid:handoff-1k";
  ]

(* Per benchmark: (name, ns/run, minor words/run). Minor words are the
   allocation-pressure number the packet-pool and typed-event work
   targets; tracking them next to time catches "faster but allocates
   more" trades (compare.ml gates both). *)
let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  (* Warmup: run every body once before any measurement so lazy
     initialisation, code page-in and heap growth land outside the
     measured window, then start each group from a compacted heap. *)
  List.iter (fun (_, f) -> f ()) benchmarks;
  let measure cfg tests_list =
    match tests_list with
    | [] -> []
    | _ ->
      Gc.compact ();
      let tests =
        List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) tests_list
      in
      let grouped = Test.make_grouped ~name:"engine" ~fmt:"%s/%s" tests in
      let raw = Benchmark.all cfg instances grouped in
      let estimates instance =
        let results = Analyze.all ols instance raw in
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
        |> List.sort compare
        |> List.filter_map (fun (name, ols) ->
               match Analyze.OLS.estimates ols with
               | Some (est :: _) -> Some (name, est)
               | Some [] | None -> None)
      in
      let ns = estimates Instance.monotonic_clock in
      let mw = estimates Instance.minor_allocated in
      List.map
        (fun (name, t) ->
          (name, t, Option.value ~default:0. (List.assoc_opt name mw)))
        ns
  in
  let light_cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false
      ()
  in
  let heavy_cfg =
    Benchmark.cfg ~start:1 ~sampling:(`Linear 0) ~limit:4
      ~quota:(Time.second 15.0) ~kde:None ~stabilize:false ()
  in
  let is_heavy (name, _) = List.mem name heavy in
  let rows =
    measure light_cfg (List.filter (fun b -> not (is_heavy b)) benchmarks)
    @ measure heavy_cfg (List.filter is_heavy benchmarks)
  in
  List.sort compare rows

let pretty ns =
  if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* Hand-rolled: the JSON is flat and bechamel has no serialiser we can
   rely on being present. *)
let write_json path rows =
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns, mw) ->
      Printf.fprintf oc "  %S: { \"ns_per_run\": %.1f, \"mw_per_run\": %.1f }%s\n"
        name ns mw
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "}\n";
  close_out oc

(* One JSONL line per invocation, appended to the committed
   BENCH_history.jsonl. Commit and date arrive as arguments — sampling
   them here would make reruns of the same tree disagree — so the line
   is a pure function of (tree, machine). *)
let append_history path ~commit ~date rows =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Printf.fprintf oc "{\"commit\": %S, \"date\": %S, \"results\": {" commit date;
  List.iteri
    (fun i (name, ns, mw) ->
      Printf.fprintf oc "%s%S: {\"ns_per_run\": %.1f, \"mw_per_run\": %.1f}"
        (if i = 0 then "" else ", ")
        name ns mw)
    rows;
  output_string oc "}}\n";
  close_out oc

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec find = function
      | flag :: v :: _ when flag = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if List.mem "--smoke" args then begin
    List.iter
      (fun (name, f) ->
        f ();
        Printf.printf "smoke %-24s ok\n%!" name)
      benchmarks;
    print_endline "smoke: all benchmarks ran"
  end
  else begin
    let out = Option.value ~default:"BENCH_engine.json" (opt "--out") in
    let rows = run_bechamel () in
    Printf.printf "%-32s %16s %16s\n" "benchmark" "time/run" "minor words/run";
    print_endline (String.make 66 '-');
    List.iter
      (fun (name, ns, mw) ->
        Printf.printf "%-32s %16s %16.0f\n" name (pretty ns) mw)
      rows;
    write_json out rows;
    Printf.printf "\nwrote %s\n" out;
    match opt "--history" with
    | None -> ()
    | Some path ->
      let commit = Option.value ~default:"unknown" (opt "--commit") in
      let date = Option.value ~default:"unknown" (opt "--date") in
      append_history path ~commit ~date rows;
      Printf.printf "appended %s\n" path
  end
