(* Workload runner for the repo benchmark (driven by perfbench/run.py).

   One invocation runs one repetition of one in-process workload, in a
   process of its own, so the peak RSS the driver reads back from
   wait4 belongs to that repetition alone:

     wl.exe run WORKLOAD --seed N [--point P] [--trace] [--size F]
     wl.exe drives     isolated drives of single layers' public APIs
     wl.exe ref        time the reference loop (no lib/ code)
     wl.exe check      refuse a sanitizer build, report the OCaml version

   Every subcommand prints one JSON object as its last stdout line and
   exits non-zero on a failed correctness check. The spans and counters
   here are the benchmark's own, taken around calls into each layer;
   nothing inside lib/ is instrumented for the benchmark. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Scenario = Sim_workload.Scenario
module Flow_model = Sim_workload.Flow_model
module Scale = Sim_experiments.Scale
module Sink = Sim_experiments.Sink
module Ledger = Sim_obs.Flow_ledger
module Capture = Sim_obs.Capture
module Topology = Sim_net.Topology

let clock = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("wl: " ^ s); exit 1) fmt

(* JSON output: flat objects of numbers and strings, hand-rolled. *)
type json = Num of float | Int of int | Str of string | Obj of (string * json) list

let rec to_json = function
  | Num f -> Printf.sprintf "%.17g" f
  | Int i -> string_of_int i
  | Str s -> Printf.sprintf "%S" s
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (to_json v)) kvs)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Workloads. Sizes are the documented ones at [size] = 1; the
   self-test runs them scaled down. *)

type workload = {
  points : Scenario.config list;
  render_ledger : bool;
      (** render the ledger artifacts in memory as part of the run *)
}

let mptcp8 = Scenario.Mptcp_proto { subflows = 8; coupled = true }
let mmptcp = Scenario.Mmptcp_proto Mmptcp.Strategy.default
let scaled size n = max 1 (int_of_float (Float.round (size *. float_of_int n)))

let workload name ~seed ~size =
  match name with
  | "packet_fig1" ->
    (* Scale.tiny (k=4 2:1 FatTree, 40 shorts), MPTCP-8 then MMPTCP, at
       a 0.8 s horizon instead of 2 s: every short completes by 0.8 s
       (seeds 1-8, all nine subflow counts), and the rest of the 2 s
       would only simulate long background flows. *)
    let s =
      { Scale.tiny with seed; flows = scaled size 40; horizon_s = 0.8 *. size }
    in
    Some
      {
        points =
          [
            Scale.scenario_config s ~protocol:mptcp8;
            Scale.scenario_config s ~protocol:mmptcp;
          ];
        render_ledger = false;
      }
  | "fluid_scale" ->
    (* ext-scale --tiny's derived point: k=16 4:1, 200x the tiny flows. *)
    let s =
      { Scale.tiny with seed; k = 16; oversub = 4; flows = scaled size 8_000;
        model = Scenario.Fluid }
    in
    Some { points = [ Scale.scenario_config s ~protocol:mptcp8 ];
           render_ledger = false }
  | "hybrid_handoff" ->
    (* 11 short hosts at 50 flows/s each spread 2,500 arrivals over
       about 4.5 s; the 7.5 s horizon lands every one of them. *)
    let s =
      { Scale.tiny with seed; flows = scaled size 2_500;
        horizon_s = 7.5 *. size;
        model = Scenario.Hybrid { handoff_bytes = 10_000 };
        obs = { Scenario.default_obs with ledger = true } }
    in
    Some { points = [ Scale.scenario_config s ~protocol:mptcp8 ];
           render_ledger = true }
  | _ -> None

(* The traced variant: the metrics registry with a coarse probe (20
   samples per horizon; connection-scoped instruments only for conn 1,
   so the registry stays small) and the flow ledger. *)
let traced (cfg : Scenario.config) =
  {
    cfg with
    Scenario.obs =
      {
        cfg.Scenario.obs with
        Scenario.probe_interval = Some (Time.scale cfg.Scenario.horizon 0.05);
        probe_conns = Some [ 1 ];
        ledger = true;
      };
  }

(* ------------------------------------------------------------------ *)
(* Set-up: the network build for the workload's topology, repeated for
   at least 0.1 s and 5 builds; the median is setup_s. *)

let setup_samples (cfg : Scenario.config) =
  let t_start = clock () in
  let rec go acc n =
    if n >= 5 && clock () -. t_start >= 0.1 then acc
    else begin
      let sched = Scheduler.create () in
      let t0 = clock () in
      ignore
        (Sys.opaque_identity (Flow_model.build_topology ~sched cfg.Scenario.topo));
      go ((clock () -. t0) :: acc) (n + 1)
    end
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Digest and correctness checks over the simulated results. *)

(* Probe ticks are scheduler events of their own; subtracting them
   makes a traced run's event count comparable with an untraced one. *)
let probe_ticks (r : Scenario.result) =
  match r.Scenario.obs with
  | None -> 0
  | Some c ->
    let n = ref 0 and last = ref min_int in
    Array.iter
      (fun (t, _, _) ->
        if t <> !last then begin
          incr n;
          last := t
        end)
      c.Capture.samples;
    !n

let sim_events r = r.Scenario.events - probe_ticks r

let digest results =
  let b = Buffer.create 65_536 in
  List.iter
    (fun (r : Scenario.result) ->
      let n = r.Scenario.net in
      Printf.bprintf b "events %d net %h %h %h\n" (sim_events r)
        n.Scenario.ns_core_loss n.Scenario.ns_agg_loss
        n.Scenario.ns_core_utilisation;
      let flow (f : Scenario.flow_result) =
        Printf.bprintf b "%d %d %d %b %d %d %d %d %d\n" f.Scenario.src f.dst
          f.flow_size f.is_long (Time.to_ns f.start)
          (match f.fct with Some t -> Time.to_ns t | None -> -1)
          f.rtos f.fast_rtxs f.bytes_received
      in
      Array.iter flow r.Scenario.shorts;
      Array.iter flow r.Scenario.longs)
    results;
  Digest.to_hex (Digest.string (Buffer.contents b))

let check (r : Scenario.result) =
  if r.Scenario.events <= 0 then fail "a point processed no events";
  let flow (f : Scenario.flow_result) =
    match f.Scenario.fct with
    | Some t ->
      if Time.to_ns t <= 0 then fail "flow %d completed with FCT <= 0" f.id;
      if f.bytes_received <> f.flow_size then
        fail "flow %d completed with %d of %d bytes" f.id f.bytes_received
          f.flow_size
    | None -> ()
  in
  Array.iter flow r.Scenario.shorts;
  Array.iter flow r.Scenario.longs

(* ------------------------------------------------------------------ *)
(* Per-layer counters of a traced run, read from the probe capture and
   the ledger dump. Cumulative gauges are read at the last probe tick. *)

let gauges (r : Scenario.result) ~component ~name =
  match r.Scenario.obs with
  | None -> []
  | Some c ->
    let last = Hashtbl.create 16 and peak = Hashtbl.create 16 in
    Array.iteri
      (fun i (m : Sim_obs.Metrics.meta) ->
        if m.Sim_obs.Metrics.component = component && m.name = name then begin
          Hashtbl.replace last i 0.;
          Hashtbl.replace peak i 0.
        end)
      c.Capture.gauges;
    Array.iter
      (fun (_, i, v) ->
        if Hashtbl.mem last i then begin
          Hashtbl.replace last i v;
          Hashtbl.replace peak i (Float.max v (Hashtbl.find peak i))
        end)
      c.Capture.samples;
    Hashtbl.fold (fun i v acc -> (v, Hashtbl.find peak i) :: acc) last []

let sum_last r ~component ~name =
  List.fold_left (fun acc (v, _) -> acc +. v) 0. (gauges r ~component ~name)

let max_peak r ~component ~name =
  List.fold_left (fun acc (_, p) -> Float.max acc p) 0. (gauges r ~component ~name)

let count_events r ~kind =
  match r.Scenario.obs with
  | None -> 0
  | Some c ->
    Array.fold_left
      (fun acc (e : Sim_obs.Metrics.event) ->
        if e.Sim_obs.Metrics.kind = kind then acc + 1 else acc)
      0 c.Capture.events

let ledger_entries results =
  List.concat_map
    (fun (r : Scenario.result) ->
      match r.Scenario.ledger with Some d -> Array.to_list d | None -> [])
    results

(* The sink work users pay under --out --ledger, in memory: every
   artifact rendered to its strings. Returns the bytes rendered. *)
let render_ledgers results =
  let dumps =
    List.filter_map (fun (r : Scenario.result) -> r.Scenario.ledger) results
  in
  Sim_experiments.Ledger_sink.artifacts ~experiment:"bench"
    (List.mapi (fun i d -> (string_of_int i, d)) dumps)
  |> List.fold_left
       (fun acc -> function
         | Sink.Table t ->
           acc + String.length (Sink.csv_string t)
           + String.length (Sink.json_string t)
         | Sink.Raw { contents; _ } -> acc + String.length contents)
       0

let layers results ~sink_s =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. results in
  let maxf f = List.fold_left (fun acc r -> Float.max acc (f r)) 0. results in
  let entries = ledger_entries results in
  let count p = List.length (List.filter p entries) in
  let total f = List.fold_left (fun acc e -> acc + f e) 0 entries in
  let flows_started =
    List.fold_left
      (fun acc r ->
        acc + Array.length r.Scenario.longs + Array.length r.Scenario.shorts)
      0 results
  in
  let pops = sum (fun r -> sum_last r ~component:"fluid" ~name:"alloc_heap_pops") in
  Obj
    [
      ("sim_engine.wheel_pending_max",
       Num (maxf (fun r -> max_peak r ~component:"scheduler" ~name:"wheel_pending")));
      ("sim_engine.heap_pending_max",
       Num (maxf (fun r -> max_peak r ~component:"scheduler" ~name:"heap_pending")));
      ("sim_engine.event_cells",
       Num (maxf (fun r -> max_peak r ~component:"scheduler" ~name:"event_cells")));
      ("sim_net.queue_drops",
       Num (sum (fun r -> sum_last r ~component:"pktqueue" ~name:"drops")));
      ("sim_tcp.rto_fired", Int (total (fun e -> e.Ledger.e_rtos)));
      ("sim_tcp.fast_retransmits", Int (total (fun e -> e.Ledger.e_fast_rtxs)));
      ("sim_tcp.rto_flows",
       Int (count (fun e -> (not e.Ledger.e_long) && e.Ledger.e_rtos > 0)));
      ("mmptcp.phase_switches", Int (count (fun e -> e.Ledger.e_switch_ns >= 0)));
      ("sim_fluid.alloc_flushes",
       Num (sum (fun r -> sum_last r ~component:"fluid" ~name:"alloc_flushes")));
      ("sim_fluid.alloc_waves",
       Num (sum (fun r -> sum_last r ~component:"fluid" ~name:"alloc_waves")));
      ("sim_fluid.alloc_settles",
       Num (sum (fun r -> sum_last r ~component:"fluid" ~name:"alloc_settles")));
      ("sim_fluid.alloc_heap_pops", Num pops);
      ("sim_fluid.rebalances",
       Int (List.fold_left (fun acc r -> acc + count_events r ~kind:"fluid_rebalance")
              0 results));
      ("sim_fluid.pops_per_flow", Num (pops /. float_of_int (max 1 flows_started)));
      ("sim_fluid.live_flows_max",
       Num (maxf (fun r -> max_peak r ~component:"fluid" ~name:"alloc_live_flows")));
      ("sim_workload.promotions", Int (count (fun e -> e.Ledger.e_promote_ns >= 0)));
      ("sim_obs.ledger_entries", Int (List.length entries));
      ("sim_obs.sink_s", Num sink_s);
    ]

(* ------------------------------------------------------------------ *)
(* One repetition of an in-process workload. *)

let run_workload name ~seed ~size ~trace ~point =
  let wl =
    match workload name ~seed ~size with
    | Some w -> w
    | None -> fail "unknown in-process workload %S" name
  in
  let points =
    match point with
    | None -> wl.points
    | Some p when p >= 0 && p < List.length wl.points -> [ List.nth wl.points p ]
    | Some p -> fail "%s has no point %d" name p
  in
  let points = if trace then List.map traced points else points in
  let setup = setup_samples (List.hd points) in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let mw0 = Gc.minor_words () in
  let c0 = cpu_s () and t0 = clock () in
  let results = List.map (fun cfg -> Scenario.run cfg) points in
  let sink_t0 = clock () in
  let sink_bytes =
    if wl.render_ledger || trace then render_ledgers results else 0
  in
  let sink_s = clock () -. sink_t0 in
  let wall = clock () -. t0 and cpu = cpu_s () -. c0 in
  let mw1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  List.iter check results;
  let shorts f =
    List.fold_left
      (fun acc (r : Scenario.result) ->
        acc + List.length (List.filter f (Array.to_list r.Scenario.shorts)))
      0 results
  in
  let requested =
    List.fold_left (fun acc (c : Scenario.config) -> acc + c.Scenario.short_flows)
      0 points
  in
  let events = List.fold_left (fun acc r -> acc + sim_events r) 0 results in
  let fields =
    [
      ("setup_s", Num (median setup));
      ("setup_n", Int (List.length setup));
      ("wall_s", Num wall);
      ("cpu_s", Num cpu);
      ("alloc_mw", Num ((mw1 -. mw0) /. 1e6));
      ("promoted_mw", Num ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6));
      ("minor_gcs", Int (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("major_gcs", Int (g1.Gc.major_collections - g0.Gc.major_collections));
      ("top_heap_mb",
       Num (float_of_int g1.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1_048_576.));
      ("events", Int events);
      ("requested", Int requested);
      ("started", Int (shorts (fun _ -> true)));
      ("completed", Int (shorts (fun f -> f.Scenario.fct <> None)));
      ("sink_bytes", Int sink_bytes);
      ("digest", Str (digest results));
    ]
  in
  let fields =
    if trace then fields @ [ ("layers", layers results ~sink_s) ] else fields
  in
  print_endline (to_json (Obj fields))

(* ------------------------------------------------------------------ *)
(* Isolated drives: each layer's public API on a fixed synthetic input,
   outside any scenario. [prepare] builds the state outside the timed
   window and returns the timed action; the first call warms up. The
   result is the median per-operation ns and minor words. *)

let drive ~iters ~ops prepare =
  let ns = ref [] and mw = ref [] in
  for i = 0 to iters do
    let f = prepare () in
    let w0 = Gc.minor_words () in
    let t0 = clock () in
    f ();
    let dt = clock () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    if i > 0 then begin
      ns := (dt *. 1e9 /. float_of_int ops) :: !ns;
      mw := (dw /. float_of_int ops) :: !mw
    end
  done;
  (median !ns, median !mw)

(* RTO-style churn: 512 re-armable timers re-armed 8 times each. *)
let timer_churn () =
  let sched = Scheduler.create () in
  let tms = Array.init 512 (fun _ -> Scheduler.Timer.create sched ignore ()) in
  fun () ->
    for round = 0 to 7 do
      for i = 0 to 511 do
        Scheduler.Timer.schedule_at tms.(i)
          (Time.of_ns (((round * 512) + i + 200) * 1_000))
      done
    done;
    Array.iter Scheduler.Timer.cancel tms

(* 64 packets of [bytes] on the wire through one Link: send, serialise,
   propagate, deliver. *)
let link_hops ~bytes () =
  let sched = Scheduler.create () in
  let ctx = Scheduler.ctx sched in
  let queue =
    Sim_net.Pktqueue.create ~ctx ~capacity:128 ~layer:Sim_net.Layer.Edge_layer ()
  in
  let link =
    Sim_net.Link.create ~jitter:Time.zero ~sched ~rate_bps:10e9
      ~delay:(Time.of_us 1.) ~queue ~id:0 ()
  in
  let got = ref 0 in
  Sim_net.Link.attach link (fun _ -> incr got);
  fun () ->
    for _ = 1 to 64 do
      Sim_net.Link.send link
        (Sim_net.Packet.make ~ctx ~src:(Sim_net.Addr.of_int 1)
           ~dst:(Sim_net.Addr.of_int 2) ~conn:1 ~subflow:0 ~src_port:1234
           ~dst_port:80 ~seq:0 ~ack_seq:0
           ~len:(bytes - Sim_net.Packet.header_bytes)
           ~bits:Sim_net.Packet.data_bits ~dsn:0)
    done;
    Scheduler.run sched;
    if !got <> 64 then fail "link drive delivered %d of 64 packets" !got

let run_to_completion sched what complete =
  Scheduler.run ~until:(Time.of_sec 5.) sched;
  if not (complete ()) then fail "%s drive: transfer did not complete" what

let tcp_transfer () =
  let sched = Scheduler.create () in
  let net = Sim_net.Dumbbell.direct ~sched () in
  fun () ->
    let f =
      Sim_tcp.Flow.start ~src:(Topology.host net 0) ~dst:(Topology.host net 1)
        ~size:70_000 ()
    in
    run_to_completion sched "tcp" (fun () -> Sim_tcp.Flow.is_complete f)

(* Cross-pod host pair on a k=4 full-bisection FatTree: 4 equal-cost
   paths, so the 8 subflows spread. *)
let fattree () =
  let sched = Scheduler.create () in
  let net =
    Flow_model.build_topology ~sched
      (Scenario.Fattree_topo (Scenario.paper_fattree ~k:4 ~oversub:1 ()))
  in
  (sched, net, Topology.host net 0,
   Topology.host net (Topology.host_count net - 1))

let mptcp_transfer () =
  let sched, _, src, dst = fattree () in
  fun () ->
    let c = Sim_mptcp.Mptcp_conn.start ~src ~dst ~size:70_000 ~subflows:8 () in
    run_to_completion sched "mptcp" (fun () -> Sim_mptcp.Mptcp_conn.is_complete c)

let mmptcp_transfer () =
  let sched, net, src, dst = fattree () in
  let paths =
    net.Topology.path_count (Sim_net.Host.addr src) (Sim_net.Host.addr dst)
  in
  let rng = Sim_engine.Rng.create ~seed:1 in
  fun () ->
    let c = Mmptcp.Mmptcp_conn.start ~src ~dst ~size:70_000 ~rng ~paths () in
    run_to_completion sched "mmptcp" (fun () -> Mmptcp.Mmptcp_conn.is_complete c)

(* 2,000 staggered 70 KB fluid transfers over 64 shared links. *)
let fluid_flows = 2_000

let fluid_engine () =
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
  for i = 0 to fluid_flows - 1 do
    ignore
      (Scheduler.Event.schedule_at arrivals (Time.of_us (float_of_int i *. 100.)) i)
  done;
  fun () ->
    Scheduler.run sched;
    if !completed <> fluid_flows then
      fail "fluid drive completed %d of %d flows" !completed fluid_flows

let drives () =
  let pair (ns, mw) ns_key mw_key = [ (ns_key, Num ns); (mw_key, Num mw) ]
  in
  let timer_ns, _ = drive ~iters:200 ~ops:4_096 timer_churn in
  let hop64 = drive ~iters:500 ~ops:64 (link_hops ~bytes:64) in
  let hop1500 = drive ~iters:500 ~ops:64 (link_hops ~bytes:1_500) in
  let fields =
    [
      ("sim_engine.timer_rearm_ns", Num timer_ns);
      ("sim_net.hop_ns_64B", Num (fst hop64));
      ("sim_net.hop_ns_1500B", Num (fst hop1500));
      ("sim_net.hop_mw", Num (snd hop1500));
    ]
    @ pair (drive ~iters:200 ~ops:1 tcp_transfer)
        "sim_tcp.transfer_ns_70KB" "sim_tcp.transfer_mw_70KB"
    @ pair (drive ~iters:60 ~ops:1 mptcp_transfer)
        "sim_mptcp.transfer_ns_70KB_8sf" "sim_mptcp.transfer_mw_70KB_8sf"
    @ pair (drive ~iters:60 ~ops:1 mmptcp_transfer)
        "mmptcp.transfer_ns_70KB" "mmptcp.transfer_mw_70KB"
    @ pair (drive ~iters:10 ~ops:fluid_flows fluid_engine)
        "sim_fluid.ns_per_flow" "sim_fluid.mw_per_flow"
  in
  print_endline (to_json (Obj fields))

(* ------------------------------------------------------------------ *)
(* The reference loop: fixed work that calls nothing in lib/, so no
   change to the simulator can move its time. run.py times it between
   the workload's timed parts and divides their times by it, which
   takes out the host's speed of the moment (see README.md, "Reading
   the numbers"). Random reads over a 16 MB table, a short-lived record
   and a hash per step, and every eighth step a record kept in a 2 MB
   ring that the major GC has to trace: a simulator's mix of cache
   misses, minor and major GC work and integer work. The tables are
   built outside the timed loop, so page faults stay out of it. *)

let reference_times () =
  let table = Array.init (1 lsl 21) (fun i -> i * 7919) in
  let mask = (1 lsl 21) - 1 in
  let kept = Array.make (1 lsl 18) [] in
  let c0 = cpu_s () and t0 = clock () in
  let acc = ref 0 and x = ref 12_345 and live = ref [] in
  for i = 1 to 1_500_000 do
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    acc := !acc + table.(!x land mask);
    live := (i, !acc) :: (if i land 1023 = 0 then [] else !live);
    if i land 7 = 0 then kept.(!x land ((1 lsl 18) - 1)) <- [ (i, !acc) ];
    acc := !acc lxor Hashtbl.hash (!x, i)
  done;
  let wall = clock () -. t0 and cpu = cpu_s () -. c0 in
  let check = Sys.opaque_identity (!acc + List.length !live + Array.length kept) in
  print_endline
    (to_json
       (Obj [ ("ref_wall_s", Num wall); ("ref_cpu_s", Num cpu); ("check", Int check) ]))

(* ------------------------------------------------------------------ *)

let () =
  (* mmptcp_sim's GC settings, pinned so an inherited OCAMLRUNPARAM
     cannot move the numbers. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 262_144; space_overhead = 120 };
  (* A sanitizer build checks every pooled-packet access: a different
     program from the one users run, so nothing is timed on it. *)
  if Sim_engine.Sanitizer_mode.on then
    fail "built with the packet-pool sanitizer on; build with --profile release";
  let args = Array.to_list Sys.argv in
  let rec pairs = function
    | flag :: (v :: _ as rest) -> (flag, v) :: pairs rest
    | _ -> []
  in
  let opt name default =
    Option.value ~default (List.assoc_opt name (pairs args))
  in
  match List.tl args with
  | "run" :: name :: _ ->
    run_workload name
      ~seed:(int_of_string (opt "--seed" "1"))
      ~size:(float_of_string (opt "--size" "1"))
      ~trace:(List.mem "--trace" args)
      ~point:(Option.map int_of_string (List.assoc_opt "--point" (pairs args)))
  | "drives" :: _ -> drives ()
  | "ref" :: _ -> reference_times ()
  | "check" :: _ ->
    print_endline (to_json (Obj [ ("ocaml", Str Sys.ocaml_version) ]))
  | _ ->
    fail
      "usage: wl.exe (run WORKLOAD --seed N [--point P] [--trace] [--size F] \
       | drives | ref | check)"
