(* Tests for the fluid flow-level engine: allocator invariants
   (qcheck), analytic-FCT sanity, and a golden fluid-vs-packet
   cross-check at tiny scale.

   The two allocator properties pinned here are the ones the design
   leans on (DESIGN.md §4k): per-link conservation under arbitrary
   mutation histories, and the weighted max-min bottleneck condition
   from an all-dirty flush. *)

module Time = Sim_engine.Sim_time
module Scheduler = Sim_engine.Scheduler
module Alloc = Sim_fluid.Alloc
module Engine = Sim_fluid.Engine
module Scenario = Sim_workload.Scenario

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Generators: a random link set plus flows over random paths. *)

type case = {
  caps : float array;
  specs : (float * int list * bool) list;
      (* weight, path (distinct link ids), removed-later flag *)
}

let gen_case =
  let open QCheck.Gen in
  int_range 2 6 >>= fun nlinks ->
  array_size (return nlinks) (float_range 1e6 1e8) >>= fun caps ->
  let gen_path =
    int_range 1 nlinks >>= fun len ->
    shuffle_l (List.init nlinks Fun.id) >>= fun perm ->
    return (List.filteri (fun i _ -> i < len) perm)
  in
  list_size (int_range 1 25) (triple (float_range 0.5 4.) gen_path bool)
  >>= fun specs -> return { caps; specs }

let print_case c =
  Printf.sprintf "links=%d caps=[%s] flows=[%s]" (Array.length c.caps)
    (String.concat ";"
       (Array.to_list (Array.map (Printf.sprintf "%.0f") c.caps)))
    (String.concat "; "
       (List.map
          (fun (w, p, rm) ->
            Printf.sprintf "w=%.2f path=%s%s" w
              (String.concat "," (List.map string_of_int p))
              (if rm then " rm" else ""))
          c.specs))

let arb_case = QCheck.make ~print:print_case gen_case

let build case =
  let t = Alloc.create ~caps:case.caps ~on_rate:(fun _ -> ()) () in
  let flows =
    List.map
      (fun (w, path, rm) ->
        (Alloc.add t ~weight:w ~path:(Array.of_list path) ~data:(), path, rm))
      case.specs
  in
  (t, flows)

(* Committed rates may lag the exact water-fill by the commit
   threshold (relative 1e-3), so invariants are checked with a little
   slack on top. *)
let tol = 1e-2

(* Per-link conservation: the sum of member rates never exceeds the
   link's capacity — including after removals and a second flush. *)
let prop_conservation =
  QCheck.Test.make ~name:"per-link rate conservation" ~count:200 arb_case
    (fun case ->
      let t, flows = build case in
      Alloc.flush t ~now:0.;
      let conserved alive =
        Array.for_all Fun.id
          (Array.init (Array.length case.caps) (fun li ->
               let sum =
                 List.fold_left
                   (fun acc (f, path, _) ->
                     if List.mem li path then acc +. Alloc.rate f else acc)
                   0. alive
               in
               sum <= (Alloc.link_avail t ~link:li *. (1. +. tol)) +. 1.))
      in
      let ok1 = conserved flows in
      let survivors = List.filter (fun (_, _, rm) -> not rm) flows in
      List.iter (fun (f, _, rm) -> if rm then Alloc.remove t ~now:1. f) flows;
      Alloc.flush t ~now:1.;
      ok1 && conserved survivors)

(* Max-min fairness, bottleneck form: after an all-dirty flush, every
   flow has a saturated path link on which its normalised rate
   (rate/weight) is maximal among the link's members — i.e. no flow
   could be raised without lowering a poorer one. *)
let prop_maxmin_bottleneck =
  QCheck.Test.make ~name:"max-min bottleneck condition" ~count:200 arb_case
    (fun case ->
      let t, flows = build case in
      Alloc.flush t ~now:0.;
      List.for_all
        (fun (f, path, _) ->
          List.exists
            (fun li ->
              let sum, norm_max =
                List.fold_left
                  (fun (s, m) (g, gpath, _) ->
                    if List.mem li gpath then
                      (s +. Alloc.rate g,
                       Float.max m (Alloc.rate g /. Alloc.weight g))
                    else (s, m))
                  (0., 0.) flows
              in
              let avail = Alloc.link_avail t ~link:li in
              sum >= avail *. (1. -. tol)
              && Alloc.rate f /. Alloc.weight f >= norm_max *. (1. -. tol))
            path)
        flows)

(* ------------------------------------------------------------------ *)
(* Engine: analytic FCT is monotone in flow size when uncontended. *)

let fct_of_size size =
  let sched = Scheduler.create () in
  let eng = Engine.make ~sched ~cap_bps:[| 1e8 |] () in
  let legs = [| { Engine.path = [| 0 |]; weight = 1.; rtt_s = 1e-4 } |] in
  let conn = Engine.start eng ~legs ~size ~on_complete:(fun _ -> ()) () in
  Scheduler.run sched;
  match Engine.conn_fct conn with
  | Some fct -> Time.to_sec fct
  | None -> Alcotest.failf "size %d never completed" size

let test_fct_monotone () =
  let sizes = [ 1_000; 10_000; 70_000; 500_000; 5_000_000 ] in
  let fcts = List.map fct_of_size sizes in
  List.iteri
    (fun i fct ->
      if i > 0 then
        check_bool
          (Printf.sprintf "fct(%d) < fct(%d)" (List.nth sizes (i - 1))
             (List.nth sizes i))
          true
          (List.nth fcts (i - 1) < fct))
    fcts

(* And bounded below by serialisation: size bytes over a 100 Mb/s
   link cannot land faster than wire speed. *)
let test_fct_above_serialisation () =
  List.iter
    (fun size ->
      let fct = fct_of_size size in
      check_bool
        (Printf.sprintf "fct(%d) >= serialisation" size)
        true
        (fct >= float_of_int (8 * size) /. 1e8))
    [ 10_000; 500_000 ]

(* A completed conn reports exactly its size. A conn enters its drain
   once at most [byte_tol] bytes remain, so the float integration can
   leave a sub-byte residue; ten back-to-back 70 KB transfers on one
   1 Gb/s link starting at 260 ms are enough to hit it (several would
   read 69,999 bytes if the residue leaked into the count). *)
let test_completed_bytes_exact () =
  let sched = Scheduler.create () in
  let eng = Engine.make ~sched ~cap_bps:[| 1e9 |] () in
  let legs = [| { Engine.path = [| 0 |]; weight = 1.; rtt_s = 1e-4 } |] in
  let conns = ref [] in
  let arrivals =
    Scheduler.Event.pool sched ~fire:(fun () ->
        conns :=
          Engine.start eng ~legs ~size:70_000 ~on_complete:(fun _ -> ()) ()
          :: !conns)
  in
  for ms = 260 to 269 do
    ignore
      (Scheduler.Event.schedule_at arrivals (Time.of_ms (float_of_int ms)) ())
  done;
  Scheduler.run sched;
  Alcotest.(check int) "all ten started" 10 (List.length !conns);
  List.iter
    (fun c ->
      check_bool "completed" true (Engine.conn_is_complete c);
      Alcotest.(check int) "bytes = size" (Engine.conn_size c)
        (Engine.conn_bytes c))
    !conns

(* ------------------------------------------------------------------ *)
(* Golden cross-check: tiny dumbbell, fluid within 10% of packet on
   mean short-flow FCT (the ext-fluid-xval gate, pinned in-tree). *)

let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let tiny_dumbbell model =
  {
    Scenario.default_config with
    Scenario.model;
    topo =
      Scenario.Dumbbell_topo { pairs = 4; bottleneck = Scenario.paper_link_spec };
    protocol = Scenario.Tcp_proto;
    seed = 3;
    long_fraction = 0.;
    short_flows = 40;
    short_rate = 3.;
    horizon = Time.of_sec 4.;
  }

let test_golden_fluid_vs_packet () =
  let fcts model = Scenario.short_fcts_ms (Scenario.run (tiny_dumbbell model)) in
  let p = fcts Scenario.Packet and f = fcts Scenario.Fluid in
  Alcotest.(check int) "all complete" (Array.length p) (Array.length f);
  let dev = Float.abs (mean f -. mean p) /. mean p in
  if dev > 0.10 then
    Alcotest.failf "fluid mean FCT off by %.1f%% (packet %.3fms, fluid %.3fms)"
      (100. *. dev) (mean p) (mean f)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fluid"
    [
      ( "alloc",
        [ qt prop_conservation; qt prop_maxmin_bottleneck ] );
      ( "engine",
        [
          Alcotest.test_case "fct monotone in size" `Quick test_fct_monotone;
          Alcotest.test_case "fct above serialisation" `Quick
            test_fct_above_serialisation;
          Alcotest.test_case "completed conn reports its size" `Quick
            test_completed_bytes_exact;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fluid tracks packet (tiny dumbbell)" `Quick
            test_golden_fluid_vs_packet;
        ] );
    ]
