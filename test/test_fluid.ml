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
  let t = Alloc.create ~caps:case.caps ~on_rate:(fun _ _ -> ()) () in
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

(* Batch callback contract: every [flush] and [settle] passes
   [on_rate] exactly the flows whose committed rate moved, each once,
   in queue order. Rates move only by a commit, and a commit needs a
   change beyond [eps], so "moved" is read off the rates before and
   after. Queue order is checked against a model of the dirty queue:
   per-link member lists with the allocator's swap-remove, marks in
   mutation order, and the ripple that re-marks the members of a link
   whose total moved beyond [eps * cap], recomputed from the observed
   rates with the allocator's own arithmetic. *)

type op =
  | Add of float * int list
  | Remove of int
  | Weight of int * float
  | Avail of int * float
  | Flush
  | Settle of int list

let gen_hist =
  let open QCheck.Gen in
  gen_case >>= fun case ->
  let nlinks = Array.length case.caps in
  let gen_path =
    int_range 1 nlinks >>= fun len ->
    shuffle_l (List.init nlinks Fun.id) >>= fun perm ->
    return (List.filteri (fun i _ -> i < len) perm)
  in
  let gen_op =
    frequency
      [
        (2, map2 (fun w p -> Add (w, p)) (float_range 0.5 4.) gen_path);
        (2, map (fun i -> Remove i) nat);
        (1, map2 (fun i w -> Weight (i, w)) nat (float_range 0.5 4.));
        ( 2,
          map2
            (fun li f -> Avail (li mod nlinks, f *. case.caps.(li mod nlinks)))
            nat (float_range 0. 1.2) );
        (3, return Flush);
        (2, map (fun is -> Settle is) (list_size (int_range 1 4) nat));
      ]
  in
  list_size (int_range 1 30) gen_op >>= fun ops -> return (case, ops)

let print_op = function
  | Add (w, p) ->
    Printf.sprintf "add w=%.2f path=%s" w
      (String.concat "," (List.map string_of_int p))
  | Remove i -> Printf.sprintf "remove %d" i
  | Weight (i, w) -> Printf.sprintf "weight %d %.2f" i w
  | Avail (li, v) -> Printf.sprintf "avail %d %.0f" li v
  | Flush -> "flush"
  | Settle is ->
    Printf.sprintf "settle %s" (String.concat "," (List.map string_of_int is))

let arb_hist =
  QCheck.make
    ~print:(fun (case, ops) ->
      print_case case ^ " ops=[" ^ String.concat "; " (List.map print_op ops)
      ^ "]")
    gen_hist

let eps = 1e-3

let prop_batch_callback =
  QCheck.Test.make ~name:"batch callback: changed flows once, in queue order"
    ~count:300 arb_hist (fun (case, ops) ->
      let nlinks = Array.length case.caps in
      let batches = ref [] in
      let t =
        Alloc.create ~eps ~caps:case.caps
          ~on_rate:(fun flows n ->
            batches := List.init n (fun i -> Alloc.data flows.(i)) :: !batches)
          ()
      in
      (* The model: flows by creation index. *)
      let flows = ref [||] and paths = ref [||] in
      let dead = Hashtbl.create 16 and dirty = Hashtbl.create 16 in
      let fstamp = Hashtbl.create 16 and stamp = ref 0 in
      let members = Array.make nlinks [] (* in member order *) in
      let queue = ref [] (* reversed *) in
      let is_dead f = Hashtbl.mem dead f in
      let mark f =
        if (not (Hashtbl.mem dirty f)) && not (is_dead f) then begin
          Hashtbl.replace dirty f ();
          queue := f :: !queue
        end
      in
      let mark_members li = List.iter mark members.(li) in
      let swap_remove li f =
        let arr = Array.of_list members.(li) in
        let last = Array.length arr - 1 in
        let slot = ref 0 in
        Array.iteri (fun i g -> if g = f then slot := i) arr;
        arr.(!slot) <- arr.(last);
        members.(li) <- Array.to_list (Array.sub arr 0 last)
      in
      let add w path =
        let id = Array.length !flows in
        let fl = Alloc.add t ~weight:w ~path:(Array.of_list path) ~data:id in
        flows := Array.append !flows [| fl |];
        paths := Array.append !paths [| path |];
        List.iter
          (fun li ->
            members.(li) <- members.(li) @ [ id ];
            mark_members li)
          path;
        mark id
      in
      let alive () =
        List.filter
          (fun f -> not (is_dead f))
          (List.init (Array.length !flows) Fun.id)
      in
      let rates () = Array.map Alloc.rate !flows in
      let changed before f = before.(f) <> Alloc.rate !flows.(f) in
      let moved_beyond_eps before f =
        let old = before.(f) and nr = Alloc.rate !flows.(f) in
        Float.abs (nr -. old) > eps *. Float.max 1. (Float.max nr old)
      in
      (* Expected batches of one flush, replaying waves and ripple. *)
      let model_flush before =
        incr stamp;
        let expected = ref [] and waves = ref 0 in
        while !queue <> [] && !waves < 3 do
          incr waves;
          let drained = List.rev !queue in
          queue := [];
          List.iter (fun f -> Hashtbl.remove dirty f) drained;
          let wave = List.filter (fun f -> not (is_dead f)) drained in
          List.iter (fun f -> Hashtbl.replace fstamp f !stamp) wave;
          let ch = List.filter (changed before) wave in
          if ch <> [] then expected := ch :: !expected;
          let dalloc = Array.make nlinks 0. and touched = ref [] in
          List.iter
            (fun f ->
              List.iter
                (fun li ->
                  dalloc.(li) <-
                    dalloc.(li) -. before.(f) +. Alloc.rate !flows.(f))
                !paths.(f))
            ch;
          List.iter
            (fun f ->
              List.iter
                (fun li ->
                  if not (List.mem li !touched) then touched := li :: !touched)
                !paths.(f))
            ch;
          List.iter
            (fun li ->
              if Float.abs dalloc.(li) > eps *. case.caps.(li) then
                List.iter
                  (fun m ->
                    if Hashtbl.find_opt fstamp m <> Some !stamp then mark m)
                  members.(li))
            (List.rev !touched)
        done;
        List.rev !expected
      in
      let fail = ref None in
      let check what before expected =
        let got = List.rev !batches in
        batches := [];
        let all = List.concat got in
        let once = List.length (List.sort_uniq compare all) = List.length all in
        if got <> expected || not once then fail := Some what
        else if not (List.for_all (moved_beyond_eps before) all) then
          fail := Some (what ^ ": a reported flow moved within eps")
      in
      List.iter (fun (w, path, _) -> add w path) case.specs;
      let step op =
        let n = Array.length !flows in
        match op with
        | Add (w, path) -> add w path
        | Remove i when n > 0 ->
          let f = i mod n in
          if not (is_dead f) then begin
            Alloc.remove t ~now:0. !flows.(f);
            Hashtbl.replace dead f ();
            List.iter
              (fun li ->
                swap_remove li f;
                mark_members li)
              !paths.(f)
          end
        | Weight (i, w) when n > 0 ->
          let f = i mod n in
          let changes = (not (is_dead f)) && Alloc.weight !flows.(f) <> w in
          Alloc.set_weight t !flows.(f) w;
          if changes then begin
            List.iter mark_members !paths.(f);
            mark f
          end
        | Avail (li, bps) ->
          let v = Float.max 0. (Float.min bps case.caps.(li)) in
          let changes = Alloc.link_avail t ~link:li <> v in
          Alloc.set_avail t ~link:li bps;
          if changes then mark_members li
        | Flush ->
          let before = rates () in
          Alloc.flush t ~now:0.;
          check "flush" before (model_flush before)
        | Settle is -> (
          match alive () with
          | [] -> ()
          | live ->
            let k = List.length live in
            let pick =
              List.sort_uniq compare
                (List.map (fun i -> List.nth live (i mod k)) is)
            in
            let before = rates () in
            Alloc.settle t ~now:0.
              (Array.of_list (List.map (fun f -> !flows.(f)) pick));
            incr stamp;
            let ch = List.filter (changed before) pick in
            check "settle" before (if ch = [] then [] else [ ch ]))
        | Remove _ | Weight _ -> ()
      in
      List.iter (fun op -> if !fail = None then step op) (ops @ [ Flush ]);
      match !fail with
      | None -> true
      | Some what ->
        QCheck.Test.fail_reportf "%s batches differ from the model" what)

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

(* Per-flow allocation of the fluid engine: 8-leg transfers over the
   64 links of bench/micro's fluid:10k-flows, 100 us apart, measured
   after a warm-up drive on the same engine has grown the allocator's
   and the scheduler's scratch. Leg specs are built before the
   measurement. What a flow still allocates is its own: the conn and
   its timer, and per leg the allocator record, its path copy and slot
   array (DESIGN.md §4k). It measures 346 words per flow in the dev
   profile (-opaque, where cross-module float results still box); with
   a per-leg rate callback and boxed conn floats it measured 866. *)
let fluid_words_per_flow = 400.

let test_fluid_alloc_per_flow () =
  let sched = Scheduler.create () in
  let eng = Engine.make ~sched ~cap_bps:(Array.make 64 1e9) () in
  let completed = ref 0 in
  let legs_of i =
    Array.init 8 (fun j ->
        {
          Engine.path = [| (i + j) mod 32; 32 + (((i * 7) + j) mod 32) |];
          weight = 1. /. 8.;
          rtt_s = 1e-4;
        })
  in
  let drive ~first ~n =
    let legs = Array.init n (fun k -> legs_of (first + k)) in
    let arrivals =
      Scheduler.Event.pool sched ~fire:(fun k ->
          ignore
            (Engine.start eng ~legs:legs.(k) ~size:70_000
               ~on_complete:(fun _ -> incr completed)
               ()))
    in
    let t0 = Time.to_us (Scheduler.now sched) in
    for k = 0 to n - 1 do
      ignore
        (Scheduler.Event.schedule_at arrivals
           (Time.of_us (t0 +. (float_of_int k *. 100.)))
           k)
    done
  in
  drive ~first:0 ~n:500;
  Scheduler.run sched;
  Alcotest.(check int) "warm-up complete" 500 !completed;
  drive ~first:500 ~n:2_000;
  let w0 = Gc.minor_words () in
  Scheduler.run sched;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all complete" 2_500 !completed;
  let per_flow = dw /. 2_000. in
  if per_flow > fluid_words_per_flow then
    Alcotest.failf "%.0f minor words over 2000 flows: %.0f words/flow" dw
      per_flow

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
        [
          qt prop_conservation;
          qt prop_maxmin_bottleneck;
          qt prop_batch_callback;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fct monotone in size" `Quick test_fct_monotone;
          Alcotest.test_case "fct above serialisation" `Quick
            test_fct_above_serialisation;
          Alcotest.test_case "completed conn reports its size" `Quick
            test_completed_bytes_exact;
          Alcotest.test_case "8-leg flow allocation budget" `Quick
            test_fluid_alloc_per_flow;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fluid tracks packet (tiny dumbbell)" `Quick
            test_golden_fluid_vs_packet;
        ] );
    ]
