(* Determinism and parallel-runner tests: a simulation is a pure
   function of its config (no cross-run state), and the process pool
   matches the sequential path byte-for-byte while surviving worker
   failures. *)

module Scenario = Sim_workload.Scenario
module Scale = Sim_experiments.Scale
module Runner = Sim_experiments.Runner
module Experiment = Sim_experiments.Experiment
module Registry = Sim_experiments.Registry
module Sink = Sim_experiments.Sink
module Proc_pool = Sim_engine.Proc_pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Process-pool fixtures.

   The test binary doubles as its own worker: spawned with the hidden
   [--proc-worker MODE] flag it serves the named job function over the
   pipe protocol and never reaches Alcotest. The registry modes
   rebuild the same suites the coordinating test passes to
   [Registry.run] — parent and worker agreeing on what job index [i]
   means is exactly the worker-process contract. *)

let worker_argv mode = [| Sys.executable_name; "--proc-worker"; mode |]

(* Two cheap synthetic experiments: the mini-suite exercises the whole
   worker-process pipeline — shared queue, marshalling,
   render-in-registry-order, artifact sinks — in milliseconds. *)
let mini_suite =
  let squares =
    Experiment.make ~name:"squares" ~doc:"squares of small ints"
      ~points:(fun _ -> [ 1; 2; 3 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i -> i * i)
      ~render:(fun _ pairs ->
        List.iter (fun (p, r) -> Printf.printf "%d^2 = %d\n" p r) pairs)
      ~sinks:(fun _ pairs ->
        [
          Sink.table ~name:"squares"
            ~columns:
              [
                ("x", fun (p, _) -> Sink.int p);
                ("x_squared", fun (_, r) -> Sink.int r);
              ]
            pairs;
        ])
      ()
  in
  let negations =
    Experiment.make ~name:"negations" ~doc:"negations of small ints"
      ~points:(fun _ -> [ 4; 5 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i -> -i)
      ~render:(fun _ pairs ->
        List.iter (fun (p, r) -> Printf.printf "-%d = %d\n" p r) pairs)
      ~sinks:(fun _ pairs ->
        [
          Sink.table ~name:"negations"
            ~columns:[ ("neg", fun (_, r) -> Sink.int r) ]
            pairs;
        ])
      ()
  in
  [ squares; negations ]

let failing_suite =
  [
    Experiment.make ~name:"failing" ~doc:"raises on its second point"
      ~points:(fun _ -> [ 0; 1; 2 ])
      ~point_label:string_of_int
      ~run_point:(fun _ i ->
        if i = 1 then failwith "synthetic point failure" else i)
      ~render:(fun _ _ -> ())
      ()
  ]

let () =
  match Sys.argv with
  | [| _; "--proc-worker"; mode |] ->
    (match mode with
    | "square" -> Proc_pool.serve ~run:(fun i -> Ok (string_of_int (i * i)))
    | "die-at-1" ->
      Proc_pool.serve ~run:(fun i ->
          if i = 1 then exit 3 else Ok (string_of_int i))
    | "mini" -> Registry.worker Scale.tiny mini_suite
    | "failing" -> Registry.worker Scale.tiny failing_suite
    | m ->
      prerr_endline ("unknown proc worker mode: " ^ m);
      exit 2);
    exit 0
  | _ -> ()

(* Everything observable about a run except the topology handle, which
   contains closures and cannot be compared structurally. *)
let results_identical (a : Scenario.result) (b : Scenario.result) =
  a.Scenario.shorts = b.Scenario.shorts
  && a.Scenario.longs = b.Scenario.longs
  && a.Scenario.events = b.Scenario.events
  && a.Scenario.duration = b.Scenario.duration

(* ------------------------------------------------------------------ *)
(* Determinism: same config + seed -> identical flow results. *)

let test_back_to_back_runs_identical () =
  let cfg =
    Scale.scenario_config Scale.tiny
      ~protocol:(Scenario.Mptcp_proto { subflows = 2; coupled = true })
  in
  let r1 = Scenario.run cfg in
  let r2 = Scenario.run cfg in
  check_int "same short count" (Array.length r1.Scenario.shorts)
    (Array.length r2.Scenario.shorts);
  check_bool "identical flow results" true (results_identical r1 r2)

(* ------------------------------------------------------------------ *)
(* Proc_pool: the raw pipe protocol *)

let test_proc_pool_runs_all_points () =
  let n = 20 in
  let results = Array.make n None in
  Proc_pool.run ~jobs:2 ~worker_argv:(worker_argv "square") ~n
    ~deliver:(fun i r ->
      check_bool (Printf.sprintf "point %d delivered once" i) true
        (results.(i) = None);
      results.(i) <- Some r);
  Array.iteri
    (fun i r ->
      match r with
      | Some (Ok s) ->
        Alcotest.(check string)
          (Printf.sprintf "point %d payload" i)
          (string_of_int (i * i))
          s
      | Some (Error m) -> Alcotest.fail ("unexpected error: " ^ m)
      | None -> Alcotest.fail (Printf.sprintf "point %d never delivered" i))
    results

let test_proc_pool_edge_cases () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Proc_pool.run: jobs must be >= 1") (fun () ->
      Proc_pool.run ~jobs:0 ~worker_argv:(worker_argv "square") ~n:1
        ~deliver:(fun _ _ -> ()));
  (* No points: nothing is spawned, nothing delivered. *)
  Proc_pool.run ~jobs:4 ~worker_argv:(worker_argv "square") ~n:0
    ~deliver:(fun i _ -> Alcotest.failf "point %d delivered from n=0" i);
  (* More workers asked for than points: still one delivery each. *)
  let got = ref [] in
  Proc_pool.run ~jobs:8 ~worker_argv:(worker_argv "square") ~n:1
    ~deliver:(fun i r -> got := (i, r) :: !got);
  check_bool "single point delivered once" true (!got = [ (0, Ok "0") ])

let test_proc_pool_dead_worker_no_hang () =
  (* One worker exits mid-point without replying. The pool must report
     that point as failed, finish every other point on the survivor,
     and return — a hang here fails the suite by timeout. *)
  let n = 6 in
  let results = Array.make n None in
  Proc_pool.run ~jobs:2 ~worker_argv:(worker_argv "die-at-1") ~n
    ~deliver:(fun i r -> results.(i) <- Some r);
  Array.iteri
    (fun i r ->
      match (i, r) with
      | 1, Some (Error m) ->
        check_bool "death reported" true (contains m "died")
      | 1, Some (Ok _) -> Alcotest.fail "dead worker's point reported Ok"
      | _, Some (Ok _) -> ()
      | _, Some (Error m) -> Alcotest.fail ("unexpected error: " ^ m)
      | _, None -> Alcotest.fail (Printf.sprintf "point %d never delivered" i))
    results

(* ------------------------------------------------------------------ *)
(* Registry on worker processes *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let temp_dir_name prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_processes_artifacts_match_sequential () =
  let seq_dir = temp_dir_name "mmptcp_seq" in
  let par_dir = temp_dir_name "mmptcp_par" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf seq_dir;
      rm_rf par_dir)
    (fun () ->
      Registry.run ~out:seq_dir ~jobs:1 Scale.tiny mini_suite;
      Registry.run ~out:par_dir ~worker_argv:(worker_argv "mini") ~jobs:2
        Scale.tiny mini_suite;
      (* manifest.json legitimately differs (jobs count, timings);
         every experiment artifact must match byte-for-byte. *)
      let files dir =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> f <> "manifest.json")
        |> List.sort compare
      in
      Alcotest.(check (list string))
        "same artifact set" (files seq_dir) (files par_dir);
      check_bool "suite produced artifacts" true (files seq_dir <> []);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (f ^ " byte-identical")
            (read_file (Filename.concat seq_dir f))
            (read_file (Filename.concat par_dir f)))
        (files seq_dir))

let test_processes_point_failure_attributed () =
  match
    Registry.run ~worker_argv:(worker_argv "failing") ~jobs:2 Scale.tiny
      failing_suite
  with
  | () -> Alcotest.fail "expected Point_failed"
  | exception Runner.Point_failed { experiment; point; exn } ->
    Alcotest.(check string) "experiment attributed" "failing" experiment;
    Alcotest.(check string) "point attributed" "1" point;
    let cause =
      match exn with Runner.Remote c -> c | e -> Printexc.to_string e
    in
    check_bool "cause carries the worker's exception" true
      (contains cause "synthetic point failure")

(* jobs > 1 runs only on worker processes; without a worker command
   line there is no way to honour it, so the call is refused up front
   rather than quietly run some other way. *)
let test_jobs_need_worker_argv () =
  Alcotest.check_raises "jobs=2, no worker_argv"
    (Invalid_argument "Registry.run: jobs > 1 requires ~worker_argv")
    (fun () -> Registry.run ~jobs:2 Scale.tiny mini_suite)

let () =
  Alcotest.run "runner"
    [
      ( "determinism",
        [
          Alcotest.test_case "back-to-back runs identical" `Slow
            test_back_to_back_runs_identical;
        ] );
      ( "proc_pool",
        [
          Alcotest.test_case "runs all points" `Quick
            test_proc_pool_runs_all_points;
          Alcotest.test_case "edge cases" `Quick test_proc_pool_edge_cases;
          Alcotest.test_case "dead worker no hang" `Quick
            test_proc_pool_dead_worker_no_hang;
          Alcotest.test_case "processes artifacts match sequential" `Quick
            test_processes_artifacts_match_sequential;
          Alcotest.test_case "point failure attributed" `Quick
            test_processes_point_failure_attributed;
          Alcotest.test_case "jobs > 1 requires worker_argv" `Quick
            test_jobs_need_worker_argv;
        ] );
    ]
