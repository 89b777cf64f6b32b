(** Failure attribution for experiment points.

    Every paper artefact is regenerated from a sweep of independent
    simulations that {!Registry.run} executes in-process or on worker
    processes. These exceptions name the point that failed, identically
    on either path. *)

exception Point_failed of { experiment : string; point : string; exn : exn }
(** Wrapper identifying which experiment point died when a job on the
    shared queue raises: without it, a crash deep in a [--full]-scale
    sweep is unattributable. Raised by the jobs built in
    {!Experiment.instantiate}. A printer is registered, so
    [Printexc.to_string] renders
    ["experiment NAME, point [LABEL]: <cause>"]. *)

exception Remote of string
(** A point failure reported by a worker process. Exceptions do not
    survive marshalling, so the worker sends [Printexc.to_string] of
    the original and the coordinator wraps that cause string in
    [Remote] inside a reconstructed {!Point_failed}. Its printer
    renders the payload verbatim, making the failure message identical
    to the in-process one. *)
