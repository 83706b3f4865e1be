(** The chaos harness: seeded fault plans swept over the scenario
    catalogue, with the sanitizers watching and recovery invariants
    asserted.

    Each run takes one shipped {!Analysis_suite} scenario, generates a
    {!Faults.Fault_plan} from a seed (or replays a given plan), arms it
    with {!Faults.Injector} on a fresh machine, starts a
    {!Monitoring.Watchdog}, attaches the online sanitizers
    ({!Analysis.attach}), and executes the workload via
    {!Butterfly.Sched.run_outcome}. No trace is recorded, so a run's
    memory does not grow with its events. The run must then satisfy
    the harness invariants:

    - the outcome is [Completed], or [Aborted] with a structured
      reason and a non-empty diagnostic dump (no opaque hang, no
      escaped exception);
    - a completed run with no kill fault applied holds no lock at
      thread exit (kills legitimately strand locks — that is the
      fault model — so the lint is only an invariant when no kill
      fired);
    - a completed run left no abort request dangling.

    Everything — plan generation, injection, watchdog, sanitizer
    verdicts — runs off virtual time and seeded streams, so a sweep's
    JSON summary is byte-identical at any [--domains] count and across
    hosts. *)

type result = {
  scenario : string;
  seed : int;  (** -1 for replayed plans *)
  plan : string;  (** {!Faults.Fault_plan.to_string} of the plan swept *)
  injected : string list;  (** faults that actually fired, in order *)
  outcome : string;  (** ["completed"] or ["aborted"] *)
  abort_reason : string option;
  diagnostics : string option;  (** machine dump of an aborted run *)
  sanitizer_diags : string list;  (** findings of the three sanitizers *)
  invariant_failures : string list;  (** empty iff the run passed *)
  final_time_ns : int;
  events : int;
  accesses : int;
  pinned_schedule : string option;
      (** On a failing run, the comma-joined dispatch decision list
          that reproduced the failure bit for bit when replayed through
          {!Butterfly.Sched.set_schedule_control} (the witness-replay
          machinery). [None] on passing runs, or if the re-execution
          did not reproduce the failure exactly. *)
}

val passed : result -> bool

val run_scenario :
  ?horizon_ns:int ->
  ?swap_faults:bool ->
  scenario:Analysis_suite.scenario ->
  seed:int ->
  unit ->
  result
(** One seeded chaos run. [horizon_ns] (default 3_000_000) bounds the
    virtual-time window fault times are drawn from. [swap_faults]
    (default false) adds the swap-window fault kinds to the draw —
    plans from pre-existing seeds are unchanged without it. *)

val replay :
  scenario:Analysis_suite.scenario -> plan:Faults.Fault_plan.t -> result
(** Re-run one scenario under an explicit plan (e.g. a failing plan
    dumped by a previous sweep). *)

val sweep :
  ?domains:int ->
  ?horizon_ns:int ->
  ?swap_faults:bool ->
  seeds:int list ->
  scenarios:Analysis_suite.scenario list ->
  unit ->
  result list
(** The full cross product, computed with {!Engine.Runner.map} (so
    [--domains] parallelism with deterministic, input-ordered
    results). *)

val to_json : result list -> string
(** The machine-readable summary: runs in sweep order plus totals.
    Contains no wall-clock times, hostnames or other host state. *)

val summary_line : result list -> string
