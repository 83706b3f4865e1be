(** Host-side performance measurement of the reproduction itself, and
    the machine-readable [BENCH_results.json] baseline the CI bench
    job uploads.

    Simulated (virtual-time) results never depend on the host; this
    module measures how long the host takes to produce them, so a
    regression in the simulator's hot paths shows up as a diff in the
    JSON baseline across commits. *)

type micro = {
  bench_name : string;
  ns_per_run : float;  (** OLS estimate of host ns per benchmark run *)
  r_square : float;  (** fit quality of the estimate *)
  events_per_run : float;
      (** simulation events one benchmark run executes — deterministic,
          measured by running the benchmark body once under the domain
          event odometer ([Sched.domain_events_total]) *)
  events_per_sec : float;
      (** [events_per_run /. ns_per_run *. 1e9] — the throughput metric
          the bench-compare CI gate tracks; [0.] when unknown *)
}

type comparison = {
  domains_base : int;  (** always 1 *)
  domains_parallel : int;
  wall_base_s : float;  (** full report generation at [domains=1] *)
  wall_parallel_s : float;  (** same at [domains_parallel] *)
  identical_output : bool;
      (** whether both renderings produced the same text and the same
          artifacts — must be [true]; anything else is a determinism
          bug in the runner *)
  events_base : float;
      (** simulation events executed by the sequential leg — a
          deterministic count, so [events_base /. wall_base_s] is the
          report-level events/sec the store-backed bench gate tracks *)
}

val wall_clock_s : (unit -> 'a) -> 'a * float
(** Run a thunk and return its result and wall-clock duration. *)

val render_report : domains:int -> unit -> string * Report.artifact list
(** The full {!Report.print_everything} output rendered to a string,
    with the artifacts it returned. *)

val compare_report_generation :
  ?domains:int -> unit -> comparison * string * Report.artifact list
(** Generate the full report at [domains=1] and at [domains] (default
    {!Engine.Runner.default_domains}), compare wall-clock, output bytes
    and artifacts. Also returns the rendered report and the artifacts
    of the sequential run, so callers can print and write them without
    paying for a third generation. *)

val git_rev : unit -> string
(** Commit id, best effort: [GITHUB_SHA] when set (CI), else one-level
    read of [.git/HEAD], else ["unknown"]. *)

val to_json : micros:micro list -> comparison:comparison option -> unit -> string
(** The [BENCH_results.json] document: git rev, host core count, the
    report-generation wall-clock comparison, and one entry per
    micro-benchmark. *)

(** {1 The bench-compare gate} *)

type regression = { name : string; baseline_eps : float; current_eps : float }

val load_baseline : string -> (string * float) list option
(** Parse a committed [BENCH_results.json] into
    [(benchmark name, events_per_sec)] pairs (entries without a
    positive [events_per_sec] are skipped). [None] when the file does
    not exist. The reader understands exactly the shape {!to_json}
    writes — one benchmark entry per line. *)

val compare_against_baseline :
  tolerance:float -> baseline:(string * float) list -> micro list -> regression list
(** Benchmarks whose current [events_per_sec] fell more than
    [tolerance] (e.g. [0.15]) below the baseline's. Benchmarks absent
    from the baseline — or without an events metric — are skipped, so
    adding a benchmark never fails the gate retroactively. *)
