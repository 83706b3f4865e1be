(* The benchmark harness: regenerates every table and figure of the
   paper (in simulated time) at domains=1 and domains=N, compares
   wall-clock and output bytes, then runs one Bechamel micro-benchmark
   per table measuring the host-side cost of the simulation paths that
   produce it. Everything lands in <csv-dir>/BENCH_results.json.

   Each micro-benchmark also reports events/sec: the number of
   simulation events its body executes (deterministic, counted once via
   the domain event odometer) divided by the measured host time. A
   dedicated soak row runs a ~10M-event mixed workload (~1M with
   --quick) accelerated and in the reference per-effect mode; the
   ratio is the batching/fusion speedup. With --compare BASELINE.json
   the run exits non-zero if any benchmark's events/sec fell more than
   --tolerance (default 15%) below the baseline — the CI bench-compare
   gate.

   Run with: dune exec bench/main.exe -- [--csv-dir DIR] [--domains N]
                                         [--quick] [--compare PATH]
                                         [--tolerance PCT]
   The CSV directory defaults to $REPRO_RESULTS_DIR, then "results". *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)

let csv_dir =
  ref (match Sys.getenv_opt "REPRO_RESULTS_DIR" with Some d when d <> "" -> d | _ -> "results")

let domains = ref 0 (* 0 = Engine.Runner.default_domains () *)
let quick = ref false
let compare_path = ref ""
let tolerance_pct = ref 15.0
let store_path = ref "" (* "" = <csv-dir>/store.jsonl (or $REPRO_STORE) *)

let () =
  Arg.parse
    [
      ( "--csv-dir",
        Arg.Set_string csv_dir,
        "DIR  directory for figure CSVs and BENCH_results.json (default: \
         $REPRO_RESULTS_DIR or \"results\")" );
      ( "--domains",
        Arg.Set_int domains,
        "N  host cores for the parallel report generation (default: all)" );
      ( "--quick",
        Arg.Set quick,
        "  reduced Bechamel quota and a 1M-event soak, for CI smoke runs" );
      ( "--compare",
        Arg.Set_string compare_path,
        "PATH  baseline BENCH_results.json; exit 2 on an events/sec regression" );
      ( "--tolerance",
        Arg.Set_float tolerance_pct,
        "PCT  allowed events/sec drop vs the baseline (default 15)" );
      ( "--store",
        Arg.Set_string store_path,
        "FILE  results store to append this run's BENCH record to (default: \
         <csv-dir>/store.jsonl, or $REPRO_STORE)" );
    ]
    (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
    "dune exec bench/main.exe -- [options]"

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the paper's tables and figures (virtual time),  *)
(* sequentially and in parallel, and compare.                         *)

let regenerate_paper () =
  print_endline "==================================================================";
  print_endline " Reproduction of every table and figure (simulated virtual time)";
  print_endline "==================================================================\n";
  let n = if !domains > 0 then !domains else Engine.Runner.default_domains () in
  let comparison, report, artifacts =
    Experiments.Perf.compare_report_generation ~domains:n ()
  in
  print_string report;
  List.iter
    (fun (a : Experiments.Report.artifact) ->
      ignore (Fleet.Emit.write_file ~csv_dir:!csv_dir a.name a.payload : string))
    artifacts;
  Printf.printf
    "report generation: %.2fs at domains=1, %.2fs at domains=%d (%.2fx), output %s\n\n"
    comparison.Experiments.Perf.wall_base_s comparison.Experiments.Perf.wall_parallel_s
    comparison.Experiments.Perf.domains_parallel
    (comparison.Experiments.Perf.wall_base_s
    /. Float.max comparison.Experiments.Perf.wall_parallel_s 1e-9)
    (if comparison.Experiments.Perf.identical_output then "byte-identical"
     else "DIFFERS (BUG)");
  comparison

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel host-time micro-benchmarks, one per paper table.  *)

(* Miniature configurations keep each benchmark iteration small enough
   for Bechamel's sampling. *)

let mini_machine = { Butterfly.Config.default with Butterfly.Config.processors = 4 }

let one_sim f =
  let sim = Butterfly.Sched.create mini_machine in
  Butterfly.Sched.run sim f

let bench_lock_cycle kind () =
  (* One uncontended lock/unlock pair on a fresh simulated machine:
     the unit of Tables 4 and 5. *)
  one_sim (fun () ->
      let lk = Locks.Lock.create ~home:0 kind in
      Locks.Lock.lock lk;
      Locks.Lock.unlock lk)

let bench_locking_cycle kind () =
  (* A contended handoff: the unit of Tables 6 and 7. *)
  one_sim (fun () ->
      let lk = Locks.Lock.create ~home:1 kind in
      let owner =
        Cthreads.Cthread.fork ~proc:2 (fun () ->
            Locks.Lock.lock lk;
            Cthreads.Cthread.work 200_000;
            Locks.Lock.unlock lk)
      in
      let waiter =
        Cthreads.Cthread.fork ~proc:3 (fun () ->
            Cthreads.Cthread.work 50_000;
            Locks.Lock.lock lk;
            Locks.Lock.unlock lk)
      in
      Cthreads.Cthread.join owner;
      Cthreads.Cthread.join waiter)

let bench_switch_handoff fixed () =
  (* A contended handoff through the switch lock, pinned to one
     implementation: the implementation-as-attribute fast path. *)
  one_sim (fun () ->
      let lk = Locks.Switch_lock.create ~fixed ~home:1 () in
      let owner =
        Cthreads.Cthread.fork ~proc:2 (fun () ->
            Locks.Switch_lock.lock lk;
            Cthreads.Cthread.work 200_000;
            Locks.Switch_lock.unlock lk)
      in
      let waiter =
        Cthreads.Cthread.fork ~proc:3 (fun () ->
            Cthreads.Cthread.work 50_000;
            Locks.Switch_lock.lock lk;
            Locks.Switch_lock.unlock lk)
      in
      Cthreads.Cthread.join owner;
      Cthreads.Cthread.join waiter)

let bench_switch_swap () =
  (* One full quiescence swap — freeze, kick, drain, commit — with a
     live waiter to migrate across the window. *)
  one_sim (fun () ->
      let module SL = Locks.Switch_lock in
      let lk = SL.create ~initial:SL.Tas ~home:1 () in
      let holder =
        Cthreads.Cthread.fork ~proc:2 (fun () ->
            SL.lock lk;
            let rec settle n =
              if n > 0 && SL.waiting_now lk < 1 then begin
                Cthreads.Cthread.delay 10_000;
                settle (n - 1)
              end
            in
            settle 100;
            ignore (SL.swap_to lk SL.Mcs);
            SL.unlock lk)
      in
      let waiter =
        Cthreads.Cthread.fork ~proc:3 (fun () ->
            Cthreads.Cthread.work 20_000;
            SL.lock lk;
            SL.unlock lk)
      in
      Cthreads.Cthread.join holder;
      Cthreads.Cthread.join waiter)

let bench_configuration () =
  (* The unit of Table 8: reconfiguration operations. *)
  one_sim (fun () ->
      let r = Locks.Reconfigurable_lock.create ~home:0 () in
      ignore (Locks.Reconfigurable_lock.acquire_ownership r);
      Locks.Reconfigurable_lock.release_ownership r;
      Locks.Reconfigurable_lock.configure_waiting r ~spin_count:3 ();
      Locks.Reconfigurable_lock.configure_scheduler r Locks.Lock_sched.Priority)

let bench_fig1_point () =
  (* One small critical-section-sweep cell: the unit of Figure 1. *)
  ignore
    (Workloads.Csweep.run
       {
         Workloads.Csweep.default with
         Workloads.Csweep.processors = 4;
         threads_per_proc = 2;
         iterations = 5;
         cs_ns = 20_000;
       })

let mini_tsp_spec =
  {
    Tsp.Parallel.default_spec with
    Tsp.Parallel.cities = 14;
    instance_seed = 3;
    searchers = 4;
    work_unit_ns = 20_000;
  }

let bench_tsp impl kind () =
  (* A miniature parallel TSP run: the unit of Tables 1-3 and the
     source of Figures 4-9. *)
  ignore (Tsp.Parallel.run impl { mini_tsp_spec with Tsp.Parallel.lock_kind = kind })

let bench_tsp_traced () =
  ignore
    (Tsp.Parallel.run Tsp.Parallel.Centralized
       { mini_tsp_spec with Tsp.Parallel.trace_locks = true })

(* (name, body) pairs; the body is both staged for Bechamel and run
   once standalone to count the simulation events it executes. *)
let micro_benchmarks =
  [
    ("table1: centralized TSP run (mini)", bench_tsp Tsp.Parallel.Centralized Locks.Lock.Blocking);
    ("table2: distributed TSP run (mini)", bench_tsp Tsp.Parallel.Distributed Locks.Lock.Blocking);
    ("table3: balanced TSP run (mini)", bench_tsp Tsp.Parallel.Balanced Locks.Lock.Blocking);
    ("table4: uncontended lock+unlock (spin)", bench_lock_cycle Locks.Lock.Spin);
    ("table5: uncontended lock+unlock (blocking)", bench_lock_cycle Locks.Lock.Blocking);
    ("table6: contended handoff (blocking)", bench_locking_cycle Locks.Lock.Blocking);
    ("table7: contended handoff (adaptive)", bench_locking_cycle Locks.Lock.adaptive_default);
    ("table8: configuration operations", bench_configuration);
    ("switch: contended handoff (mcs)", bench_switch_handoff Locks.Switch_lock.Mcs);
    ("switch: quiescence swap (tas->mcs)", bench_switch_swap);
    ("fig1: one sweep cell", bench_fig1_point);
    ("fig4-9: traced TSP run (mini)", bench_tsp_traced);
  ]

(* Simulation events of one run of [f]: deterministic, so counting one
   standalone execution is exact for every Bechamel iteration. *)
let events_of_run f =
  let before = Butterfly.Sched.domain_events_total () in
  f ();
  float (Butterfly.Sched.domain_events_total () - before)

let run_bechamel () =
  print_endline "==================================================================";
  print_endline " Bechamel: host-side cost of the simulation paths (ns per run)";
  print_endline "==================================================================\n";
  let quota = if !quick then Time.millisecond 50. else Time.second 0.5 in
  let cfg = Benchmark.cfg ~limit:200 ~quota ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  Printf.printf "%-45s %15s %8s %12s\n" "benchmark" "ns/run" "r^2" "events/s";
  List.map
    (fun (name, f) ->
      (* Warm-up runs before sampling: they populate the allocator and
         code paths so the first Bechamel samples match the rest —
         without this the blocking-lock benchmark's early samples are
         dominated by startup noise and its fit degrades badly. *)
      let events_per_run = events_of_run f in
      f ();
      f ();
      Gc.full_major ();
      let test = Test.make ~name (Staged.stage f) in
      let elt = List.hd (Test.elements test) in
      (* The host timer is noisy enough that a single sampling pass
         sometimes lands a poor fit; sample up to three times and keep
         the cleanest OLS estimate (best r^2), stopping early once the
         fit is unambiguous. *)
      let sample () =
        let result = Benchmark.run cfg instances elt in
        let est = Analyze.one ols Instance.monotonic_clock result in
        let ns =
          match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
        in
        let r2 = match Analyze.OLS.r_square est with Some r -> r | None -> nan in
        (ns, r2)
      in
      let rec best tries ((_, best_r2) as acc) =
        if tries = 0 || best_r2 >= 0.95 then acc
        else
          let (_, r2) as cand = sample () in
          best (tries - 1)
            (if Float.is_nan best_r2 || r2 > best_r2 then cand else acc)
      in
      let ns, r2 = best 2 (sample ()) in
      let events_per_sec =
        if Float.is_nan ns || ns <= 0.0 then 0.0 else events_per_run /. ns *. 1e9
      in
      Printf.printf "%-45s %15.0f %8.3f %12.3e\n%!" name ns r2 events_per_sec;
      { Experiments.Perf.bench_name = name; ns_per_run = ns; r_square = r2;
        events_per_run; events_per_sec })
    micro_benchmarks

(* ------------------------------------------------------------------ *)
(* Part 3: the event-mill soak — wall-clock events/sec accelerated    *)
(* (the shipped configuration) and in the reference per-effect mode,  *)
(* on the same ~10M-event run.                                        *)

let soak_rows () =
  print_endline "\n==================================================================";
  print_endline " Soak: simulated events per host second (10M-event mixed mill)";
  print_endline "==================================================================\n";
  let spec = Workloads.Soak.with_rounds (if !quick then 195 else 1_950) in
  (* Stable names regardless of --quick (the CI quick run compares its
     rates against the committed full-run snapshot by name); the run's
     actual event count is recorded in events_per_run. *)
  let label suffix = Printf.sprintf "soak: event mill%s" suffix in
  let best_of n f =
    let best_s = ref infinity and result = ref None in
    for _ = 1 to n do
      let r, s = Experiments.Perf.wall_clock_s f in
      if s < !best_s then begin
        best_s := s;
        result := Some r
      end
    done;
    (Option.get !result, !best_s)
  in
  let measure name =
    let r, s = best_of 3 (fun () -> Workloads.Soak.run spec) in
    let events = float r.Workloads.Soak.events in
    let eps = events /. s in
    Printf.printf "%-45s %15.0f %8s %12.3e\n%!" name (s *. 1e9) "-" eps;
    ( r,
      { Experiments.Perf.bench_name = name; ns_per_run = s *. 1e9; r_square = nan;
        events_per_run = events; events_per_sec = eps } )
  in
  Printf.printf "%-45s %15s %8s %12s\n" "benchmark" "ns/run" "r^2" "events/s";
  let fast_res, fast_row = measure (label "") in
  Butterfly.Mstate.set_accelerated false;
  let slow_res, slow_row =
    Fun.protect
      ~finally:(fun () -> Butterfly.Mstate.set_accelerated true)
      (fun () -> measure (label " (fast paths off)"))
  in
  let identical =
    fast_res.Workloads.Soak.events = slow_res.Workloads.Soak.events
    && fast_res.Workloads.Soak.final_ns = slow_res.Workloads.Soak.final_ns
    && fast_res.Workloads.Soak.checksum = slow_res.Workloads.Soak.checksum
  in
  Printf.printf
    "\nsoak speedup: %.2fx (%d events, virtual outcome %s across modes)\n"
    (slow_row.Experiments.Perf.ns_per_run /. fast_row.Experiments.Perf.ns_per_run)
    fast_res.Workloads.Soak.events
    (if identical then "identical" else "DIFFERS (BUG)");
  ([ fast_row; slow_row ], identical)

(* ------------------------------------------------------------------ *)
(* Part 4: the bench-compare gate.                                    *)

let gate micros =
  if !compare_path = "" then true
  else
    match Experiments.Perf.load_baseline !compare_path with
    | None ->
      Printf.printf "\nbench-compare: no baseline at %s (gate skipped)\n" !compare_path;
      true
    | Some baseline ->
      let tolerance = !tolerance_pct /. 100.0 in
      let regressions =
        Experiments.Perf.compare_against_baseline ~tolerance ~baseline micros
      in
      if regressions = [] then begin
        Printf.printf "\nbench-compare: OK (no events/sec regression > %.0f%% vs %s)\n"
          !tolerance_pct !compare_path;
        true
      end
      else begin
        Printf.printf "\nbench-compare: FAIL — events/sec regressions > %.0f%% vs %s:\n"
          !tolerance_pct !compare_path;
        List.iter
          (fun r ->
            Printf.printf "  %-45s %.3e -> %.3e (%.0f%%)\n"
              r.Experiments.Perf.name r.Experiments.Perf.baseline_eps
              r.Experiments.Perf.current_eps
              (100.0
              *. (r.Experiments.Perf.current_eps /. r.Experiments.Perf.baseline_eps
                 -. 1.0)))
          regressions;
        false
      end

let () =
  (* A roomy minor heap keeps collections out of the middle of
     Bechamel samples; with the default 256k-word nursery the
     microsecond-scale lock benchmarks absorb a collection every few
     samples and their OLS fit (r^2) collapses. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 24 };
  let comparison = regenerate_paper () in
  let micros = run_bechamel () in
  let soak, soak_identical = soak_rows () in
  let micros = micros @ soak in
  (* One store record for the whole run: the report-level events/sec
     (what `repro bench --compare` gates on) plus one eps/ metric per
     micro-benchmark, with the full BENCH json as the payload and as
     BENCH_results.json. *)
  let store =
    if !store_path <> "" then !store_path
    else Fleet.Emit.default_store ~csv_dir:!csv_dir
  in
  let metrics =
    ( "events_per_sec",
      comparison.Experiments.Perf.events_base
      /. Float.max comparison.Experiments.Perf.wall_base_s 1e-9 )
    :: ( "identical_output",
         if comparison.Experiments.Perf.identical_output then 1. else 0. )
    :: List.filter_map
         (fun m ->
           if Float.is_nan m.Experiments.Perf.events_per_sec then None
           else
             Some ("eps/" ^ m.Experiments.Perf.bench_name, m.Experiments.Perf.events_per_sec))
         micros
  in
  let (_ : Fleet.Store.record) =
    Fleet.Emit.artifact ~store ~csv_dir:!csv_dir ~driver:"bench" ~kind:"BENCH"
      ~legacy:"BENCH_results.json"
      ~config:(if !quick then [ ("quick", "true") ] else [])
      ~metrics
      ~payload:(Experiments.Perf.to_json ~micros ~comparison:(Some comparison) ())
      ()
  in
  Printf.printf "\nbench: done (figure CSVs and BENCH_results.json written to %s/)\n"
    !csv_dir;
  Printf.printf "bench: appended BENCH record to %s\n" store;
  let gate_ok = gate micros in
  if not comparison.Experiments.Perf.identical_output then exit 1;
  if not soak_identical then exit 1;
  if not gate_ok then exit 2
