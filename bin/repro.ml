(* The repro CLI: regenerate any table, figure or ablation of the paper
   individually, or everything at once. Every artifact-producing
   subcommand also appends one record per artifact to the experiment-
   fleet results store (Fleet.Store); `repro run` executes declarative
   sweep specs through the driver catalogue and `repro view` queries
   the accumulated records. *)

open Cmdliner

let searchers =
  let doc = "Number of searcher threads (dedicated processors) for TSP runs." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.searchers
       & info [ "searchers" ] ~docv:"N" ~doc)

let cities =
  let doc = "TSP instance size (cities)." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.cities
       & info [ "cities" ] ~docv:"N" ~doc)

let instance_seed =
  let doc = "TSP instance seed." in
  Arg.(value & opt int Tsp.Parallel.default_spec.Tsp.Parallel.instance_seed
       & info [ "seed" ] ~docv:"SEED" ~doc)

let tsp_spec searchers cities instance_seed =
  { Tsp.Parallel.default_spec with Tsp.Parallel.searchers; cities; instance_seed }

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun domains ->
          Cli.set_domains domains;
          f ())
      $ Cli.domains)

let table_cmds =
  [
    simple "table4" "Table 4: Lock-operation cost" (fun () -> Experiments.Report.print_table4 ());
    simple "table5" "Table 5: Unlock-operation cost" (fun () -> Experiments.Report.print_table5 ());
    simple "table6" "Table 6: locking cycle, static locks" (fun () ->
        Experiments.Report.print_table6 ());
    simple "table7" "Table 7: locking cycle, adaptive lock" (fun () ->
        Experiments.Report.print_table7 ());
    simple "table8" "Table 8: configuration-operation costs" (fun () ->
        Experiments.Report.print_table8 ());
  ]

let fig1_cmd =
  let run c = Cli.emit_report c (Experiments.Report.print_fig1 ()) in
  Cmd.v (Cmd.info "fig1" ~doc:"Figure 1: critical-section sweep")
    Term.(const run $ Cli.common)

let tsp_cmd =
  let doc = "Tables 1-3 and Figures 4-9 (the TSP evaluation)" in
  let run c searchers cities seed =
    List.iter (Cli.emit_report c)
      (Experiments.Report.print_tsp ~spec:(tsp_spec searchers cities seed) ())
  in
  Cmd.v (Cmd.info "tsp" ~doc)
    Term.(const run $ Cli.common $ searchers $ cities $ instance_seed)

let single_fig_cmds =
  List.map
    (fun (number, impl, lock) ->
      let name = Printf.sprintf "fig%d" number in
      let doc = Experiments.Tsp_experiments.figure_description ~impl ~lock in
      let run searchers cities seed domains =
        Cli.set_domains domains;
        let t =
          Experiments.Tsp_experiments.run_all ~spec:(tsp_spec searchers cities seed) ()
        in
        match Experiments.Tsp_experiments.figure t ~impl ~lock with
        | None -> print_endline "no trace recorded"
        | Some series ->
          Printf.printf "Figure %d: %s\n%s\n" number doc (Repro_stats.Plot.series series)
      in
      Cmd.v (Cmd.info name ~doc)
        Term.(const run $ searchers $ cities $ instance_seed $ Cli.domains))
    Experiments.Tsp_experiments.all_figures

let single_table_cmds =
  List.map
    (fun (name, doc, impl) ->
      let run searchers cities seed domains =
        Cli.set_domains domains;
        let t =
          Experiments.Tsp_experiments.run_all ~spec:(tsp_spec searchers cities seed) ()
        in
        let row = Experiments.Tsp_experiments.table t impl in
        Printf.printf
          "%s\n  sequential %.0f ms\n  blocking   %.0f ms\n  adaptive   %.0f ms\n  improvement %.1f%%\n"
          doc row.Experiments.Tsp_experiments.sequential_ms
          row.Experiments.Tsp_experiments.blocking_ms
          row.Experiments.Tsp_experiments.adaptive_ms
          row.Experiments.Tsp_experiments.improvement_pct
      in
      Cmd.v (Cmd.info name ~doc)
        Term.(const run $ searchers $ cities $ instance_seed $ Cli.domains))
    [
      ("table1", "Table 1: centralized TSP", Tsp.Parallel.Centralized);
      ("table2", "Table 2: distributed TSP", Tsp.Parallel.Distributed);
      ("table3", "Table 3: distributed TSP with load balancing", Tsp.Parallel.Balanced);
    ]

let ablation_cmds =
  [
    simple "ablation-sched" "Lock schedulers (FCFS/priority/handoff)" (fun () ->
        Experiments.Report.print_schedulers ());
    simple "ablation-coupling" "Closely vs loosely coupled adaptation" (fun () ->
        Experiments.Report.print_coupling ());
    simple "ablation-sampling" "Monitor sampling-rate sweep" (fun () ->
        Experiments.Report.print_sampling ());
    simple "ablation-threshold" "simple-adapt constants sweep" (fun () ->
        Experiments.Report.print_threshold ());
    simple "ablation-phases" "Phased contention, adaptive vs static" (fun () ->
        Experiments.Report.print_phases ());
    simple "ablation-barriers" "Adaptive vs fixed barrier arrival strategies" (fun () ->
        Experiments.Report.print_barriers ());
    simple "ablation-architecture" "Lock implementations across UMA/NUMA" (fun () ->
        Experiments.Report.print_architecture ());
    simple "ablation-advisory" "Advisory locks on variable-length sections" (fun () ->
        Experiments.Report.print_advisory ());
  ]

let ablation_locks_cmd =
  let doc =
    "Implementation-as-attribute ablation: the switch lock's contention sweep under \
     each pinned implementation (TAS, MCS queue, blocking) and under the adaptive \
     ladder. Exits non-zero unless the adaptive variant beats the worst pinned \
     variant at every regime and stays within 5% of the best at the sweep extremes. \
     With --csv-dir, writes ABLATION_LOCKS_results.json (byte-identical at any \
     --domains)."
  in
  let run c =
    let ok, artifact = Experiments.Report.print_switch_locks () in
    Cli.emit_report c artifact;
    if not ok then exit 1
  in
  Cmd.v (Cmd.info "ablation-locks" ~doc) Term.(const run $ Cli.common)

let objects_cmd =
  let doc =
    "Run the sync-objects workload (one of each adaptive object: lock, rw-lock, \
     barrier, condition, semaphore) and dump the adaptive-object registry — per-object \
     samples, policy runs, adaptations, charged cost and transition log. With \
     --csv-dir, also writes OBJECTS_results.json (byte-identical at any --domains). \
     With --only, restricts the dump to the object with that registry name."
  in
  let run c only = Cli.emit_report c (Experiments.Report.print_objects ?only ()) in
  Cmd.v (Cmd.info "objects" ~doc) Term.(const run $ Cli.common $ Cli.only)

let all_cmd =
  let run c = List.iter (Cli.emit_report c) (Experiments.Report.print_everything ()) in
  Cmd.v
    (Cmd.info "all" ~doc:"Every table, figure and ablation in paper order")
    Term.(const run $ Cli.common)

let bench_cmd =
  let doc =
    "Time full report generation at domains=1 vs domains=N, check the outputs are \
     byte-identical, and write a machine-readable BENCH_results.json (no Bechamel \
     micro-benchmarks; use bench/main.exe for those). With --compare, gate the \
     report-level events/sec against the most recent BENCH record in the store \
     (same host preferred) — or against the store file named as the option value."
  in
  let compare_arg =
    let doc =
      "Gate events/sec against a stored baseline. Without a value, uses the most \
       recent same-host BENCH record of the command's own store; with one, reads \
       the given store file."
    in
    Arg.(value & opt ~vopt:(Some "") (some string) None
         & info [ "compare" ] ~docv:"STORE" ~doc)
  in
  let tolerance =
    let doc = "Allowed events/sec drop, in percent, before --compare fails." in
    Arg.(value & opt float 40.0 & info [ "tolerance" ] ~docv:"PCT" ~doc)
  in
  let run c compare_to tolerance =
    let n = Engine.Runner.default_domains () in
    let comparison, _report, _artifacts =
      Experiments.Perf.compare_report_generation ~domains:n ()
    in
    Printf.printf
      "report generation: %.2fs at domains=1, %.2fs at domains=%d (%.2fx), output %s\n"
      comparison.Experiments.Perf.wall_base_s comparison.Experiments.Perf.wall_parallel_s
      comparison.Experiments.Perf.domains_parallel
      (comparison.Experiments.Perf.wall_base_s
      /. Float.max comparison.Experiments.Perf.wall_parallel_s 1e-9)
      (if comparison.Experiments.Perf.identical_output then "byte-identical"
       else "DIFFERS (BUG)");
    let eps =
      comparison.Experiments.Perf.events_base
      /. Float.max comparison.Experiments.Perf.wall_base_s 1e-9
    in
    (* Resolve the baseline before this run's record lands in the
       store, so a run never gates against itself. *)
    let baseline =
      match compare_to with
      | None -> None
      | Some arg ->
        let path = if arg = "" then Cli.store_path c else arg in
        (match Fleet.Store.load ~path with
        | Error e ->
          prerr_endline ("bench --compare: " ^ e);
          exit 2
        | Ok records ->
          let host = try Unix.gethostname () with _ -> "unknown" in
          let candidates =
            List.filter
              (fun r ->
                r.Fleet.Store.r_kind = "BENCH"
                && List.mem_assoc "events_per_sec" r.Fleet.Store.r_metrics)
              records
          in
          let last l = match List.rev l with [] -> None | r :: _ -> Some r in
          let pick =
            match last (List.filter (fun r -> r.Fleet.Store.r_host = host) candidates)
            with
            | Some r -> Some r
            | None -> last candidates
          in
          Some (path, pick))
    in
    (match c.Cli.csv_dir with
    | None -> ()
    | Some _ ->
      Cli.emit_artifact c ~driver:"bench" ~kind:"BENCH" ~legacy:"BENCH_results.json"
        ~config:[]
        ~metrics:
          [
            ("events_per_sec", eps);
            ("events_base", comparison.Experiments.Perf.events_base);
            ("wall_base_s", comparison.Experiments.Perf.wall_base_s);
            ("wall_parallel_s", comparison.Experiments.Perf.wall_parallel_s);
            ( "identical_output",
              if comparison.Experiments.Perf.identical_output then 1. else 0. );
          ]
        ~payload:
          (Experiments.Perf.to_json ~micros:[] ~comparison:(Some comparison) ()));
    (match baseline with
    | None -> ()
    | Some (path, None) ->
      Printf.printf "bench gate: no BENCH baseline in %s; skipping comparison\n" path
    | Some (_, Some b) ->
      let base_eps = List.assoc "events_per_sec" b.Fleet.Store.r_metrics in
      let floor = base_eps *. (1. -. (tolerance /. 100.)) in
      let rev = b.Fleet.Store.r_rev in
      let rev = if String.length rev > 7 then String.sub rev 0 7 else rev in
      Printf.printf
        "bench gate: %.3g events/s vs baseline %.3g (host %s, rev %s, tolerance \
         %g%%)\n"
        eps base_eps b.Fleet.Store.r_host rev tolerance;
      if eps < floor then begin
        print_endline "bench gate: REGRESSION (events/sec below tolerated floor)";
        exit 1
      end
      else print_endline "bench gate: ok");
    if not comparison.Experiments.Perf.identical_output then exit 1
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ Cli.common $ compare_arg $ tolerance)

let check_policies_cmd =
  let doc =
    "Statically model-check every shipped adaptation-policy spec — thrash cycles, dead \
     configurations, threshold overlaps/inversions, dead hysteresis, guardrail gaps \
     and cross-object conflicts — without running the simulator, then run the checker \
     over the seeded-bad fixture specs, each of which must be flagged with its \
     expected finding kinds. Exits non-zero when a shipped spec has findings or a \
     fixture misses its expectation. With --csv-dir, writes POLICY_results.json \
     (byte-identical at any --domains)."
  in
  let run c only =
    let module PC = Analysis.Policy_check in
    let keep name = match only with None -> true | Some o -> o = name in
    let specs =
      List.filter
        (fun s -> keep s.Adaptive_core.Policy.Spec.s_name)
        (PC.shipped ())
    in
    let ((reports, cross) as shipped) = PC.run specs in
    let fixtures =
      Engine.Runner.map
        (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
        (List.filter (fun (n, _, _) -> keep n) (Analysis_suite.policy_fixtures ()))
    in
    List.iter
      (fun r ->
        Printf.printf "%-22s %-10s %2d configs %2d transitions  %s\n" r.PC.sr_name
          r.PC.sr_kind r.PC.sr_configs r.PC.sr_transitions
          (match r.PC.sr_findings with
          | [] -> "clean"
          | fs -> Printf.sprintf "%d finding(s)" (List.length fs));
        List.iter
          (fun f -> Printf.printf "    [%s] %s\n" f.PC.f_kind f.PC.f_message)
          r.PC.sr_findings)
      reports;
    List.iter
      (fun f -> Printf.printf "conflict [%s] %s\n" f.PC.f_kind f.PC.f_message)
      cross;
    List.iter
      (fun x ->
        Printf.printf "fixture %-22s expects %-38s %s\n" x.PC.x_name
          (String.concat ", " x.PC.x_expected)
          (if x.PC.x_missing = [] then "flagged"
           else "MISSED " ^ String.concat ", " x.PC.x_missing))
      fixtures;
    let findings =
      List.fold_left (fun acc r -> acc + List.length r.PC.sr_findings) 0 reports
      + List.length cross
    in
    let missed =
      List.fold_left (fun acc x -> acc + List.length x.PC.x_missing) 0 fixtures
    in
    Cli.emit_artifact c ~driver:"check-policies" ~kind:"POLICY"
      ~legacy:"POLICY_results.json"
      ~config:(match only with None -> [] | Some o -> [ ("only", o) ])
      ~metrics:
        [
          ("specs", float_of_int (List.length reports));
          ("findings", float_of_int findings);
          ("fixtures", float_of_int (List.length fixtures));
          ("missed", float_of_int missed);
        ]
      ~payload:(PC.to_json ~shipped ~fixtures ^ "\n");
    let shipped_clean = PC.clean shipped in
    let fixtures_ok = List.for_all (fun x -> x.PC.x_missing = []) fixtures in
    if shipped_clean && fixtures_ok then
      print_endline
        "policy check: every shipped spec verifies clean; every fixture flagged"
    else begin
      if not shipped_clean then print_endline "policy check: FINDINGS on shipped specs";
      if not fixtures_ok then
        print_endline "policy check: fixtures MISSED expected findings";
      exit 1
    end
  in
  Cmd.v (Cmd.info "check-policies" ~doc) Term.(const run $ Cli.common $ Cli.only)

let check_protocols_cmd =
  let doc =
    "Exhaustively model-check the concurrency protocols — the quiescence swap \
     (freeze/kick/drain/commit-or-rollback with abandoned-swap recovery and timed \
     waiters), MCS queue handoff, and the guardrail streak/cooldown machine — by \
     explicit-state exploration: mutual exclusion, no lost sleeper, no double grant, \
     freeze-owned commit, and liveness as absence of wedged states, under a one-crash \
     budget. Then re-run the checker over the seeded-bad protocol variants \
     (historical bugs), each of which must produce a counterexample, and lower the \
     counterexamples with a simulator workload to confirmed witness schedules. Exits \
     non-zero when a shipped protocol has a violation, a fixture goes undetected, or \
     a lowering fails to confirm. With --csv-dir, writes PROTO_results.json \
     (byte-identical at any --domains). With --only, checks just that model/fixture \
     and skips witness lowering."
  in
  let run c only =
    let module P = Analysis.Proto_check in
    let keep name = match only with None -> true | Some o -> o = name in
    let shipped = P.check_all ?only (Locks.Proto_models.shipped ()) in
    let fixtures =
      Engine.Runner.map
        (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
        (List.filter (fun (n, _, _) -> keep n) (Analysis_suite.proto_fixtures ()))
    in
    let lowered = if only = None then Analysis_suite.proto_lowerings () else [] in
    List.iter
      (fun r ->
        Printf.printf "%-28s %-20s %8d states %9d edges  %s\n" r.P.r_model
          r.P.r_property r.P.r_states r.P.r_edges
          (match r.P.r_verdict with
          | P.Holds -> "holds"
          | P.Out_of_bounds -> "OUT OF BOUNDS"
          | P.Violated x ->
            Printf.sprintf "VIOLATED (%d-step counterexample: %s)"
              (List.length x.P.x_steps) x.P.x_why))
      shipped;
    List.iter
      (fun f ->
        Printf.printf "fixture %-24s expects %-42s %s\n" f.P.f_name
          (String.concat ", " f.P.f_expect)
          (if f.P.f_missing = [] then "detected"
           else "MISSED " ^ String.concat ", " f.P.f_missing))
      fixtures;
    List.iter
      (fun l ->
        Printf.printf "lowered %-24s -> %-28s %s (schedule %d, replay %s)\n"
          l.P.l_fixture l.P.l_scenario
          (if l.P.l_confirmed then "Confirmed" else "UNCONFIRMED")
          l.P.l_schedule_len
          (if l.P.l_replay_ok then "bit-for-bit" else "DIVERGED"))
      lowered;
    let violations =
      List.length
        (List.filter
           (fun r -> match r.P.r_verdict with P.Violated _ -> true | _ -> false)
           shipped)
    in
    let missed =
      List.fold_left (fun acc f -> acc + List.length f.P.f_missing) 0 fixtures
    in
    Cli.emit_artifact c ~driver:"check-protocols" ~kind:"PROTO"
      ~legacy:"PROTO_results.json"
      ~config:(match only with None -> [] | Some o -> [ ("only", o) ])
      ~metrics:
        [
          ("checks", float_of_int (List.length shipped));
          ("violations", float_of_int violations);
          ("fixtures", float_of_int (List.length fixtures));
          ("missed", float_of_int missed);
          ("lowered", float_of_int (List.length lowered));
          ( "confirmed",
            float_of_int
              (List.length
                 (List.filter (fun l -> l.P.l_confirmed && l.P.l_replay_ok) lowered))
          );
        ]
      ~payload:(P.to_json ~shipped ~fixtures ~lowered ^ "\n");
    let shipped_clean = P.clean shipped in
    let fixtures_ok = P.fixtures_ok fixtures in
    let lowered_ok =
      List.for_all (fun l -> l.P.l_confirmed && l.P.l_replay_ok) lowered
    in
    if shipped_clean && fixtures_ok && lowered_ok then
      print_endline
        "protocol check: every shipped protocol verifies clean; every seeded bug \
         caught"
    else begin
      if not shipped_clean then
        print_endline "protocol check: VIOLATIONS on shipped protocols";
      if not fixtures_ok then
        print_endline "protocol check: fixtures MISSED expected violations";
      if not lowered_ok then
        print_endline "protocol check: witness lowering FAILED to confirm";
      exit 1
    end
  in
  Cmd.v (Cmd.info "check-protocols" ~doc) Term.(const run $ Cli.common $ Cli.only)

let analyze_cmd =
  let doc =
    "Run the sanitizers (race detector, lock-order graph, lock-discipline lint) over \
     every example/experiment workload and the seeded scenarios. With --predict, also \
     run the weak-causality predictor (races, deadlocks, lost wakeups reachable in a \
     reordering of the observed run); with --confirm, re-execute each prediction under \
     a synthesized schedule and report machine-checked Confirmed/Unconfirmed verdicts. \
     Exits non-zero on any unmet expectation unless --no-fail is given. With \
     --csv-dir, writes ANALYSIS_results.json."
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Print every diagnostic, not just summaries.")
  in
  let predict =
    Arg.(value & flag
         & info [ "predict" ]
             ~doc:"Run the weak-causality predictor on every scenario.")
  in
  let confirm =
    Arg.(value & flag
         & info [ "confirm" ]
             ~doc:
               "Re-execute each prediction under a synthesized witness schedule \
                (implies --predict).")
  in
  let no_fail =
    Arg.(value & flag
         & info [ "no-fail" ]
             ~doc:"Always exit 0, even when a scenario misses its expectation.")
  in
  let run verbose predict confirm no_fail c =
    let predict = predict || confirm in
    let results =
      Analysis_suite.run_all ~predict ~confirm (Analysis_suite.all ())
    in
    List.iter
      (fun r ->
        Printf.printf "%-26s %s\n" r.Analysis_suite.r_name r.Analysis_suite.r_summary;
        if verbose then
          List.iter (fun d -> Printf.printf "    %s\n" d) r.Analysis_suite.r_diags;
        List.iter
          (fun p ->
            Printf.printf "    %s%s: %s\n" p.Analysis_suite.p_rule
              (match p.Analysis_suite.p_status with
              | None -> ""
              | Some s -> Printf.sprintf " [%s]" s)
              p.Analysis_suite.p_description)
          r.Analysis_suite.r_predictions)
      results;
    let failures =
      List.concat_map
        (fun r ->
          List.map (fun e -> (r.Analysis_suite.r_name, e)) r.Analysis_suite.r_failures)
        results
    in
    let predictions =
      List.fold_left
        (fun acc r -> acc + List.length r.Analysis_suite.r_predictions)
        0 results
    in
    Cli.emit_artifact c ~driver:"analyze" ~kind:"ANALYSIS"
      ~legacy:"ANALYSIS_results.json"
      ~config:
        [
          ("predict", string_of_bool predict);
          ("confirm", string_of_bool confirm);
        ]
      ~metrics:
        [
          ("scenarios", float_of_int (List.length results));
          ("failures", float_of_int (List.length failures));
          ("predictions", float_of_int predictions);
        ]
      ~payload:(Analysis_suite.to_json results);
    (match failures with
    | [] -> print_endline "analysis: all scenarios behaved as expected"
    | _ -> List.iter (fun (name, e) -> Printf.printf "FAIL %s: %s\n" name e) failures);
    if failures <> [] && not no_fail then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ verbose $ predict $ confirm $ no_fail $ Cli.common)

let chaos_cmd =
  let doc =
    "Chaos harness: sweep seeded, replayable fault plans (memory degradation, stuck \
     modules, processor stalls, thread kills, lock-holder delays) over the shipped \
     scenario catalogue, with the sanitizers watching and a watchdog turning hangs \
     into structured aborts. Exits non-zero on any invariant failure. With --csv-dir, \
     writes CHAOS_results.json plus CHAOS_failing_plans.txt (replayable with --plan) \
     when anything failed."
  in
  let seeds =
    Arg.(value & opt int 5
         & info [ "seeds" ] ~docv:"N" ~doc:"Fault-plan seeds per scenario (1..N).")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Smoke mode for CI: 2 seeds per scenario.")
  in
  let plan =
    Arg.(value & opt (some string) None
         & info [ "plan" ] ~docv:"SPEC"
             ~doc:
               "Replay this exact fault plan (the spec-string syntax of \
                Faults.Fault_plan, as dumped in CHAOS_failing_plans.txt) instead of \
                generating seeded plans.")
  in
  let scenario_filter =
    Arg.(value & opt (some string) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Restrict the sweep to one scenario (alias of --only).")
  in
  let swap_faults =
    Arg.(value & flag
         & info [ "swap-faults" ]
             ~doc:
               "Also draw swap-window faults (drain stalls and kills timed to land \
                inside a switch-lock implementation swap) into the generated plans.")
  in
  let run seeds quick plan scenario_name swap_faults c only =
    let scenario_name = match only with Some _ -> only | None -> scenario_name in
    let scenarios = Analysis_suite.shipped () in
    let scenarios =
      match scenario_name with
      | None -> scenarios
      | Some n -> List.filter (fun s -> s.Analysis_suite.scenario_name = n) scenarios
    in
    if scenarios = [] then begin
      prerr_endline "chaos: no scenario matches --scenario/--only";
      exit 2
    end;
    let results =
      match plan with
      | Some spec ->
        let plan = Faults.Fault_plan.of_string spec in
        List.map (fun s -> Chaos.replay ~scenario:s ~plan) scenarios
      | None ->
        let n = if quick then 2 else max 1 seeds in
        Chaos.sweep ~swap_faults ~seeds:(List.init n (fun i -> i + 1)) ~scenarios ()
    in
    List.iter
      (fun r ->
        Printf.printf "%-26s seed=%-3d %-9s %s\n" r.Chaos.scenario r.Chaos.seed
          r.Chaos.outcome
          (match r.Chaos.invariant_failures with
          | [] -> "ok"
          | fs -> "FAIL: " ^ String.concat "; " fs))
      results;
    print_endline (Chaos.summary_line results);
    let config =
      (match plan with
      | Some spec -> [ ("plan", spec) ]
      | None ->
        [ ("seeds", string_of_int (if quick then 2 else max 1 seeds)) ])
      @ [ ("swap_faults", string_of_bool swap_faults) ]
      @ (match scenario_name with None -> [] | Some n -> [ ("scenario", n) ])
    in
    let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 results) in
    let failing = List.filter (fun r -> not (Chaos.passed r)) results in
    Cli.emit_artifact c ~driver:"chaos" ~kind:"CHAOS" ~legacy:"CHAOS_results.json"
      ~config
      ~metrics:
        [
          ("runs", float_of_int (List.length results));
          ("failures", float_of_int (List.length failing));
          ("events", sum (fun r -> r.Chaos.events));
          ("accesses", sum (fun r -> r.Chaos.accesses));
          ("injected", sum (fun r -> List.length r.Chaos.injected));
        ]
      ~payload:(Chaos.to_json results);
    (match c.Cli.csv_dir with
    | Some dir when failing <> [] ->
      let plans =
        String.concat ""
          (List.map
             (fun r ->
               Printf.sprintf "%s seed=%d plan=%s%s\n" r.Chaos.scenario r.Chaos.seed
                 r.Chaos.plan
                 (match r.Chaos.pinned_schedule with
                 | None -> ""
                 | Some s -> " schedule=" ^ s))
             failing)
      in
      Printf.printf "wrote %s\n"
        (Fleet.Emit.write_file ~csv_dir:dir "CHAOS_failing_plans.txt" plans)
    | _ -> ());
    if failing <> [] then exit 1
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ seeds $ quick $ plan $ scenario_filter $ swap_faults $ Cli.common
      $ Cli.only)

let run_cmd =
  let doc =
    "Execute an experiment-fleet spec: a JSON declaration of a cross-product sweep \
     (axes x values) over one of the catalogue drivers, validated up front, run \
     through the deterministic domain-parallel runner, with one store record \
     appended per config. The store is byte-identical at any --domains. See \
     --catalogue for the drivers and their axes."
  in
  let spec_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SPEC.json" ~doc:"Spec file (one spec object or an array).")
  in
  let dry =
    Arg.(value & flag
         & info [ "dry-run" ]
             ~doc:"Validate and print the expanded configs without running anything.")
  in
  let catalogue =
    Arg.(value & flag
         & info [ "catalogue" ] ~doc:"Print the driver catalogue and exit.")
  in
  let run c spec_path dry catalogue =
    if catalogue then print_string (Fleet.Catalogue.describe ())
    else
      match spec_path with
      | None ->
        prerr_endline "repro run: a SPEC.json argument is required (or --catalogue)";
        exit 2
      | Some path -> (
        match Fleet.Spec.of_file path with
        | Error e ->
          prerr_endline ("repro run: " ^ e);
          exit 2
        | Ok specs ->
          List.iter
            (fun s ->
              match Fleet.Catalogue.validate s with
              | Ok () -> ()
              | Error e ->
                prerr_endline ("repro run: " ^ e);
                exit 2)
            specs;
          let store = Cli.store_path c in
          List.iter
            (fun s ->
              let driver =
                match Fleet.Catalogue.find s.Fleet.Spec.sp_driver with
                | Some d -> d
                | None -> assert false (* validate checked *)
              in
              let configs = Fleet.Spec.expand s in
              if dry then begin
                Printf.printf "spec %s: driver %s, %d configs\n" s.Fleet.Spec.sp_id
                  driver.Fleet.Catalogue.d_name (List.length configs);
                List.iter
                  (fun config ->
                    print_endline
                      ("  "
                      ^ String.concat ","
                          (List.map (fun (k, v) -> k ^ "=" ^ v) config)))
                  configs
              end
              else begin
                let outcomes =
                  Engine.Runner.map
                    (fun config -> Fleet.Catalogue.run_config driver config)
                    configs
                in
                let records =
                  List.map2
                    (fun config (metrics, payload) ->
                      Fleet.Store.make ~spec:s.Fleet.Spec.sp_id
                        ~driver:driver.Fleet.Catalogue.d_name
                        ~kind:driver.Fleet.Catalogue.d_kind ~config ~metrics ~payload
                        ())
                    configs outcomes
                in
                Fleet.Store.append ~path:store records;
                Printf.printf "spec %-20s driver %-12s %4d configs -> %s\n"
                  s.Fleet.Spec.sp_id driver.Fleet.Catalogue.d_name
                  (List.length records) store
              end)
            specs)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ Cli.common $ spec_arg $ dry $ catalogue)

let view_cmd =
  let doc =
    "Query the results store: `top N by METRIC [where K=V ...]`, `mean|sum|min|max| \
     count METRIC [group by driver|kind|rev|spec|config:KEY]`, `regressions since \
     REV [tolerance PCT]` (REV may be `earliest`/`latest`/a prefix), or `list \
     drivers|kinds|revs|specs`. Output is deterministic and byte-identical at any \
     --domains."
  in
  let query_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query.")
  in
  let run c query =
    let path = Cli.store_path c in
    match Fleet.Store.load ~path with
    | Error e ->
      prerr_endline ("repro view: " ^ e);
      exit 2
    | Ok records -> (
      match Fleet.Query.parse query with
      | Error e ->
        prerr_endline ("repro view: " ^ e);
        exit 2
      | Ok q -> print_string (Fleet.Query.run records q))
  in
  Cmd.v (Cmd.info "view" ~doc) Term.(const run $ Cli.common $ query_arg)

let () =
  let doc = "Reproduce the tables and figures of Mukherjee & Schwan, GIT-CC-93/17" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          ((all_cmd :: bench_cmd :: analyze_cmd :: check_policies_cmd
            :: check_protocols_cmd :: chaos_cmd :: objects_cmd :: fig1_cmd
            :: tsp_cmd :: run_cmd :: view_cmd :: table_cmds)
          @ single_table_cmds @ single_fig_cmds @ ablation_cmds
          @ [ ablation_locks_cmd ])))
