(* The fast-path determinism suite: batched memory charging and op
   fusion are pure host-side accelerations, so every shipped artifact
   must be byte-identical in the accelerated mode (the default) and in
   the reference per-effect mode. Each test renders one artifact in
   both modes and compares the bytes. *)

open Butterfly

let in_mode accelerated f =
  let prev = Mstate.accelerated () in
  Mstate.set_accelerated accelerated;
  Fun.protect ~finally:(fun () -> Mstate.set_accelerated prev) f

let ab name render =
  let accelerated = in_mode true render in
  let reference = in_mode false render in
  Alcotest.(check string) (name ^ ": accelerated = reference") reference accelerated

let take n l = List.filteri (fun i _ -> i < n) l

(* {2 Soak workload} *)

(* With [observed], a no-op event subscriber keeps every dispatch slice
   off the fast path, so the accelerated mode sends its fused effects
   through the general dispatcher: the third way the soak must agree. *)
let render_soak ?(observed = false) (spec : Workloads.Soak.spec) () =
  let sim = Sched.create { Config.default with Config.processors = spec.processors } in
  if observed then Sched.add_event_hook sim (fun _ -> ());
  let acc = ref 0 in
  Sched.run sim (Workloads.Soak.scenario spec ~acc);
  Printf.sprintf "events=%d final_ns=%d checksum=%d" (Sched.events_executed sim)
    (Sched.final_time sim) !acc

let ab_soak name spec =
  ab name (render_soak spec);
  Alcotest.(check string)
    (name ^ ": fused through the dispatcher = reference")
    (in_mode false (render_soak spec))
    (in_mode true (render_soak ~observed:true spec))

let test_soak () = ab_soak "soak" Workloads.Soak.default

let test_soak_uniprocessor () =
  (* No phase B: every dispatch is single-runnable, so the accelerated
     run spends its whole life on the fast path. *)
  ab_soak "soak (uniprocessor)" { Workloads.Soak.default with processors = 1; rounds = 8 }

(* {2 Shipped artifacts} *)

let test_analysis () =
  let scenarios =
    take 2 (Analysis_suite.shipped ()) @ take 1 (Analysis_suite.buggy ())
  in
  ab "ANALYSIS_results.json" (fun () ->
      Analysis_suite.to_json
        (Analysis_suite.run_all ~domains:1 ~predict:false ~confirm:false
           scenarios))

let test_chaos () =
  let scenarios = take 2 (Analysis_suite.shipped ()) in
  ab "CHAOS_results.json" (fun () ->
      Chaos.to_json (Chaos.sweep ~domains:1 ~seeds:[ 7; 11 ] ~scenarios ()))

let test_policy () =
  let module PC = Analysis.Policy_check in
  ab "POLICY_results.json" (fun () ->
      let shipped = PC.run (PC.shipped ()) in
      let fixtures =
        List.map
          (fun (name, specs, expect) -> PC.check_fixture ~name ~expect specs)
          (Analysis_suite.policy_fixtures ())
      in
      PC.to_json ~shipped ~fixtures)

let render_to_buffer print =
  let buf = Buffer.create 4096 in
  let out = Format.formatter_of_buffer buf in
  let result = print ~out in
  Format.pp_print_flush out ();
  (Buffer.contents buf, result)

let test_objects () =
  ab "OBJECTS report" (fun () ->
      let text, (a : Experiments.Report.artifact) =
        render_to_buffer (fun ~out -> Experiments.Report.print_objects ~out ~domains:1 ())
      in
      Alcotest.(check (list (pair string string)))
        "OBJECTS store identity"
        [
          ("name", "OBJECTS_results.json"); ("driver", "objects"); ("kind", "OBJECTS");
          ("artifact", "OBJECTS_results.json");
        ]
        [ ("name", a.name); ("driver", a.driver); ("kind", a.kind); List.hd a.config ];
      text ^ a.payload)

let test_table5 () =
  ab "Table 5" (fun () ->
      fst (render_to_buffer (fun ~out -> Experiments.Report.print_table5 ~out ~domains:1 ())))

let test_fig1_csv () =
  (* A shrunken Figure 1 grid, rendered through the shipping CSV
     writer. *)
  let base =
    {
      Workloads.Csweep.default with
      Workloads.Csweep.processors = 4;
      threads_per_proc = 2;
      iterations = 6;
    }
  in
  ab "fig1.csv" (fun () ->
      let curves =
        Experiments.Fig1.run ~domains:1 ~base ~cs_lengths:[ 5_000; 100_000 ] ()
      in
      let path = Filename.temp_file "fig1" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          Experiments.Fig1.to_csv curves oc;
          close_out oc;
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s))

(* {2 Host-side allocation bound} *)

let test_fast_path_allocation () =
  (* 1k uncontended spin lock/unlock pairs on the fast path must not
     allocate per iteration: the point of batched charging is that an
     accelerated op is a few array updates, not an effect performance
     with its continuation capture. The bound leaves room for the
     [Gc.minor_words] calls themselves and stray constants, but a
     single boxed value per iteration (>= 2000 words) would trip it. *)
  in_mode true (fun () ->
      let sim = Sched.create Config.default in
      let per_iter = ref infinity in
      Sched.run sim (fun () ->
          let lk = Cthreads.Spin.create ~node:0 () in
          Cthreads.Spin.lock lk;
          Cthreads.Spin.unlock lk;
          let iters = 1_000 in
          let before = Gc.minor_words () in
          for _ = 1 to iters do
            Cthreads.Spin.lock lk;
            Cthreads.Spin.unlock lk
          done;
          per_iter := (Gc.minor_words () -. before) /. float_of_int iters);
      if !per_iter >= 1.0 then
        Alcotest.failf "fast spin iteration allocates: %.2f minor words/iter"
          !per_iter)

let suite =
  [
    Alcotest.test_case "soak A/B" `Quick test_soak;
    Alcotest.test_case "soak A/B uniprocessor" `Quick test_soak_uniprocessor;
    Alcotest.test_case "analysis A/B" `Quick test_analysis;
    Alcotest.test_case "chaos A/B" `Quick test_chaos;
    Alcotest.test_case "policy A/B" `Quick test_policy;
    Alcotest.test_case "objects A/B" `Quick test_objects;
    Alcotest.test_case "table5 A/B" `Quick test_table5;
    Alcotest.test_case "fig1 csv A/B" `Quick test_fig1_csv;
    Alcotest.test_case "fast path allocation" `Quick test_fast_path_allocation;
  ]
