(* Tests of the declarative policy IR (Spec validate/compile) and the
   static policy checker: shipped specs verify clean, seeded-bad
   fixtures are flagged, the compiled interpreter honours hysteresis
   streaks across config changes and failed applies, the guard's
   cooldown edges stay pinned, and the compiled adaptive-lock spec
   agrees with a hand-written reference of the paper's rule. *)

open Butterfly
module Policy = Adaptive_core.Policy
module Spec = Policy.Spec
module PC = Analysis.Policy_check

let cfg = { Config.default with Config.processors = 4; contention = false }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let cost = Adaptive_core.Cost.reads_writes 1 1

let trans ?(repeats = 1) t_from c t_target t_label =
  { Spec.t_from; t_cond = c; t_target; t_label; t_repeats = repeats; t_cost = cost }

(* -- the checker over the shipped catalogue and the fixtures -- *)

let test_shipped_clean () =
  let ((reports, cross) as res) = PC.run ~domains:1 (PC.shipped ()) in
  Alcotest.(check int) "seven shipped specs" 7 (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (r.PC.sr_name ^ " clean")
        []
        (List.map (fun f -> f.PC.f_kind ^ ": " ^ f.PC.f_message) r.PC.sr_findings))
    reports;
  Alcotest.(check int) "no cross-object conflicts" 0 (List.length cross);
  Alcotest.(check bool) "clean" true (PC.clean res)

let test_shipped_specs_validate () =
  List.iter
    (fun spec ->
      Alcotest.(check (list string))
        (spec.Spec.s_name ^ " well-formed")
        [] (Spec.validate spec))
    (PC.shipped ())

let test_fixtures_flagged () =
  List.iter
    (fun (name, specs, expect) ->
      let x = PC.check_fixture ~name ~expect specs in
      Alcotest.(check (list string)) (name ^ " missing") [] x.PC.x_missing;
      Alcotest.(check bool) (name ^ " has findings") true (x.PC.x_findings <> []))
    (Analysis_suite.policy_fixtures ())

let test_malformed_spec_reported () =
  let bad =
    {
      Spec.s_name = "bad";
      s_kind = "fixture";
      s_attribute = "bad.attr";
      s_metric = "m";
      s_monotone = Spec.Unordered;
      s_configs = [ { Spec.c_name = "a"; c_value = 0 }; { Spec.c_name = "b"; c_value = 0 } ];
      s_initial = 7;
      s_transitions =
        [ trans ~repeats:0 0 (Spec.cond 5 ~hi:2) 0 "self"; trans 0 (Spec.cond 0) 9 "out" ];
      s_guard = None;
    }
  in
  let errs = Spec.validate bad in
  Alcotest.(check bool) "validate flags it" true (List.length errs >= 4);
  let findings = PC.check bad in
  Alcotest.(check bool) "all malformed-spec" true
    (findings <> [] && List.for_all (fun f -> f.PC.f_kind = "malformed-spec") findings);
  Alcotest.(check int) "one finding per error" (List.length errs) (List.length findings)

let test_conflict_needs_shared_attribute () =
  let pair =
    List.find_map
      (fun (n, specs, _) -> if n = "conflicting-pair" then Some specs else None)
      (Analysis_suite.policy_fixtures ())
  in
  match pair with
  | Some [ a; b ] ->
    Alcotest.(check bool) "shared attribute conflicts" true (PC.conflicts a b <> []);
    let b' = { b with Spec.s_attribute = "somewhere.else" } in
    Alcotest.(check int) "distinct attributes never conflict" 0
      (List.length (PC.conflicts a b'))
  | _ -> Alcotest.fail "conflicting-pair fixture missing"

(* -- interpreter semantics of the compiled spec -- *)

let labels = ref []

let stepper p =
  fun m ->
  match p m with
  | Policy.No_change -> "none"
  | Policy.Reconfigure { label; apply; _ } ->
    let ok = apply () in
    labels := label :: !labels;
    if ok then label else label ^ "!"

let test_compiled_rw_hysteresis () =
  (* writer-pref on the first waiting writer; reader-pref only after 3
     consecutive writer-free samples, with the streak broken by any
     non-matching sample. *)
  let cfgv = ref 0 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        cfgv := v;
        true)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "calm at start" "none" (step 0);
  Alcotest.(check string) "first writer flips" "writer-pref" (step 3);
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  Alcotest.(check string) "straggler breaks the streak" "none" (step 2);
  Alcotest.(check string) "calm 1 again" "none" (step 0);
  Alcotest.(check string) "calm 2 again" "none" (step 0);
  Alcotest.(check string) "calm 3 fires" "reader-pref" (step 0);
  Alcotest.(check int) "back to reader pref" 0 !cfgv

let test_compiled_counter_resets_on_config_change () =
  let cfgv = ref 0 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        cfgv := v;
        true)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "flip to writer" "writer-pref" (step 3);
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  (* an external agent bounces the attribute: the streak must restart *)
  cfgv := 0;
  Alcotest.(check string) "external flip observed" "none" (step 0);
  cfgv := 1;
  Alcotest.(check string) "fresh streak 1" "none" (step 0);
  Alcotest.(check string) "fresh streak 2" "none" (step 0);
  Alcotest.(check string) "fresh streak 3 fires" "reader-pref" (step 0)

let test_compiled_failed_apply_retries () =
  (* an apply that reports failure (external agent losing the
     ownership race) must not consume the hysteresis streak: the very
     next enabled sample retries instead of re-accumulating. *)
  let cfgv = ref 1 in
  let ok = ref false in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun v ->
        if !ok then begin
          cfgv := v;
          true
        end
        else false)
      ~metric:(fun (m : int) -> m)
  in
  let step = stepper p in
  Alcotest.(check string) "calm 1" "none" (step 0);
  Alcotest.(check string) "calm 2" "none" (step 0);
  Alcotest.(check string) "fires but apply loses" "reader-pref!" (step 0);
  Alcotest.(check string) "immediate retry, no re-accumulation" "reader-pref!" (step 0);
  ok := true;
  Alcotest.(check string) "retry lands" "reader-pref" (step 0);
  Alcotest.(check int) "applied" 0 !cfgv;
  (* the successful apply reset the counter: three fresh samples needed *)
  cfgv := 1;
  Alcotest.(check string) "config change resets" "none" (step 0);
  Alcotest.(check string) "streak 2" "none" (step 0);
  Alcotest.(check string) "streak 3 fires" "reader-pref" (step 0)

let test_compiled_inert_off_spec () =
  (* soundness caveat pinned: an externally forced configuration value
     outside the spec leaves the compiled policy inert. *)
  let cfgv = ref 99 in
  let p =
    Spec.compile (Locks.Rw_lock.policy_spec ())
      ~read:(fun () -> !cfgv)
      ~apply:(fun _ -> Alcotest.fail "must not reconfigure from an off-spec config")
      ~metric:(fun (m : int) -> m)
  in
  List.iter
    (fun m ->
      match p m with
      | Policy.No_change -> ()
      | Policy.Reconfigure _ -> Alcotest.fail "decided from an off-spec config")
    [ 0; 1; 5; 0 ]

(* -- constructor validation: parameterizations the checker proves
   thrashing are rejected up front (the satellite threshold-fault
   fixes) -- *)

let test_constructor_threshold_validation () =
  Alcotest.check_raises "barrier overlap"
    (Invalid_argument
       "Adaptive_barrier.create: spin_if_under must be below block_if_over \
        (overlapping thresholds thrash)")
    (fun () ->
      ignore (Cthreads.Adaptive_barrier.create ~spin_if_under:9 ~block_if_over:9 2));
  Alcotest.check_raises "condition overlap"
    (Invalid_argument "Adaptive_condition.create: broadcast_over must be at least 2")
    (fun () -> ignore (Cthreads.Adaptive_condition.create ~broadcast_over:1 ()));
  Alcotest.check_raises "semaphore overlap"
    (Invalid_argument "Adaptive_semaphore.create: block_over must be at least 1")
    (fun () -> ignore (Cthreads.Adaptive_semaphore.create ~block_over:0 1));
  (* and the checker agrees those parameterizations thrash *)
  let thrashes spec =
    List.exists (fun f -> f.PC.f_kind = "thrash-cycle") (PC.check spec)
  in
  Alcotest.(check bool) "barrier spec thrashes" true
    (thrashes (Cthreads.Adaptive_barrier.policy_spec ~spin_if_under:9 ~block_if_over:9 ()));
  Alcotest.(check bool) "condition spec thrashes" true
    (thrashes (Cthreads.Adaptive_condition.policy_spec ~broadcast_over:1 ()));
  Alcotest.(check bool) "semaphore spec thrashes" true
    (thrashes (Cthreads.Adaptive_semaphore.policy_spec ~block_over:0 ()))

(* -- Policy.Guard cooldown edges -- *)

let test_guard_cooldown_resumes () =
  let g = Policy.Guard.create ~pathological_limit:2 ~cooldown:3 () in
  let note p = Policy.Guard.note g ~pathological:p in
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "streak 2 fires" true (note true);
  Alcotest.(check int) "one fallback" 1 (Policy.Guard.fallbacks g);
  (* cooldown: three pathological samples ignored *)
  Alcotest.(check bool) "cooldown 1" false (note true);
  Alcotest.(check bool) "cooldown 2" false (note true);
  Alcotest.(check bool) "cooldown 3" false (note true);
  (* counting resumes *)
  Alcotest.(check bool) "fresh streak 1" false (note true);
  Alcotest.(check bool) "fresh streak 2 fires" true (note true);
  Alcotest.(check int) "two fallbacks" 2 (Policy.Guard.fallbacks g);
  (* a healthy sample during a streak resets it *)
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "cd" false (note true);
  Alcotest.(check bool) "streak 1" false (note true);
  Alcotest.(check bool) "healthy resets" false (note false);
  Alcotest.(check bool) "streak 1 again" false (note true);
  Alcotest.(check bool) "streak 2 fires again" true (note true)

(* -- oracle: the compiled adaptive-lock spec against the paper's rule -- *)

(* The paper's simple-adapt rule, written out by hand. *)
let simple_adapt (p : Locks.Adaptive_lock.params) spins waiting =
  if waiting = 0 then p.spin_cap
  else if waiting <= p.waiting_threshold then min p.spin_cap (spins + p.n)
  else max 0 (spins - (2 * p.n))

(* The guardrail beside it: a sample is clamped into [0, clamp_max]; a
   clamped sample, or waiters past the threshold while the budget sits
   at pure blocking (the wedge), is pathological; [pathological_limit]
   of those in a row reset the budget to its initial value, and the
   next [cooldown] samples are not judged. Returns the budget after
   each sample and the number of fallbacks. *)
let reference (p : Locks.Adaptive_lock.params) ?guardrail waits =
  let init = min p.spin_cap p.n in
  let streak = ref 0 and cooldown = ref 0 and fallbacks = ref 0 in
  let observe spins w =
    match guardrail with
    | None -> simple_adapt p spins w
    | Some (g : Policy.Guard.params) ->
      let clamped = max 0 (min g.clamp_max w) in
      let pathological = clamped <> w || (spins = 0 && w > p.waiting_threshold) in
      if !cooldown > 0 then decr cooldown
      else if pathological then incr streak
      else streak := 0;
      if !streak >= g.pathological_limit then begin
        streak := 0;
        cooldown := g.cooldown;
        incr fallbacks;
        init
      end
      else simple_adapt p spins clamped
  in
  let _, trajectory =
    List.fold_left
      (fun (spins, acc) w ->
        let spins = observe spins w in
        (spins, spins :: acc))
      (init, []) waits
  in
  (List.rev trajectory, !fallbacks)

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled adaptive-lock spec matches the reference rule" ~count:500
    QCheck.(
      triple
        (triple (int_range 0 6) (int_range 1 12) (int_range 1 48))
        (option (triple (int_range 0 30) (int_range 1 4) (int_range 0 5)))
        (list_of_size Gen.(int_range 0 80) (int_range 0 40)))
    (fun ((waiting_threshold, n, spin_cap), guardrail, waits) ->
      let params = { Locks.Adaptive_lock.waiting_threshold; n; spin_cap; sample_period = 1 } in
      let guardrail =
        Option.map
          (fun (clamp_max, pathological_limit, cooldown) ->
            { Policy.Guard.clamp_max; pathological_limit; cooldown })
          guardrail
      in
      let b = Test_lock_units.drive_budget ?guardrail params in
      let trajectory =
        List.map
          (fun waiting ->
            ignore (b.step ~waiting);
            !(b.spins))
          waits
      in
      let fallbacks = Option.fold ~none:0 ~some:Policy.Guard.fallbacks b.guard in
      (trajectory, fallbacks) = reference params ?guardrail waits)

let suite =
  [
    Alcotest.test_case "shipped specs verify clean" `Quick test_shipped_clean;
    Alcotest.test_case "shipped specs validate" `Quick test_shipped_specs_validate;
    Alcotest.test_case "fixtures flagged" `Quick test_fixtures_flagged;
    Alcotest.test_case "malformed spec reported" `Quick test_malformed_spec_reported;
    Alcotest.test_case "conflicts need shared attribute" `Quick
      test_conflict_needs_shared_attribute;
    Alcotest.test_case "compiled rw hysteresis" `Quick test_compiled_rw_hysteresis;
    Alcotest.test_case "counter resets on config change" `Quick
      test_compiled_counter_resets_on_config_change;
    Alcotest.test_case "failed apply retries" `Quick test_compiled_failed_apply_retries;
    Alcotest.test_case "inert off-spec" `Quick test_compiled_inert_off_spec;
    Alcotest.test_case "constructor threshold validation" `Quick
      test_constructor_threshold_validation;
    Alcotest.test_case "guard cooldown resumes" `Quick test_guard_cooldown_resumes;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
  ]
