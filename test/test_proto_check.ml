(* Proto_check: the explicit-state protocol model checker. Shipped
   protocol models verify clean; each seeded-bad variant produces a
   counterexample for exactly its expected properties; counterexamples
   replay on their own model; checker output is byte-identical at any
   domain count, also on a model large enough to grow the seen-set;
   [max_states] bounds exploration inclusively; packed state keys
   round-trip and are canonical; random walks of the model replay (model
   well-formedness); and an instrumented real [Switch_lock] swap's
   transition log replays through the quiescence model step for step
   (conformance: the model moves like the implementation). *)

open Butterfly
open Cthreads
module P = Analysis.Proto_check
module PM = Locks.Proto_models
module SL = Locks.Switch_lock

let small_quiescence () = PM.quiescence ~waiters:[ PM.Wsleep; PM.Wtimed ] ()
let small_models () = [ small_quiescence (); PM.mcs ~contenders:2 (); PM.guard () ]

(* -- shipped protocols verify clean at their checked sizes -- *)

let test_shipped_clean () =
  let reports = P.check_all (PM.shipped ()) in
  Alcotest.(check bool) "every property holds" true (P.clean reports);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.P.r_model ^ "/" ^ r.P.r_property ^ ": explored states")
        true (r.P.r_states > 0))
    reports;
  (* Same model, same exploration: state/edge counts agree across its
     properties. *)
  let quiesce =
    List.filter (fun r -> r.P.r_model = "quiescence-swap") reports
  in
  Alcotest.(check int) "five quiescence properties" 5 (List.length quiesce);
  let st = (List.hd quiesce).P.r_states in
  List.iter
    (fun r -> Alcotest.(check int) "state count agrees" st r.P.r_states)
    quiesce

(* -- every seeded historical bug is caught, with exactly the expected
   property set -- *)

let test_fixtures_detected () =
  let fixtures =
    List.map
      (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
      (PM.seeded_bad ())
  in
  Alcotest.(check int) "four fixtures" 4 (List.length fixtures);
  Alcotest.(check bool) "all detected" true (P.fixtures_ok fixtures);
  List.iter
    (fun f ->
      Alcotest.(check (list string))
        (f.P.f_name ^ ": exactly the expected violations")
        (List.sort compare f.P.f_expect)
        (List.sort compare f.P.f_found))
    fixtures

(* -- a counterexample is a real trace: it replays on its model -- *)

let test_counterexample_replays () =
  List.iter
    (fun (name, ((model, _) as mp), expect) ->
      let f = P.check_fixture ~name ~expect mp in
      let replayed = ref 0 in
      List.iter
        (fun r ->
          match r.P.r_verdict with
          | P.Violated x ->
            (match P.replay model x.P.x_steps with
            | Ok () -> incr replayed
            | Error e -> Alcotest.fail (name ^ "/" ^ r.P.r_property ^ ": " ^ e))
          | _ -> ())
        f.P.f_reports;
      Alcotest.(check bool) (name ^ ": some counterexample replayed") true (!replayed > 0))
    (PM.seeded_bad ())

(* -- byte-identical output at any domain count -- *)

let test_deterministic_across_domains () =
  let run domains =
    (* The two-waiter quiescence model (about 8.7k states) grows the
       seen-set several times while other domains check concurrently. *)
    let grown = PM.quiescence ~waiters:[ PM.Wsleep; PM.Wsleep ] () in
    let shipped = P.check_all ~domains (grown :: small_models ()) in
    let fixtures =
      List.map
        (fun (name, model, expect) -> P.check_fixture ~name ~expect model)
        (PM.seeded_bad ())
    in
    P.to_json ~shipped ~fixtures ~lowered:[]
  in
  Alcotest.(check string) "domains 1 = domains 4" (run 1) (run 4)

(* -- max_states bounds the distinct states explored, inclusively -- *)

let test_max_states_bound () =
  let model, props = PM.guard () in
  let verdict max_states =
    let r = P.check ~max_states model (List.hd props) in
    match r.P.r_verdict with
    | P.Holds -> "holds"
    | P.Out_of_bounds -> "out-of-bounds"
    | P.Violated _ -> "violated"
  in
  Alcotest.(check string) "exactly 5 reachable states fit a bound of 5" "holds" (verdict 5);
  Alcotest.(check string) "a bound of 4 is exceeded" "out-of-bounds" (verdict 4)

(* -- packed keys: lossless, canonical, and injective on states -- *)

module Pr = Adaptive_core.Protocol

(* Every state a seeded random walk visits, plus all their successors. *)
let walk_states model ~seed =
  let trace, _ = P.random_walk model ~seed ~steps:300 in
  let rec go st acc = function
    | [] -> st :: acc
    | (role, label) :: rest ->
      let succs = Pr.successors model st in
      let acc = List.rev_append (List.map (fun (_, _, s) -> s) succs) (st :: acc) in
      (match List.find_opt (fun (r, l, _) -> r = role && l = label) succs with
      | Some (_, _, st') -> go st' acc rest
      | None -> Alcotest.fail (Printf.sprintf "seed %d: walk step %s:%s" seed role label))
  in
  go (Pr.init model) [] trace

let check_round_trip model st =
  let k = Pr.key model st in
  let st' = Pr.of_key model k in
  Alcotest.(check string) "describe survives of_key" (Pr.describe model st) (Pr.describe model st');
  Alcotest.(check string) "key survives of_key" k (Pr.key model st')

let test_key_round_trip () =
  let models =
    PM.shipped () @ List.map (fun (_, mp, _) -> mp) (PM.seeded_bad ())
  in
  List.iter
    (fun (model, _) ->
      let by_desc = Hashtbl.create 1024 and by_key = Hashtbl.create 1024 in
      for seed = 1 to 5 do
        List.iter
          (fun st ->
            check_round_trip model st;
            let d = Pr.describe model st and k = Pr.key model st in
            (match Hashtbl.find_opt by_desc d with
            | Some k' -> Alcotest.(check string) (Pr.name model ^ ": one key per state") k' k
            | None -> Hashtbl.add by_desc d k);
            match Hashtbl.find_opt by_key k with
            | Some d' -> Alcotest.(check string) (Pr.name model ^ ": one state per key") d' d
            | None -> Hashtbl.add by_key k d)
          (walk_states model ~seed)
      done;
      Alcotest.(check bool) (Pr.name model ^ ": walked several states") true
        (Hashtbl.length by_key > 1))
    models

(* Words outside the one-byte range [-64, 63]: negative, above 2^20,
   and the int extremes. *)
let test_key_wide_words () =
  let module S = Pr.Spec in
  let spec =
    { S.p_name = "wide-words";
      p_shared = [ ("neg", 0); ("big", 0); ("lo", 0); ("hi", 0) ];
      p_roles =
        [ { S.r_name = "writer"; r_flavor = S.Monitor; r_crashable = false;
            r_locals = [ ("x", -1) ] } ];
      p_rules =
        [ S.rule ~role:"writer" ~from_:0
            ~acts:
              [ S.Write ("neg", S.K (-5)); S.Write ("big", S.K ((1 lsl 21) + 3));
                S.Write ("lo", S.K min_int); S.Write ("hi", S.K max_int);
                S.Set ("x", S.K (-(1 lsl 40))) ]
            ~label:"write" 1 ];
      p_crash_budget = 0;
      p_clock_max = 0 }
  in
  let model = Pr.compile spec in
  let init = Pr.init model in
  let st =
    match Pr.successors model init with
    | [ (_, "write", st) ] -> st
    | _ -> Alcotest.fail "one write transition"
  in
  check_round_trip model init;
  check_round_trip model st;
  let back = Pr.of_key model (Pr.key model st) in
  Alcotest.(check (list int)) "decoded shared words"
    [ -5; (1 lsl 21) + 3; min_int; max_int ]
    (List.map (Pr.shared model back) [ "neg"; "big"; "lo"; "hi" ]);
  Alcotest.(check int) "decoded local" (-(1 lsl 40)) (Pr.local model back "writer" "x");
  (* Ten words: 4 shared, pc, local, status, wake, clk, cr. *)
  Alcotest.(check int) "one byte per small word" 10 (String.length (Pr.key model init));
  (* -5: 1 byte; 2^21+3: 4; min_int, max_int: 9 each; -(2^40): 6;
     five one-byte words. *)
  Alcotest.(check int) "multi-byte words" 34 (String.length (Pr.key model st));
  Alcotest.check_raises "truncated key rejected"
    (Invalid_argument "Protocol.of_key: truncated key") (fun () ->
      ignore (Pr.of_key model (String.sub (Pr.key model st) 0 33)));
  Alcotest.check_raises "trailing bytes rejected"
    (Invalid_argument "Protocol.of_key: trailing bytes") (fun () ->
      ignore (Pr.of_key model (Pr.key model st ^ "\000")));
  let r =
    P.check model
      (Pr.Safety { q_name = "none"; q_desc = ""; q_bad = (fun _ _ -> None) })
  in
  Alcotest.(check (pair int int)) "checker explores both states" (2, 1) (r.P.r_states, r.P.r_edges)

(* -- model well-formedness: random walks stay safe and replay -- *)

let test_random_walks_replay () =
  List.iter
    (fun (model, props) ->
      for seed = 1 to 10 do
        (match P.walk_violates model props ~seed ~steps:300 with
        | None -> ()
        | Some why ->
          Alcotest.fail
            (Printf.sprintf "seed %d violates %s" seed why));
        let trace, _ = P.random_walk model ~seed ~steps:300 in
        match P.replay model trace with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "seed %d: %s" seed e)
      done)
    (small_models ())

(* -- conformance: an instrumented real Switch_lock swap produces a
   transition log the quiescence model accepts step for step. One
   swapper, two sleeping waiters, blocking -> TAS — the same shape as
   [PM.quiescence ~waiters:[Wsleep; Wsleep]]. -- *)

let test_conformance_real_swap_log () =
  let log = ref [] in
  let cfg = { Config.default with Config.processors = 8 } in
  let sim = Sched.create cfg in
  Sched.run sim (fun () ->
      (* repeats so high the feedback loop never swaps on its own: the
         only protocol traffic in the log is ours. *)
      let params = { SL.default_params with SL.repeats = 1_000_000 } in
      let lk = SL.create ~initial:SL.Blocking ~params ~home:0 () in
      SL.set_transition_probe lk
        (Some (fun tid label -> log := (tid, label) :: !log));
      SL.lock lk;
      let waiters =
        List.init 2 (fun i ->
            Cthread.fork ~proc:(1 + i) (fun () ->
                Cthread.delay ((i + 1) * 30_000);
                SL.lock lk;
                Cthread.work 10_000;
                SL.unlock lk))
      in
      while SL.waiting_now lk < 2 do
        Cthread.delay 10_000
      done;
      (* Long enough for both registered waiters to actually park. *)
      Cthread.delay 200_000;
      Alcotest.(check bool) "swap committed" true (SL.swap_to lk SL.Tas);
      SL.unlock lk;
      Cthread.join_all waiters);
  let events = List.rev !log in
  (* Canonicalize tids to model roles: the swapper is whoever froze,
     the waiters are named in registration order. *)
  let swapper =
    match List.find_opt (fun (_, l) -> l = "freeze") events with
    | Some (tid, _) -> tid
    | None -> Alcotest.fail "no freeze in the log"
  in
  let waiters =
    List.filteri (fun i _ -> i < 2)
      (List.filter_map
         (fun (tid, l) -> if l = "register" then Some tid else None)
         events)
  in
  let role tid =
    if tid = swapper then Some "swapper"
    else
      match List.find_index (fun t -> t = tid) waiters with
      | Some i -> Some (Printf.sprintf "w%d" (i + 1))
      | None -> None
  in
  (* The model starts with the swapper already holding the lock, so its
     initial acquisition is not a model step. *)
  let steps =
    List.filter_map (fun (tid, l) -> Option.map (fun r -> (r, l)) (role tid)) events
  in
  let steps =
    match steps with ("swapper", "acquire") :: rest -> rest | s -> s
  in
  let model, _ = PM.quiescence ~waiters:[ PM.Wsleep; PM.Wsleep ] () in
  Alcotest.(check bool) "log has protocol steps" true (List.length steps > 8);
  match P.replay model steps with
  | Ok () -> ()
  | Error e ->
    Alcotest.fail
      (Printf.sprintf "implementation log diverges from the model: %s\nlog: %s" e
         (String.concat " " (List.map (fun (r, l) -> r ^ ":" ^ l) steps)))

(* -- lowering: the model counterexamples with a simulator workload
   arrive Confirmed with a bit-for-bit witness replay -- *)

let test_lowerings_confirmed () =
  let ls = Analysis_suite.proto_lowerings () in
  Alcotest.(check int) "two lowered counterexamples" 2 (List.length ls);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l.P.l_fixture ^ ": confirmed") true l.P.l_confirmed;
      Alcotest.(check bool) (l.P.l_fixture ^ ": replayed bit-for-bit") true
        l.P.l_replay_ok;
      Alcotest.(check bool) (l.P.l_fixture ^ ": non-empty schedule") true
        (l.P.l_schedule_len > 0))
    ls

let suite =
  [
    Alcotest.test_case "shipped protocols verify clean" `Slow test_shipped_clean;
    Alcotest.test_case "seeded bugs all caught" `Quick test_fixtures_detected;
    Alcotest.test_case "counterexamples replay on the model" `Quick
      test_counterexample_replays;
    Alcotest.test_case "byte-identical across domains" `Quick
      test_deterministic_across_domains;
    Alcotest.test_case "random walks stay safe and replay" `Quick
      test_random_walks_replay;
    Alcotest.test_case "real swap log conforms to the model" `Quick
      test_conformance_real_swap_log;
    Alcotest.test_case "counterexamples lower to confirmed witnesses" `Slow
      test_lowerings_confirmed;
    Alcotest.test_case "max_states bound is inclusive" `Quick test_max_states_bound;
    Alcotest.test_case "keys round-trip and are canonical" `Quick test_key_round_trip;
    Alcotest.test_case "keys encode wide and negative words" `Quick test_key_wide_words;
  ]
