(* Monitoring-library tests: ring buffer semantics, the monitor thread,
   and the loosely-coupled adaptive lock. *)

open Butterfly
open Cthreads

let cfg = { Config.default with Config.processors = 8 }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_ring_publish_consume () =
  let got = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let ring = Monitoring.Ring_buffer.create ~capacity:8 ~home:0 () in
        Monitoring.Ring_buffer.publish ring 1;
        Monitoring.Ring_buffer.publish ring 2;
        Monitoring.Ring_buffer.publish ring 3;
        let rec drain () =
          match Monitoring.Ring_buffer.consume ring with
          | Some v ->
            got := v :: !got;
            drain ()
          | None -> ()
        in
        drain ())
  in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3 ] (List.rev !got)

let test_ring_empty_consume () =
  let empty = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let ring : int Monitoring.Ring_buffer.t =
          Monitoring.Ring_buffer.create ~home:0 ()
        in
        empty := Monitoring.Ring_buffer.consume ring = None)
  in
  check_bool "empty ring yields None" true !empty

let test_ring_overflow_drops_oldest () =
  let seen = ref [] and dropped = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let ring = Monitoring.Ring_buffer.create ~capacity:4 ~home:0 () in
        for i = 1 to 10 do
          Monitoring.Ring_buffer.publish ring i
        done;
        dropped := Monitoring.Ring_buffer.dropped ring;
        let rec drain () =
          match Monitoring.Ring_buffer.consume ring with
          | Some v ->
            seen := v :: !seen;
            drain ()
          | None -> ()
        in
        drain ())
  in
  check_bool "some records dropped" true (!dropped > 0);
  check_bool "the newest records survive" true (List.mem 10 !seen)

let test_ring_concurrent_producers () =
  let consumed = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let ring = Monitoring.Ring_buffer.create ~capacity:256 ~home:0 () in
        let producers =
          List.init 4 (fun p ->
              Cthread.fork ~proc:(p + 1) (fun () ->
                  for i = 1 to 20 do
                    Monitoring.Ring_buffer.publish ring ((p * 100) + i);
                    Cthread.work 3_000
                  done))
        in
        let consumer =
          Cthread.fork ~proc:5 (fun () ->
              while !consumed < 80 do
                match Monitoring.Ring_buffer.consume ring with
                | Some _ -> incr consumed
                | None -> Cthread.delay 5_000
              done)
        in
        Cthread.join_all producers;
        Cthread.join consumer)
  in
  check_int "all records arrive" 80 !consumed

let test_monitor_thread_delivers () =
  let delivered = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let ring = Monitoring.Ring_buffer.create ~home:0 () in
        let monitor =
          Monitoring.Monitor_thread.start ~proc:7 ~ring
            ~deliver:(fun v -> delivered := v :: !delivered)
            ()
        in
        for i = 1 to 5 do
          Monitoring.Ring_buffer.publish ring i;
          Cthread.work 30_000
        done;
        (* Give the monitor time to drain before stopping. *)
        Cthread.delay 500_000;
        Monitoring.Monitor_thread.stop monitor;
        Alcotest.(check int) "processed count" 5
          (Monitoring.Monitor_thread.processed monitor))
  in
  Alcotest.(check (list int)) "delivered in order" [ 1; 2; 3; 4; 5 ] (List.rev !delivered)

let test_monitor_thread_measures_lag () =
  let lag = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let ring = Monitoring.Ring_buffer.create ~home:0 () in
        let monitor =
          Monitoring.Monitor_thread.start_timestamped ~proc:7 ~poll_interval_ns:200_000
            ~ring ~deliver:(fun _ -> ()) ()
        in
        Monitoring.Ring_buffer.publish ring (Cthread.now (), 42);
        Cthread.delay 600_000;
        Monitoring.Monitor_thread.stop monitor;
        lag := Monitoring.Monitor_thread.max_lag_ns monitor)
  in
  check_bool "observation lag measured" true (!lag > 0)

let test_loose_adaptive_mutual_exclusion () =
  let counter = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Monitoring.Loose_adaptive_lock.create ~home:0 ~monitor_proc:7 () in
        let body () =
          for _ = 1 to 15 do
            Monitoring.Loose_adaptive_lock.lock lk;
            let v = !counter in
            Cthread.work 3_000;
            counter := v + 1;
            Monitoring.Loose_adaptive_lock.unlock lk
          done
        in
        let ts = List.init 4 (fun i -> Cthread.fork ~proc:(i + 1) body) in
        Cthread.join_all ts;
        Monitoring.Loose_adaptive_lock.shutdown lk)
  in
  check_int "no lost updates" 60 !counter

let test_loose_adaptive_adapts_with_lag () =
  let adaptations = ref 0 and lag = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let lk = Monitoring.Loose_adaptive_lock.create ~home:0 ~monitor_proc:7 () in
        (* Uncontended traffic: the policy should eventually configure
           pure spin — but only after the monitor thread sees the
           observations. *)
        for _ = 1 to 30 do
          Monitoring.Loose_adaptive_lock.lock lk;
          Cthread.work 2_000;
          Monitoring.Loose_adaptive_lock.unlock lk;
          Cthread.work 20_000
        done;
        Cthread.delay 1_000_000;
        Monitoring.Loose_adaptive_lock.shutdown lk;
        adaptations := Monitoring.Loose_adaptive_lock.adaptations lk;
        lag := Monitoring.Loose_adaptive_lock.max_lag_ns lk;
        Alcotest.(check string) "reached pure spin" "pure spin"
          (Monitoring.Loose_adaptive_lock.mode lk))
  in
  check_bool "adapted" true (!adaptations >= 1);
  check_bool "with measurable lag" true (!lag > 0)

(* Each loose lock declares its spec under its own name, on its own
   attribute — two of them must not look like co-writers of one
   shared attribute. *)
let test_loose_lock_declares_own_spec () =
  let specs = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Monitoring.Loose_adaptive_lock.create ~name:"a" ~home:0 ~monitor_proc:6 () in
        let b = Monitoring.Loose_adaptive_lock.create ~name:"b" ~home:1 ~monitor_proc:7 () in
        specs :=
          List.filter_map
            (fun (m : Adaptive_core.Registry.metrics) ->
              Option.map
                (fun (s : Adaptive_core.Policy.Spec.t) -> (m.name, s.s_name, s.s_attribute))
                m.spec)
            (Adaptive_core.Registry.snapshot ());
        Monitoring.Loose_adaptive_lock.shutdown a;
        Monitoring.Loose_adaptive_lock.shutdown b)
  in
  Alcotest.(check (list (triple string string string)))
    "spec name and attribute follow the lock name"
    [ ("a", "a", "a.waiting-policy"); ("b", "b", "b.waiting-policy") ]
    !specs

let test_coupling_ablation_shape () =
  let rows = Experiments.Ablations.coupling () in
  check_int "two rows" 2 (List.length rows);
  let close = List.find (fun r -> r.Experiments.Ablations.coupling = "closely-coupled") rows in
  let loose = List.find (fun r -> r.Experiments.Ablations.coupling = "loosely-coupled") rows in
  check_bool "loose has lag, close none" true
    (loose.Experiments.Ablations.max_lag_us > 0.0
    && close.Experiments.Ablations.max_lag_us = 0.0)

let suite =
  [
    Alcotest.test_case "ring publish/consume" `Quick test_ring_publish_consume;
    Alcotest.test_case "ring empty" `Quick test_ring_empty_consume;
    Alcotest.test_case "ring overflow" `Quick test_ring_overflow_drops_oldest;
    Alcotest.test_case "ring concurrent producers" `Quick test_ring_concurrent_producers;
    Alcotest.test_case "monitor thread delivers" `Quick test_monitor_thread_delivers;
    Alcotest.test_case "monitor thread lag" `Quick test_monitor_thread_measures_lag;
    Alcotest.test_case "loose lock mutual exclusion" `Quick
      test_loose_adaptive_mutual_exclusion;
    Alcotest.test_case "loose lock adapts with lag" `Quick test_loose_adaptive_adapts_with_lag;
    Alcotest.test_case "loose locks declare their own spec" `Quick
      test_loose_lock_declares_own_spec;
    Alcotest.test_case "coupling ablation shape" `Quick test_coupling_ablation_shape;
  ]
