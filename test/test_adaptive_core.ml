(* Tests of the adaptive-object framework: costs, attributes
   (mutability/ownership), sensors (sampling rate), policies, and the
   feedback loop. *)

open Butterfly
module Cost = Adaptive_core.Cost
module Attribute = Adaptive_core.Attribute
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy
module Adaptive = Adaptive_core.Adaptive

let cfg = { Config.default with Config.processors = 4; contention = false }

let run main =
  let sim = Sched.create cfg in
  Sched.run sim main;
  sim

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec find i = i + n <= m && (String.sub s i n = sub || find (i + 1)) in
  find 0

let test_cost_algebra () =
  let a = Cost.make ~reads:1 ~writes:2 ~instrs:10 () in
  let b = Cost.reads_writes 3 4 in
  let c = Cost.( + ) a b in
  Alcotest.(check int) "reads add" 4 c.Cost.reads;
  Alcotest.(check int) "writes add" 6 c.Cost.writes;
  Alcotest.(check int) "instrs add" 10 c.Cost.instrs;
  Alcotest.(check string) "pp" "1R 2W 10i" (Format.asprintf "%a" Cost.pp a);
  Alcotest.(check string) "pp zero instr" "3R 4W" (Format.asprintf "%a" Cost.pp b)

let test_cost_charge_advances_time () =
  let elapsed = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let scratch = Ops.alloc1 ~node:0 () in
        let t0 = Ops.now () in
        Cost.charge ~scratch (Cost.make ~reads:2 ~writes:1 ~instrs:10 ());
        elapsed := Ops.now () - t0)
  in
  let expected =
    (2 * cfg.Config.local_read_ns) + cfg.Config.local_write_ns
    + Config.instrs cfg 10
  in
  Alcotest.(check int) "charged exactly" expected !elapsed

let test_attribute_get_set () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" 5 in
        Attribute.set a 9;
        v := Attribute.get a)
  in
  Alcotest.(check int) "set/get" 9 !v

let test_attribute_immutable_rejected () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" ~mutable_:false 5 in
        try Attribute.set a 9 with Attribute.Immutable_attribute "x" -> raised := true)
  in
  Alcotest.(check bool) "immutable set raises" true !raised

let test_attribute_mutability_toggle () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" ~mutable_:false 5 in
        Attribute.set_mutability a true;
        Attribute.set a 6;
        v := Attribute.get a)
  in
  Alcotest.(check int) "mutable again" 6 !v

let test_attribute_ownership () =
  let stranger_rejected = ref false and owner_ok = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" 1 in
        let holding = ref false in
        let owner =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              Alcotest.(check bool) "acquired" true (Attribute.acquire a);
              Attribute.set a 2;
              owner_ok := true;
              holding := true;
              (* Hold ownership long enough for the stranger to try. *)
              Ops.work 600_000;
              Attribute.release a)
        in
        while not !holding do
          Ops.delay 10_000
        done;
        (try Attribute.set a 3
         with Attribute.Not_owner msg ->
           (* The message names the attribute and the holding thread. *)
           stranger_rejected :=
             contains ~sub:"x (held by thread" msg && contains ~sub:"caller thread" msg);
        Cthreads.Cthread.join owner;
        (* Released: anyone may set again. *)
        Attribute.set a 4)
  in
  Alcotest.(check bool) "owner set fine" true !owner_ok;
  Alcotest.(check bool) "stranger rejected" true !stranger_rejected

let test_attribute_acquire_is_reentrant () =
  let both = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" 1 in
        let first = Attribute.acquire a in
        let second = Attribute.acquire a in
        both := first && second;
        Attribute.release a)
  in
  Alcotest.(check bool) "same thread may re-acquire" true !both

let test_attribute_release_by_stranger_rejected () =
  let raised = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let a = Attribute.make ~name:"x" 1 in
        ignore (Attribute.acquire a);
        let stranger =
          Cthreads.Cthread.fork ~proc:1 (fun () ->
              try Attribute.release a with Attribute.Not_owner _ -> raised := true)
        in
        Cthreads.Cthread.join stranger;
        Attribute.release a)
  in
  Alcotest.(check bool) "stranger release rejected" true !raised

let test_sensor_period () =
  let samples = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let counter = ref 0 in
        let s =
          Sensor.make ~name:"s" ~period:3 ~overhead_instrs:0 (fun () ->
              incr counter;
              !counter)
        in
        for _ = 1 to 10 do
          match Sensor.tick s with Some v -> samples := v :: !samples | None -> ()
        done;
        Alcotest.(check int) "ticks seen" 10 (Sensor.ticks_seen s);
        Alcotest.(check int) "samples taken" 3 (Sensor.samples_taken s))
  in
  Alcotest.(check (list int)) "sampled on ticks 3,6,9" [ 3; 2; 1 ] !samples

let test_sensor_force () =
  let v = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~name:"s" ~period:100 ~overhead_instrs:0 (fun () -> 42) in
        v := Sensor.force s)
  in
  Alcotest.(check int) "force bypasses period" 42 !v

let test_sensor_set_period () =
  let count = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~name:"s" ~period:10 ~overhead_instrs:0 (fun () -> 0) in
        Sensor.set_period s 1;
        for _ = 1 to 5 do
          if Sensor.tick s <> None then incr count
        done)
  in
  Alcotest.(check int) "rate change takes effect" 5 !count

let test_sensor_history () =
  let len = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~name:"s" ~period:1 ~overhead_instrs:0 (fun () -> 7) in
        let series = Sensor.history s ~record:float_of_int in
        for _ = 1 to 4 do
          Ops.work 1_000;
          ignore (Sensor.tick s)
        done;
        len := Engine.Series.length series)
  in
  Alcotest.(check int) "history recorded" 4 !len

let test_sensor_sampling_costs_time () =
  let dt = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let s = Sensor.make ~name:"s" ~period:1 ~overhead_instrs:100 (fun () -> 0) in
        let t0 = Ops.now () in
        ignore (Sensor.tick s);
        dt := Ops.now () - t0)
  in
  Alcotest.(check int) "overhead charged" (Config.instrs cfg 100) !dt

let test_feedback_loop_adapts () =
  let observed_modes = ref [] in
  let (_ : Sched.t) =
    run (fun () ->
        let level = ref 0 in
        let sensor = Sensor.make ~name:"level" ~period:2 ~overhead_instrs:0 (fun () -> !level) in
        let mode = ref "idle" in
        let policy obs =
          let next = if obs > 5 then "busy" else "idle" in
          if next = !mode then Policy.No_change
          else
            Policy.reconfigure ~label:next (fun () ->
                mode := next;
                observed_modes := next :: !observed_modes)
        in
        let loop = Adaptive.create ~name:"obj" ~home:0 ~sensor ~policy () in
        (* ticks 1-4 at level 0 -> stays idle; raise level, ticks sample
           on even counts. *)
        for i = 1 to 8 do
          level := if i >= 4 then 9 else 0;
          ignore (Adaptive.tick loop)
        done;
        level := 0;
        for _ = 9 to 12 do
          ignore (Adaptive.tick loop)
        done;
        Alcotest.(check int) "policy ran once per sample" 6 (Adaptive.policy_runs loop);
        Alcotest.(check int) "two transitions" 2 (Adaptive.adaptations loop);
        Alcotest.(check bool) "last label" true (Adaptive.last_label loop = Some "idle");
        Alcotest.(check int) "log length" 2 (List.length (Adaptive.log loop)))
  in
  Alcotest.(check (list string)) "busy then idle" [ "idle"; "busy" ] !observed_modes

let test_feedback_feed_bypasses_sensor () =
  let adapted = ref false in
  let (_ : Sched.t) =
    run (fun () ->
        let sensor = Sensor.make ~name:"s" ~period:1000 ~overhead_instrs:0 (fun () -> 0) in
        let policy obs =
          if obs = 99 then Policy.reconfigure ~label:"x" (fun () -> adapted := true)
          else Policy.No_change
        in
        let loop = Adaptive.create ~home:0 ~sensor ~policy () in
        ignore (Adaptive.feed loop 99);
        Alcotest.(check int) "no sensor samples" 0 (Adaptive.samples loop))
  in
  Alcotest.(check bool) "fed observation adapted" true !adapted

let test_feedback_charges_cost () =
  let dt = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sensor = Sensor.make ~name:"s" ~period:1 ~overhead_instrs:0 (fun () -> 0) in
        let policy _ =
          Policy.Reconfigure
            { label = "x"; cost = Cost.reads_writes 1 1; apply = (fun () -> true) }
        in
        let loop = Adaptive.create ~home:0 ~sensor ~policy () in
        let t0 = Ops.now () in
        ignore (Adaptive.tick loop);
        dt := Ops.now () - t0;
        Alcotest.(check bool) "cost accumulated" true
          (Adaptive.total_cost loop = Cost.reads_writes 1 1))
  in
  Alcotest.(check int) "1R 1W charged"
    (cfg.Config.local_read_ns + cfg.Config.local_write_ns)
    !dt

(* A decision whose apply reports failure (e.g. an external agent
   losing the attribute-ownership race) must not count as an
   adaptation: no metrics, no log entry, no subscriber event. *)
let test_feedback_failed_apply_not_counted () =
  let events = ref 0 in
  let (_ : Sched.t) =
    run (fun () ->
        let sensor =
          Sensor.make ~name:"s" ~period:1 ~overhead_instrs:0 (fun () -> 0)
        in
        let ok = ref false in
        let policy _ = Policy.reconfigure_checked ~label:"maybe" (fun () -> !ok) in
        let loop = Adaptive.create ~home:0 ~sensor ~policy () in
        Adaptive.subscribe loop (fun _ -> incr events);
        Alcotest.(check bool) "failed apply reports false" false (Adaptive.tick loop);
        Alcotest.(check int) "policy ran" 1 (Adaptive.policy_runs loop);
        Alcotest.(check int) "not counted" 0 (Adaptive.adaptations loop);
        Alcotest.(check bool) "no label" true (Adaptive.last_label loop = None);
        Alcotest.(check bool) "no cost accumulated" true
          (Adaptive.total_cost loop = Cost.zero);
        ok := true;
        Alcotest.(check bool) "successful apply reports true" true
          (Adaptive.tick loop);
        Alcotest.(check int) "counted once" 1 (Adaptive.adaptations loop))
  in
  Alcotest.(check int) "subscribers saw only the applied one" 1 !events

let suite =
  [
    Alcotest.test_case "cost algebra" `Quick test_cost_algebra;
    Alcotest.test_case "cost charge" `Quick test_cost_charge_advances_time;
    Alcotest.test_case "attribute get/set" `Quick test_attribute_get_set;
    Alcotest.test_case "attribute immutability" `Quick test_attribute_immutable_rejected;
    Alcotest.test_case "mutability toggle" `Quick test_attribute_mutability_toggle;
    Alcotest.test_case "attribute ownership" `Quick test_attribute_ownership;
    Alcotest.test_case "ownership reentrant" `Quick test_attribute_acquire_is_reentrant;
    Alcotest.test_case "stranger release" `Quick test_attribute_release_by_stranger_rejected;
    Alcotest.test_case "sensor period" `Quick test_sensor_period;
    Alcotest.test_case "sensor force" `Quick test_sensor_force;
    Alcotest.test_case "sensor rate change" `Quick test_sensor_set_period;
    Alcotest.test_case "sensor history" `Quick test_sensor_history;
    Alcotest.test_case "sensor cost" `Quick test_sensor_sampling_costs_time;
    Alcotest.test_case "feedback adapts" `Quick test_feedback_loop_adapts;
    Alcotest.test_case "feedback feed" `Quick test_feedback_feed_bypasses_sensor;
    Alcotest.test_case "feedback charges cost" `Quick test_feedback_charges_cost;
    Alcotest.test_case "feedback failed apply" `Quick
      test_feedback_failed_apply_not_counted;
  ]
