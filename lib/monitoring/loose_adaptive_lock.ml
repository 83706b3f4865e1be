open Butterfly
module AL = Locks.Adaptive_lock
module Adaptive = Adaptive_core.Adaptive
module Sensor = Adaptive_core.Sensor
module Policy = Adaptive_core.Policy

type t = {
  reconf : Locks.Reconfigurable_lock.t;
  ring : (int * int) Ring_buffer.t;
  monitor : (int * int) Monitor_thread.t;
  spec : Policy.Spec.t;
  mutable spins : int;
  loop : int Adaptive.t;
  sample_period : int;
  mutable unlocks_until_sample : int;
}

let waiting_count reconf =
  Locks.Lock_core.waiting_now (Locks.Reconfigurable_lock.core reconf)

let create ?(name = "loose-adaptive-lock") ?trace ?(params = AL.default_params)
    ?ring_capacity ?poll_interval_ns ~home ~monitor_proc () =
  let spec = AL.policy_spec ~params ~name () in
  let waiting = Locks.Waiting.combined ~node:home ~spins:params.AL.n () in
  let reconf = Locks.Reconfigurable_lock.create ~name ?trace ~policy:waiting ~home () in
  let ring = Ring_buffer.create ?capacity:ring_capacity ~home () in
  let loop =
    Adaptive.create ~name ~kind:"lock" ~spec ~home
      ~sensor:
        (Sensor.make ~name:(name ^ ".no-of-waiting-threads") ~overhead_instrs:40
           (fun () -> waiting_count reconf))
      ~policy:Policy.no_op ()
  in
  (* The loosely-coupled feedback path: the monitor thread drains the
     ring and feeds each (possibly stale) observation to the loop. *)
  let monitor =
    Monitor_thread.start_timestamped ~name:(name ^ ".monitor") ?poll_interval_ns
      ~proc:monitor_proc ~ring
      ~deliver:(fun waiting -> ignore (Adaptive.feed loop waiting))
      ()
  in
  let t =
    {
      reconf;
      ring;
      monitor;
      spec;
      spins = spec.Policy.Spec.s_initial;
      loop;
      sample_period = params.AL.sample_period;
      unlocks_until_sample = params.AL.sample_period;
    }
  in
  (* The same compiled spec as the closely-coupled lock; only [apply]
     differs. An external agent must own the attributes to reconfigure
     them. The budget advances even when it loses the ownership race
     (it tracks the policy's intent), but nothing changed, so the
     attempt does not count as an adaptation. *)
  Adaptive.set_policy loop
    (Policy.Spec.compile spec
       ~read:(fun () -> t.spins)
       ~apply:(fun v ->
         t.spins <- v;
         if Locks.Reconfigurable_lock.acquire_ownership reconf then begin
           AL.configure_waiting params
             (Locks.Lock_core.policy (Locks.Reconfigurable_lock.core reconf))
             v;
           Locks.Lock_stats.on_reconfigure (Locks.Reconfigurable_lock.stats reconf);
           Locks.Reconfigurable_lock.release_ownership reconf;
           true
         end
         else false)
       ~metric:(fun (waiting : int) -> waiting));
  t

let lock t = Locks.Reconfigurable_lock.lock t.reconf

let unlock t =
  Locks.Reconfigurable_lock.unlock t.reconf;
  t.unlocks_until_sample <- t.unlocks_until_sample - 1;
  if t.unlocks_until_sample <= 0 then begin
    t.unlocks_until_sample <- t.sample_period;
    Ring_buffer.publish t.ring (Ops.now (), waiting_count t.reconf)
  end

let stats t = Locks.Reconfigurable_lock.stats t.reconf
let shutdown t = Monitor_thread.stop t.monitor
let feedback t = t.loop
let adaptations t = Adaptive.adaptations t.loop
let observations_published t = Ring_buffer.published t.ring
let observations_processed t = Monitor_thread.processed t.monitor
let max_lag_ns t = Monitor_thread.max_lag_ns t.monitor
let mode t = Policy.Spec.config_name t.spec t.spins
