module Policy = Adaptive_core.Policy
module Sensor = Adaptive_core.Sensor
module Adaptive = Adaptive_core.Adaptive
module Attribute = Adaptive_core.Attribute

type params = { waiting_threshold : int; n : int; spin_cap : int; sample_period : int }

let default_params = { waiting_threshold = 4; n = 16; spin_cap = 32; sample_period = 2 }

let default_guardrail =
  { Policy.Guard.clamp_max = 64; pathological_limit = 4; cooldown = 8 }

type t = {
  reconf : Reconfigurable_lock.t;
  loop : int Adaptive.t;
  spec : Policy.Spec.t;
  mutable spins : int;
  guard : Policy.Guard.t option;
}

let mode_of ~cap v =
  if v <= 0 then "pure blocking"
  else if v >= cap then "pure spin"
  else Printf.sprintf "combined(%d)" v

(* The paper's rule as a pure function of the budget value. *)
let step (p : params) spins ~waiting =
  if waiting = 0 then p.spin_cap
  else if waiting <= p.waiting_threshold then min p.spin_cap (spins + p.n)
  else max 0 (spins - (2 * p.n))

let configure_waiting (p : params) (policy : Waiting.t) spins =
  if spins >= p.spin_cap then begin
    Attribute.set policy.Waiting.spin_count max_int;
    Attribute.set policy.Waiting.sleep false
  end
  else begin
    Attribute.set policy.Waiting.spin_count spins;
    Attribute.set policy.Waiting.sleep true
  end

(* The guardrail half of the policy spec: clamp observations into
   [0, clamp_max], treat "budget wedged at pure blocking while waiters
   pile past the threshold" as pathological, and fall back to the
   default combined configuration after a streak. *)
let guard_spec ~(params : params) ~(guardrail : Policy.Guard.params) ~init =
  {
    Policy.Spec.g_clamp_lo = 0;
    g_clamp_hi = guardrail.clamp_max;
    g_wedge =
      Some
        {
          Policy.Spec.w_configs = [ 0 ];
          w_cond = Policy.Spec.cond (params.waiting_threshold + 1);
        };
    g_limit = guardrail.pathological_limit;
    g_cooldown = guardrail.cooldown;
    g_fallback = init;
    g_fallback_label = "guardrail-fallback";
    g_fallback_cost = Lock_costs.configure_waiting_policy;
  }

let policy_spec ?(params = default_params) ?guardrail ?(name = "adaptive-lock") () =
  let module Spec = Policy.Spec in
  let threshold = params.waiting_threshold and cap = params.spin_cap in
  if threshold < 0 || params.n <= 0 || cap <= 0 then invalid_arg "Adaptive_lock.policy_spec";
  let init = max 0 (min cap params.n) in
  (* One representative waiting count per threshold region, and the
     reachable-budget closure from [init] under them. *)
  let regions =
    (Spec.cond 0 ~hi:0, 0)
    :: (if threshold >= 1 then [ (Spec.cond 1 ~hi:threshold, 1) ] else [])
    @ [ (Spec.cond (threshold + 1), threshold + 1) ]
  in
  let rec close seen frontier =
    match frontier with
    | [] -> seen
    | v :: rest ->
      let nexts =
        List.filter_map
          (fun waiting ->
            let v' = step params v ~waiting in
            if List.mem v' seen then None else Some v')
          (List.map snd regions)
      in
      let nexts = List.sort_uniq compare nexts in
      close (seen @ nexts) (rest @ nexts)
  in
  let values = List.sort compare (close [ init ] [ init ]) in
  let transitions =
    List.concat_map
      (fun v ->
        List.filter_map
          (fun (c, waiting) ->
            let target = step params v ~waiting in
            if target = v then None
            else
              Some
                {
                  Spec.t_from = v;
                  t_cond = c;
                  t_target = target;
                  t_label = mode_of ~cap target;
                  t_repeats = 1;
                  t_cost = Lock_costs.configure_waiting_policy;
                })
          regions)
      values
  in
  {
    Spec.s_name = name;
    s_kind = "lock";
    s_attribute = name ^ ".waiting-policy";
    s_metric = "no-of-waiting-threads";
    s_monotone = Spec.Up_at_low;
    s_configs = List.map (fun v -> { Spec.c_name = mode_of ~cap v; c_value = v }) values;
    s_initial = init;
    s_transitions = transitions;
    s_guard = Option.map (fun guardrail -> guard_spec ~params ~guardrail ~init) guardrail;
  }

let create ?name ?trace ?sched ?(params = default_params) ?policy ?guardrail ~home () =
  let name = match name with Some n -> n | None -> "adaptive-lock" in
  let spec = policy_spec ~params ?guardrail ~name () in
  (* A caller-supplied policy replaces simple-adapt (and its guard). *)
  let guard =
    match policy with Some _ -> None | None -> Option.map Policy.Guard.of_params guardrail
  in
  let waiting = Waiting.combined ~node:home ~spins:params.n () in
  let reconf = Reconfigurable_lock.create ~name ?trace ?sched ~policy:waiting ~home () in
  let core = Reconfigurable_lock.core reconf in
  let sensor =
    Sensor.make ~name:(name ^ ".no-of-waiting-threads") ~period:params.sample_period
      ~overhead_instrs:40
      (fun () -> Lock_core.waiting_now core)
  in
  (* The spec describes the default (possibly guardrailed) simple-adapt
     policies; a caller-supplied policy is opaque, so no spec — the
     registry then skips the formal log check rather than judging the
     log against a space it does not follow. *)
  let loop =
    Adaptive.create ~name ~kind:"lock"
      ?spec:(match policy with Some _ -> None | None -> Some spec)
      ~home ~sensor ~policy:Policy.no_op ()
  in
  let t = { reconf; loop; spec; spins = spec.Policy.Spec.s_initial; guard } in
  let policy =
    match policy with
    | Some p -> p
    | None ->
      Policy.Spec.compile spec ?guard_state:guard
        ~read:(fun () -> t.spins)
        ~apply:(fun v ->
          t.spins <- v;
          configure_waiting params (Lock_core.policy core) v;
          Lock_stats.on_reconfigure (Reconfigurable_lock.stats reconf);
          true)
        ~metric:(fun (waiting : int) -> waiting)
  in
  Adaptive.set_policy loop policy;
  t

let lock t = Reconfigurable_lock.lock t.reconf
let try_lock t = Reconfigurable_lock.try_lock t.reconf
let lock_timeout t ~deadline_ns = Reconfigurable_lock.lock_timeout t.reconf ~deadline_ns

let lock_retrying t ~backoff ~max_attempts ~slice_ns =
  Reconfigurable_lock.lock_retrying t.reconf ~backoff ~max_attempts ~slice_ns

let unlock t =
  Reconfigurable_lock.unlock t.reconf;
  ignore (Adaptive.tick t.loop)

let name t = Reconfigurable_lock.name t.reconf
let stats t = Reconfigurable_lock.stats t.reconf
let reconfigurable t = t.reconf
let feedback t = t.loop
let spins_now t = t.spins
let mode t = Policy.Spec.config_name t.spec t.spins
let adaptations t = Adaptive.adaptations t.loop
let samples t = Adaptive.samples t.loop
let guardrail t = t.guard
