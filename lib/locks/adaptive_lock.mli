(** Adaptive locks: the paper's headline object.

    A reconfigurable lock plus a built-in, closely-coupled monitor
    (a {!Adaptive_core.Sensor} on the waiting-thread count, sampled
    once every [sample_period] unlock operations — the paper uses every
    other unlock) and a user-provided adaptation policy that retunes
    the waiting attributes.

    The default policy is the paper's [simple-adapt] (§4):

    {v
    IF   no-of-waiting-threads = 0                 configure pure spin
    ELSE IF no-of-waiting-threads <= Waiting-Threshold  spins += n
    ELSE                                            spins -= 2*n
    IF spins <= 0                                  configure pure blocking
    v}

    The spin budget is a saturating counter in [0, spin_cap]: 0 is the
    pure-blocking configuration, [spin_cap] the pure-spin one, anything
    between a combined spin-then-block lock. Each applied transition is
    charged as one waiting-policy reconfiguration (Table 8). The
    running policy is {!policy_spec} compiled by
    [Adaptive_core.Policy.Spec.compile]; the loosely coupled lock in
    [Monitoring] compiles the same spec. *)

type t

type params = {
  waiting_threshold : int;  (** the paper's [Waiting-Threshold] *)
  n : int;  (** the paper's lock-specific constant [n] *)
  spin_cap : int;  (** spin budget that counts as "pure spin" *)
  sample_period : int;  (** sample every k-th unlock (paper: 2) *)
}

val default_params : params
(** threshold 4, n 16, cap 32, period 2. *)

val default_guardrail : Adaptive_core.Policy.Guard.params
(** clamp_max 64, pathological_limit 4, cooldown 8. *)

val create :
  ?name:string ->
  ?trace:bool ->
  ?sched:Lock_sched.kind ->
  ?params:params ->
  ?guardrail:Adaptive_core.Policy.Guard.params ->
  home:int ->
  unit ->
  t
(** The lock's feedback loop runs {!policy_spec} (the paper's
    [simple-adapt] for [params]), built by
    [Adaptive_core.Adaptive.create]. The lock starts in the spec's
    initial configuration, the budget [min n spin_cap]: pure spin at
    the cap, combined with that many spins below it.

    [guardrail] adds a guard to the spec: observations are clamped
    into [\[0, clamp_max\]], and a run of pathological samples —
    clamped ones, or waiters piling past the threshold while the
    budget sits at pure blocking — triggers a fallback to the initial
    configuration (charged as one reconfiguration, logged as
    ["guardrail-fallback"]) instead of wedging the budget at an
    extreme. Off by default.

    Raises [Invalid_argument] when [waiting_threshold < 0], [n <= 0]
    or [spin_cap <= 0], or when [guardrail] has [clamp_max < 0],
    [pathological_limit <= 0] or [cooldown < 0]. *)

val lock : t -> unit
val try_lock : t -> bool

val lock_timeout : t -> deadline_ns:int -> bool
(** Timed acquisition (see {!Lock_core.lock_timeout}). *)

val lock_retrying :
  t -> backoff:Engine.Backoff.t -> max_attempts:int -> slice_ns:int -> bool
(** Retried timed acquisition (see {!Lock_core.lock_retrying}). *)

val unlock : t -> unit
(** Releases the lock, then runs the monitor/adaptation tick (the
    closely-coupled feedback loop executes inside the application
    thread, not a separate monitoring thread). *)

val name : t -> string
val stats : t -> Lock_stats.t
val reconfigurable : t -> Reconfigurable_lock.t
val feedback : t -> int Adaptive_core.Adaptive.t

val spins_now : t -> int
(** Current spin budget (for tests and the threshold ablation). *)

val mode : t -> string
(** ["pure spin"], ["pure blocking"] or ["combined(k)"]. *)

val adaptations : t -> int
val samples : t -> int

val policy_spec :
  ?params:params ->
  ?guardrail:Adaptive_core.Policy.Guard.params ->
  ?name:string ->
  unit ->
  Adaptive_core.Policy.Spec.t
(** [simple-adapt] (plus the guardrail, when given) as a declarative
    policy spec — the artifact the static checker
    ([Analysis.Policy_check]) model-checks, and exactly what {!create}
    compiles into the running policy. Configurations are the budget
    values reachable from the initial one (named as by {!mode}),
    transitions carry the three threshold regions (waiting = 0 /
    1..threshold / threshold+1..). [name] defaults to
    ["adaptive-lock"]; the attribute is [name ^ ".waiting-policy"]. Pure
    data; buildable outside a simulation. Raises [Invalid_argument]
    on the parameter errors {!create} rejects. *)

val configure_waiting : params -> Waiting.t -> int -> unit
(** Write the waiting attributes for a spin budget: at [spin_cap] or
    above, spin forever without sleeping; otherwise spin that many
    probes, then sleep. How every lock running {!policy_spec} applies
    a reconfiguration. *)

val initial_waiting : params -> node:int -> int -> Waiting.t
(** Fresh waiting attributes at [node] for a spin budget, as
    {!configure_waiting} would set them (pure spin at [spin_cap] or
    above, combined below), without charging the attribute writes: how
    a lock running {!policy_spec} starts in the spec's initial
    configuration. *)
