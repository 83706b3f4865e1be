(** Adaptation policies and reconfiguration decisions.

    A policy is the user-provided component of an adaptive object: it
    consumes an observation from the monitor module and decides whether
    (and how) to reconfigure. A decision carries the reconfiguration
    closure (the paper's Psi operation) together with its declared
    {!Cost.t}, which the feedback loop charges at the object's home
    node when applying it. *)

type decision =
  | No_change
  | Reconfigure of { label : string; cost : Cost.t; apply : unit -> bool }
      (** [label] names the transition for traces and tests; [apply]
          performs the actual attribute/method changes and reports
          whether they took effect — an external-agent apply that
          cannot acquire attribute ownership returns [false], and the
          feedback loop then counts, logs and announces nothing. *)

type 'obs t = 'obs -> decision
(** A policy maps monitor observations to decisions. *)

type 'obs policy = 'obs t
(** Alias so submodules (e.g. {!Spec}) can name the closure form. *)

val no_op : 'obs t
(** Never reconfigures (turns an adaptive object into a merely
    monitored one — the baseline in overhead ablations). *)

val reconfigure : label:string -> ?cost:Cost.t -> (unit -> unit) -> decision
(** Convenience constructor for an apply that always takes effect;
    [cost] defaults to the paper's simple waiting-policy
    reconfiguration, 1R 1W. *)

val reconfigure_checked :
  label:string -> ?cost:Cost.t -> (unit -> bool) -> decision
(** Like {!reconfigure} for an apply that can fail (e.g. an external
    agent that must first win attribute ownership) and reports whether
    it took effect. *)

(** Guardrail state machine usable by any adaptive object: count
    consecutive pathological observations, order a fallback after a
    streak, then suspend counting for a cooldown (hysteresis, so the
    fallback cannot immediately re-trigger). {!Spec.compile} runs it
    for every spec that carries a [s_guard]. *)
module Guard : sig
  type params = {
    clamp_max : int;  (** raw samples clamped into [\[0, clamp_max\]] *)
    pathological_limit : int;  (** consecutive pathological samples before fallback *)
    cooldown : int;  (** samples with pathology counting suspended after a fallback *)
  }
  (** The guardrail knobs an adaptive lock takes as [?guardrail]: the
      lock turns them into its [Spec.guard_spec] and into the
      {!t} it passes to {!Spec.compile} as [guard_state]. *)

  type t

  val create : ?pathological_limit:int -> ?cooldown:int -> unit -> t
  (** Defaults: 4 consecutive pathological observations trigger a
      fallback; counting suspended for the following 8. Raises
      [Invalid_argument] when [pathological_limit <= 0] or
      [cooldown < 0]. *)

  val of_params : params -> t
  (** {!create} from [params]; also raises [Invalid_argument] when
      [clamp_max < 0]. *)

  val note : t -> pathological:bool -> bool
  (** Record one observation's verdict; [true] orders a fallback. *)

  val streak : t -> int
  (** Current consecutive pathological-observation count. *)

  val fallbacks : t -> int
  (** Fallbacks ordered so far. *)

  val fallback_failed : t -> unit
  (** Tell the guard an ordered fallback's apply reported failure
      (e.g. an implementation swap rolled back): cancels the cooldown
      [note] just started and restores the streak to one short of the
      limit, so the next pathological observation retries promptly
      instead of waiting out cooldown plus a fresh full streak.
      {!Spec.compile} calls this automatically. *)
end

(** Declarative adaptation-policy IR.

    A {!Spec.t} reifies what an adaptation policy {e is} — a finite
    automaton over named configurations, driven by threshold regions of
    one observed metric, with per-transition hysteresis counters and an
    optional guardrail — so that tools can inspect it. The static
    checker ([Analysis.Policy_check]) model-checks specs for thrash
    cycles, dead configurations, threshold faults, guardrail gaps and
    cross-object conflicts without running the simulator; {!Spec.compile}
    turns the same spec into the executable closure form, so the
    runtime policy and the checked artifact cannot drift apart.

    Limits of the abstraction (soundness caveats): the metric is one
    scalar per observation; conditions are inclusive intervals on it;
    configurations are a finite set identified by an integer value
    (the attribute setting). A configuration reached only by mutating
    the attribute externally to a value outside [s_configs] puts the
    compiled policy into an inert state (it decides [No_change] until
    the value returns to a known configuration). *)
module Spec : sig
  type cond = { lo : int; hi : int option }
      (** metric in [\[lo, hi\]], inclusive; [hi = None] means
          unbounded above. *)

  type config = { c_name : string; c_value : int }
      (** A configuration: [c_value] is the attribute setting (unique
          within a spec, used as the configuration's identity),
          [c_name] the display name (also used as the transition label
          when [t_label] is empty — see below). *)

  type transition = {
    t_from : int;  (** source configuration, by [c_value] *)
    t_cond : cond;  (** metric region that enables the transition *)
    t_target : int;  (** target configuration, by [c_value] *)
    t_label : string;  (** reconfiguration label for logs/annotations *)
    t_repeats : int;
        (** consecutive enabled samples required before firing
            (the AdaptiveMHA-style [neededRepeats]; 1 = immediate) *)
    t_cost : Cost.t;  (** charged per applied reconfiguration *)
  }

  type wedge = { w_configs : int list; w_cond : cond }
      (** Observations matching [w_cond] while the object sits in one
          of [w_configs] are pathological even when inside the clamp
          (wedge detection, e.g. waiters piling up at the
          pure-blocking extreme). *)

  type guard_spec = {
    g_clamp_lo : int;
    g_clamp_hi : int;  (** raw metrics clamped into [\[lo, hi\]] *)
    g_wedge : wedge option;
    g_limit : int;  (** consecutive pathological samples before fallback *)
    g_cooldown : int;  (** samples with counting suspended afterwards *)
    g_fallback : int;  (** fallback target configuration, by value *)
    g_fallback_label : string;
    g_fallback_cost : Cost.t;
  }

  (** Declared metric-to-configuration polarity, used by the checker's
      inverted-threshold detection: [Up_at_low] policies move to
      higher-valued configurations when the metric is low (spin
      budgets under short waits), [Up_at_high] when it is high
      (writer preference under writer pressure). *)
  type monotone = Up_at_low | Up_at_high | Unordered

  type t = {
    s_name : string;  (** the policy/object this spec describes *)
    s_kind : string;  (** object family (["lock"], ["barrier"], ...) *)
    s_attribute : string;
        (** identity of the attribute the policy drives; two specs
            sharing an [s_attribute] are checked as co-writers of one
            attribute (cross-object conflicts) *)
    s_metric : string;  (** name of the observed metric *)
    s_monotone : monotone;
    s_configs : config list;  (** ascending [c_value] order *)
    s_initial : int;  (** starting configuration, by value *)
    s_transitions : transition list;
        (** priority order: the first transition whose source matches
            the current configuration and whose condition matches the
            metric is the one consulted *)
    s_guard : guard_spec option;
  }

  val cond : ?hi:int -> int -> cond
  (** [cond lo ?hi] builds a condition; omitted [hi] = unbounded. *)

  val matches : cond -> int -> bool

  val config_name : t -> int -> string
  (** Display name of the configuration with this value (the value
      itself, as a string, when unknown). *)

  val find_config : t -> int -> config option

  val validate : t -> string list
  (** Structural well-formedness errors: duplicate or unsorted
      configuration values, unknown initial/source/target/fallback
      configurations, empty conditions, non-positive repeat counts,
      self-targeting transitions, inverted clamps. Empty = well
      formed. The behavioral checks (thrash, dead configs, threshold
      faults...) live in [Analysis.Policy_check]. *)

  val compile :
    ?guard_state:Guard.t ->
    read:(unit -> int) ->
    apply:(int -> bool) ->
    metric:('obs -> int) ->
    t ->
    'obs policy
  (** The executable form of a spec. [read] reports the current
      configuration (by value), [apply] performs a reconfiguration to
      the given value and reports whether it took effect, [metric]
      extracts the observed scalar. Semantics, in observation order:
      hysteresis counters reset whenever the configuration changed
      since the previous observation; with a guard, the raw metric is
      clamped and a pathological streak of [g_limit] fires the
      fallback (then suspends counting for [g_cooldown] samples)
      instead of consulting the transitions; otherwise the
      first enabled transition advances its counter (all others
      reset) and fires once the counter reaches [t_repeats] — the
      counter itself resets only when the fired apply reports
      success, so a no-op apply retries at the next enabled sample.

      [guard_state] shares an externally owned {!Guard.t} (so the
      object can report its streaks and fallbacks); by default the
      guard state is created from the spec. *)
end
