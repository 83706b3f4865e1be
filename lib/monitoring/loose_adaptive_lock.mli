(** A loosely-coupled adaptive lock: same [simple-adapt] policy as
    {!Locks.Adaptive_lock}, but the feedback loop runs through the
    general-purpose monitor.

    Every [sample_period]-th unlock publishes (timestamp,
    waiting-thread count) into a {!Ring_buffer}; a {!Monitor_thread} on
    a dedicated processor drains the buffer and feeds each (possibly
    stale) observation to a genuine [Adaptive_core.Adaptive] loop via
    [Adaptive.feed] — the policy is the same compiled
    {!Locks.Adaptive_lock.policy_spec} the closely-coupled lock runs,
    declared under this lock's own name; only the [apply] differs,
    acquiring attribute ownership the way an external agent must. The
    paper found exactly this structure "too loosely coupled to be used
    in adaptive lock objects"; the coupling ablation quantifies that
    claim by comparing this lock against the built-in closely-coupled
    one. *)

type t

val create :
  ?name:string ->
  ?trace:bool ->
  ?params:Locks.Adaptive_lock.params ->
  ?ring_capacity:int ->
  ?poll_interval_ns:int ->
  home:int ->
  monitor_proc:int ->
  unit ->
  t
(** The monitor thread is forked immediately, pinned to
    [monitor_proc] (dedicate that processor: do not place application
    threads there). Raises [Invalid_argument] on the parameter errors
    {!Locks.Adaptive_lock.create} rejects. *)

val lock : t -> unit
val unlock : t -> unit
val stats : t -> Locks.Lock_stats.t

val shutdown : t -> unit
(** Stop and join the monitor thread (required before the simulation
    can finish). *)

val feedback : t -> int Adaptive_core.Adaptive.t
(** The lock's loosely-coupled feedback loop (registered in
    [Core.Registry] like every adaptive object). *)

val adaptations : t -> int
val observations_published : t -> int
val observations_processed : t -> int

val max_lag_ns : t -> int
(** Worst observation staleness seen by the policy — the adaptation
    lag of §3's "coupling of the feedback loop". *)

val mode : t -> string
