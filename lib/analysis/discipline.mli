(** Lock-discipline lint.

    Three rules over the lock acquire/release annotations and the
    scheduling events:

    - [unlock-not-held] — a release with no matching acquire by the
      same thread (double unlock, or unlocking someone else's lock).
      The configurable locks raise [Lock_core.Misuse] at runtime for
      this; this rule additionally covers the raw {!Cthreads.Spin}
      mutex, which has no owner word.
    - [block-holding-spin-lock] — the thread went to sleep while
      holding a lock whose waiting policy never sleeps, so every
      waiter burns its processor for the whole sleep.
    - [lock-held-at-exit] — the thread finished still holding a lock. *)

type t
(** Per-thread held-lock stacks (dropped when a thread finishes) and
    the findings so far. *)

val create : unit -> t
val event : t -> Butterfly.Sched.event -> unit

val annot : t -> Butterfly.Sched.annot -> unit
(** Feed one bus item, in the order the run emitted it. The lint reads
    no memory accesses. *)

val finish : t -> names:(int -> string) -> Diag.t list
(** Findings in trace order. [names] maps a tid to a thread name;
    messages are built only here. *)

val run : names:(int -> string) -> Trace.t -> Diag.t list
(** Replay a recorded trace through {!create}, the feed functions and
    {!finish}. *)
