(** The data-race detector: Eraser-style locksets refined by a
    vector-clock happens-before pass, fed online from the scheduler's
    buses as the run executes (or replayed from a {!Trace}).

    A pair of accesses to the same plain word is reported as a race
    only when {e both} tests fail: the threads hold no common lock
    around the accesses (lockset), and no chain of synchronization
    edges orders them (happens-before). The edges are fork → child
    start, finished thread → join, waker → wakee (block/wakeup and the
    wake-token variants) and lock release → next acquire of the same
    lock.

    Exempt words — never reported: words registered with
    [Ops.A_sync_word] (primitive internals) or [Ops.A_relaxed_word]
    (intentionally racy), and any word ever touched by an atomic
    operation during the run. A word becomes exempt when the first
    such annotation or access arrives; {!finish} then drops whatever
    its earlier plain accesses left, so the verdict is the same as if
    the word had been exempt from the start.

    Findings are deduplicated per (word, site pair, lock sets): a loop
    hitting the same racy pair every iteration produces one diagnostic
    carrying an occurrence count, stamped with the pair's first
    occurrence in trace order.

    Detector state is bounded by the number of {e live} threads: when
    a thread finishes, its vector clock collapses to a single snapshot
    (kept for join edges) and its pending tokens and lockset are
    dropped. *)

type t
(** Detector state: per-thread clocks and locksets, per-lock release
    clocks, per-word access state and the aggregated findings. It
    grows with threads, locks and words, not with events. *)

val create : unit -> t

val event : t -> Butterfly.Sched.event -> unit
val access : t -> Butterfly.Sched.access -> unit

val annot : t -> Butterfly.Sched.annot -> unit
(** Feed one bus item, in the order the run emitted it. *)

val finish : t -> names:(int -> string) -> Diag.t list
(** Diagnostics in trace order. [names] maps a tid to the thread name
    used in messages; names and messages are built only here. *)

val run : names:(int -> string) -> Trace.t -> Diag.t list
(** Replay a recorded trace through {!create}, the feed functions and
    {!finish}. *)
