(** Deadlock-potential detection via the lock-order graph.

    Every acquisition of a lock [L] by a thread already holding [H]
    adds the edge [H -> L]. A cycle in this graph means two orderings
    of the same locks exist somewhere in the run — a deadlock waiting
    for the right interleaving, reported even when this (deterministic)
    run happened not to deadlock. Recursive acquisition of a lock the
    thread already holds shows up as a self-edge, i.e. a cycle of
    length one.

    Each distinct cycle (identified by its set of locks) is reported
    once, with the first-seen witness edge: which thread acquired what
    while holding what, and when. *)

type t
(** The graph so far: per-thread held locks, the first witness of each
    edge and the lock names. It grows with threads and lock pairs, not
    with events. *)

val create : unit -> t

val annot : t -> Butterfly.Sched.annot -> unit
(** Feed one annotation, in the order the run emitted it. The graph
    reads no scheduling events or memory accesses. *)

val finish : t -> names:(int -> string) -> Diag.t list
(** One diagnostic per distinct cycle, in first-seen edge order.
    [names] maps a tid to a thread name; messages are built only
    here. *)

val run : names:(int -> string) -> Trace.t -> Diag.t list
(** Replay a recorded trace's annotations through {!create}, {!annot}
    and {!finish}. *)
