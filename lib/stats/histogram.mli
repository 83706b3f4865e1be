(** Logarithmic-bucket histograms for latency distributions.

    Lock wait times span four orders of magnitude (microseconds of
    spinning to milliseconds of queued handoffs), so buckets grow
    geometrically. [Locks.Lock_stats] records every lock wait in one,
    and the TSP report prints its wait-time percentiles next to the
    paper's means. *)

type t

val create : ?min_value:int -> ?max_value:int -> ?buckets_per_decade:int -> unit -> t
(** Range defaults: 100 ns to 10 s, 8 buckets per decade. Values
    outside the range clamp into the first/last bucket. *)

val add : t -> int -> unit
(** Record one (non-negative) observation. *)

val count : t -> int
val total : t -> int

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> int
(** [percentile t 50.0] is the median (bucket upper bound containing
    the rank). Raises [Invalid_argument] outside (0, 100]. Returns 0
    when empty. *)

val max_seen : t -> int
val min_seen : t -> int
(** 0 when empty. *)

val merge : t -> t -> t
(** Combine two histograms with identical bucket layouts. Raises
    [Invalid_argument] on layout mismatch. *)

val render : ?width:int -> t -> string
(** ASCII bar rendering of the non-empty buckets. *)

val summary : t -> string
(** One line: count, mean, p50/p90/p99, max — in microseconds. *)
