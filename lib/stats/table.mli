(** Paper-style text tables.

    Renders aligned monospace tables for the [repro] report (one per
    paper table, with a paper-value column next to the measured one)
    and for [repro view] query results. *)

type t

val create : headers:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] when the arity differs from the
    headers. *)

val add_rows : t -> string list list -> unit

val render : ?title:string -> t -> string
(** Box-drawn table. Numeric-looking cells are right-aligned, others
    left-aligned. *)

val us : float -> string
(** Format nanoseconds-as-float into a microseconds cell, two
    decimals. *)

val us_of_ns : int -> string
val ms_of_ns : int -> string
val pct : float -> string
