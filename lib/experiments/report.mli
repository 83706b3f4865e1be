(** Rendering of every experiment as paper-style text, plus the
    artifacts (figure CSVs and result JSON) some of them produce.

    Each [print_*] function runs the experiment and writes a formatted
    paper-vs-measured table (or figure) for the [repro] CLI to the
    given formatter (stdout by default). Nothing here touches the file
    system: the functions that produce artifacts return them, and the
    caller stores or writes them. *)

val print_lock_table :
  Format.formatter -> title:string -> paper:Paper.lock_op_row list -> Lock_tables.row list -> unit

val print_table4 : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_table5 : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_table6 : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_table7 : ?out:Format.formatter -> unit -> unit
val print_table8 : ?out:Format.formatter -> unit -> unit

type artifact = {
  name : string;  (** legacy file name, e.g. ["fig1.csv"] *)
  driver : string;  (** store driver: ["fig1"], ["tsp"], ["ablation-locks"], ["objects"] *)
  kind : string;  (** store kind: ["FIG"], ["ABLATION_LOCKS"], ["OBJECTS"] *)
  config : (string * string) list;  (** starts with [("artifact", name)] *)
  metrics : (string * float) list;  (** flat metric projection for queries *)
  payload : string;  (** the exact bytes of the file *)
}
(** One produced artifact, with everything its store record needs.
    Every field is a function of the experiment's inputs, never of
    [domains]. *)

val fig1_artifact : Fig1.curve list -> artifact
(** [fig1.csv] from Figure 1's curves. *)

val figure_artifact : ?spec:Tsp.Parallel.spec -> int -> Engine.Series.t -> artifact
(** [figN.csv] for TSP figure [N]; with [spec], its config also records
    the searchers, cities and seed. *)

val switch_locks_artifact : Ablations.switch_row list -> artifact
(** [ABLATION_LOCKS_results.json] from the ablation's rows, gate
    included. *)

val print_fig1 : ?out:Format.formatter -> ?domains:int -> unit -> artifact

val print_tsp :
  ?out:Format.formatter -> ?spec:Tsp.Parallel.spec -> ?domains:int -> unit -> artifact list
(** Tables 1–3 plus Figures 4–9 from one set of runs; returns one
    {!figure_artifact} per recorded figure. *)

val print_schedulers : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_coupling : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_sampling : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_threshold : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_phases : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_advisory : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_architecture : ?out:Format.formatter -> ?domains:int -> unit -> unit
val print_barriers : ?out:Format.formatter -> ?domains:int -> unit -> unit

val print_switch_locks : ?out:Format.formatter -> ?domains:int -> unit -> bool * artifact
(** The implementation-as-attribute ablation ({!Ablations.switch_locks})
    as a table plus its acceptance gate. Returns whether the gate
    passed, and [ABLATION_LOCKS_results.json] (byte-identical at any
    [domains]). *)

val print_objects :
  ?out:Format.formatter -> ?only:string -> ?domains:int -> unit -> artifact
(** Run the sync-objects workload and dump the adaptive-object registry
    as a table. Returns [OBJECTS_results.json]
    ({!Adaptive_core.Registry.to_json}, byte-identical at any
    [domains]). [only] restricts the dump (and its JSON) to the object
    with that registry name, and is recorded in the config. *)

val print_everything : unit -> artifact list
(** All tables, figures and ablations, in paper order, on stdout,
    returning every artifact in that order. The independent
    simulations inside each section run in parallel across
    {!Engine.Runner.default_domains} host cores; the rendered bytes and
    the artifacts are identical at every domain count. *)
