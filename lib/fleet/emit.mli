(** One funnel for every artifact the repro CLI and the bench harness
    produce.

    [artifact] builds a store record for a finished run and (a)
    appends it to the store when one is configured, (b) writes the
    legacy artifact file {e verbatim from the record's payload bytes}
    when a [csv_dir] and file name are given. Because the legacy file
    and the stored payload are the same bytes by construction, store
    records and legacy artifacts cannot drift apart.

    [domains] must never appear in [config]: records describe the
    experiment, not the host parallelism that computed it, so stores
    produced at different [--domains] stay byte-identical. *)

val artifact :
  ?store:string ->
  ?csv_dir:string ->
  ?spec:string ->
  driver:string ->
  kind:string ->
  ?legacy:string ->
  config:(string * string) list ->
  metrics:(string * float) list ->
  payload:string ->
  unit ->
  Store.record
(** [legacy] is the file name under [csv_dir] (for example
    ["CHAOS_results.json"]); without it (or without [csv_dir]) no
    legacy file is written. Returns the record (already appended when
    [store] is set). *)

val write_file : csv_dir:string -> string -> string -> string
(** [write_file ~csv_dir name bytes] writes [bytes] to
    [csv_dir ^ "/" ^ name], creating [csv_dir] as needed, and returns
    that path. [artifact] writes its legacy file through it; so do the
    files that have no store record (the bench harness's copies of the
    report artifacts, [CHAOS_failing_plans.txt]). *)

val default_store : csv_dir:string -> string
(** The store the CLI uses when [--store] is absent:
    [csv_dir ^ "/store.jsonl"], overridable via [REPRO_STORE]. *)
