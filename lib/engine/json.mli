(** The one JSON string encoder. Every artifact in the repo is printed
    by hand for stable bytes, and all of them quote their strings
    here, so there is a single escaping table: double quote,
    backslash, newline, carriage return and tab get their named
    two-character escapes, every other byte below 0x20 becomes
    [\u00XX], and everything else is copied verbatim. *)

val escape : string -> string
(** String-body escaping, without the surrounding quotes. *)

val quote : string -> string
(** [escape] inside double quotes. *)

val string_list : string list -> string
(** A one-line array of quoted strings, elements separated by ", ". *)
