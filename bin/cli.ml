(* Flag handling shared by every repro subcommand, so --csv-dir,
   --domains, --only and --store cannot drift between commands (they
   used to: --only existed on the checkers but not on objects/chaos). *)

open Cmdliner

let csv_dir =
  let doc = "Also write figure data / result JSON into $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv-dir" ] ~docv:"DIR" ~doc)

let domains =
  let doc =
    "Host cores (OCaml domains) used to run independent simulations in parallel. \
     Defaults to every available core; 1 forces fully sequential execution. The \
     simulated results are identical at any value."
  in
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N" ~doc)

let only =
  let doc = "Restrict the command to the scenario/spec/model/object named $(docv)." in
  Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME" ~doc)

let store =
  let doc =
    "Append one result record per produced artifact to this JSONL store. Defaults \
     to $(i,DIR)/store.jsonl when --csv-dir is given (or \\$REPRO_STORE when set); \
     without either, no records are stored."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"FILE" ~doc)

(* The flag sets the process-wide Runner default, so every experiment
   below — including ones reached through code without an explicit
   [?domains] argument — honours it. *)
let set_domains n = if n > 0 then Engine.Runner.set_default_domains n

type common = { csv_dir : string option; store : string option }

let setup csv_dir domains store =
  set_domains domains;
  let store =
    match (store, csv_dir) with
    | Some s, _ -> Some s
    | None, Some dir -> Some (Fleet.Emit.default_store ~csv_dir:dir)
    | None, None -> (
      match Sys.getenv_opt "REPRO_STORE" with
      | Some p when p <> "" -> Some p
      | _ -> None)
  in
  { csv_dir; store }

let common = Term.(const setup $ csv_dir $ domains $ store)

(* Where run/view look for the store when no flag names one. *)
let store_path c =
  match c.store with
  | Some s -> s
  | None ->
    Fleet.Emit.default_store
      ~csv_dir:(match c.csv_dir with Some d -> d | None -> "results")

(* Store record + legacy file + the "wrote PATH" line, for every
   artifact a subcommand produces. *)
let emit_artifact c ~driver ~kind ~legacy ~config ~metrics ~payload =
  let (_ : Fleet.Store.record) =
    Fleet.Emit.artifact ?store:c.store ?csv_dir:c.csv_dir ~driver ~kind ~legacy
      ~config ~metrics ~payload ()
  in
  match c.csv_dir with
  | Some dir -> Printf.printf "wrote %s\n" (Filename.concat dir legacy)
  | None -> ()

let emit_report c (a : Experiments.Report.artifact) =
  emit_artifact c ~driver:a.driver ~kind:a.kind ~legacy:a.name ~config:a.config
    ~metrics:a.metrics ~payload:a.payload
