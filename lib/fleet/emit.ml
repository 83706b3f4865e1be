let write_file ~csv_dir name bytes =
  if not (Sys.file_exists csv_dir) then Sys.mkdir csv_dir 0o755;
  let path = Filename.concat csv_dir name in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc bytes);
  path

let default_store ~csv_dir =
  match Sys.getenv_opt "REPRO_STORE" with
  | Some p when p <> "" -> p
  | _ -> Filename.concat csv_dir "store.jsonl"

let artifact ?store ?csv_dir ?spec ~driver ~kind ?legacy ~config ~metrics ~payload () =
  let record = Store.make ?spec ~driver ~kind ~config ~metrics ~payload () in
  (match store with None -> () | Some path -> Store.append ~path [ record ]);
  (match (csv_dir, legacy) with
  | Some dir, Some name -> ignore (write_file ~csv_dir:dir name payload : string)
  | _ -> ());
  record
