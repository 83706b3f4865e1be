type record = {
  r_schema : int;
  r_rev : string;
  r_host : string;
  r_spec : string;
  r_driver : string;
  r_kind : string;
  r_config : (string * string) list;
  r_hash : string;
  r_metrics : (string * float) list;
  r_payload : string;
}

let schema_version = 1

(* FNV-1a, 64-bit. Cheap, stable across runs and hosts, and good enough
   to key configurations (collisions only degrade regression grouping,
   never correctness of stored data). *)
let fnv1a_64 strings =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun s ->
      String.iter
        (fun c ->
          h := Int64.logxor !h (Int64.of_int (Char.code c));
          h := Int64.mul !h prime)
        s;
      (* Separator byte so ["ab";"c"] and ["a";"bc"] differ. *)
      h := Int64.logxor !h 0x1FL;
      h := Int64.mul !h prime)
    strings;
  !h

let config_hash ~driver config =
  let kvs =
    List.sort compare (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) config)
  in
  Printf.sprintf "%016Lx" (fnv1a_64 (Printf.sprintf "driver=%s" driver :: kvs))

let sort_fields kvs = List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

(* Best-effort commit id: CI exports GITHUB_SHA; locally, follow
   .git/HEAD one level, to the loose ref file or, when there is none
   (after [git gc] or [git pack-refs]), to its line in packed-refs. In
   a worktree or submodule .git is a file naming the real git
   directory ("gitdir: PATH"), and a worktree keeps its branch refs in
   the directory its "commondir" file names. No git invocation, so
   this works in a bare build sandbox. *)
let git_rev () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some sha when sha <> "" -> sha
  | _ -> (
    let read_line_of path =
      try
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Some (String.trim (input_line ic)))
      with Sys_error _ | End_of_file -> None
    in
    let after prefix line =
      let n = String.length prefix in
      if String.length line > n && String.sub line 0 n = prefix then
        Some (String.sub line n (String.length line - n))
      else None
    in
    let relative_to dir path =
      if Filename.is_relative path then Filename.concat dir path else path
    in
    let rec find_git_dir dir depth =
      if depth > 6 then None
      else
        let cand = Filename.concat dir ".git" in
        if Sys.file_exists cand then Some cand
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else find_git_dir parent (depth + 1)
    in
    (* "SHA REFNAME" lines; '#' starts the header, '^' a peeled tag. *)
    let packed_ref git_dir refname =
      try
        let ic = open_in (Filename.concat git_dir "packed-refs") in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec scan () =
              match input_line ic with
              | exception End_of_file -> None
              | line -> (
                match String.index_opt line ' ' with
                | Some i
                  when line.[0] <> '#' && line.[0] <> '^'
                       && String.trim (String.sub line (i + 1) (String.length line - i - 1))
                          = refname ->
                  Some (String.sub line 0 i)
                | _ -> scan ())
            in
            scan ())
      with Sys_error _ -> None
    in
    let resolve git_dir =
      match read_line_of (Filename.concat git_dir "HEAD") with
      | None -> None
      | Some head -> (
        match after "ref: " head with
        | None -> Some head
        | Some refname -> (
          match read_line_of (Filename.concat git_dir refname) with
          | Some sha -> Some sha
          | None ->
            let common =
              match read_line_of (Filename.concat git_dir "commondir") with
              | Some dir -> relative_to git_dir dir
              | None -> git_dir
            in
            (match read_line_of (Filename.concat common refname) with
            | Some sha -> Some sha
            | None -> packed_ref common refname)))
    in
    match find_git_dir (Sys.getcwd ()) 0 with
    | None -> "unknown"
    | Some dot_git ->
      let rev =
        match resolve dot_git with
        | Some _ as rev -> rev
        | None -> (
          (* .git is not a directory: a "gitdir:" file *)
          match Option.bind (read_line_of dot_git) (after "gitdir: ") with
          | Some path -> resolve (relative_to (Filename.dirname dot_git) path)
          | None -> None)
      in
      Option.value rev ~default:"unknown")

let make ?(spec = "") ?rev ?host ~driver ~kind ~config ~metrics ~payload () =
  let rev = match rev with Some r -> r | None -> git_rev () in
  let host =
    match host with
    | Some h -> h
    | None -> ( try Unix.gethostname () with _ -> "unknown")
  in
  {
    r_schema = schema_version;
    r_rev = rev;
    r_host = host;
    r_spec = spec;
    r_driver = driver;
    r_kind = kind;
    r_config = sort_fields config;
    r_hash = config_hash ~driver config;
    r_metrics = sort_fields metrics;
    r_payload = payload;
  }

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)

let to_line r =
  let open Jsonv in
  (* Keys listed alphabetically so the canonical form is written
     directly (to_string keeps stored order). *)
  to_string
    (Obj
       [
         ("config", Obj (List.map (fun (k, v) -> (k, Str v)) (sort_fields r.r_config)));
         ("config_hash", Str r.r_hash);
         ("driver", Str r.r_driver);
         ("git_rev", Str r.r_rev);
         ("host", Str r.r_host);
         ("kind", Str r.r_kind);
         ("metrics", Obj (List.map (fun (k, v) -> (k, Num v)) (sort_fields r.r_metrics)));
         ("payload", Str r.r_payload);
         ("schema", Num (float_of_int r.r_schema));
         ("spec_id", Str r.r_spec);
       ])

let of_line line =
  match Jsonv.parse line with
  | Error e -> Error e
  | Ok json -> (
    let field name = Jsonv.member name json in
    let str_field name =
      match Option.bind (field name) Jsonv.str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "record missing string field %S" name)
    in
    let kv_field name value =
      match Option.bind (field name) Jsonv.obj with
      | None -> Error (Printf.sprintf "record missing object field %S" name)
      | Some kvs -> (
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (k, v) :: rest -> (
            match value v with
            | Some v -> go ((k, v) :: acc) rest
            | None -> Error (Printf.sprintf "bad value for %S in %S" k name))
        in
        go [] kvs)
    in
    match Option.bind (field "schema") Jsonv.num with
    | None -> Error "record missing schema field"
    | Some s when int_of_float s <> schema_version ->
      Error
        (Printf.sprintf "unknown schema version %d (this build reads %d)"
           (int_of_float s) schema_version)
    | Some _ -> (
      let ( let* ) = Result.bind in
      let* rev = str_field "git_rev" in
      let* host = str_field "host" in
      let* spec = str_field "spec_id" in
      let* driver = str_field "driver" in
      let* kind = str_field "kind" in
      let* hash = str_field "config_hash" in
      let* payload = str_field "payload" in
      let* config = kv_field "config" Jsonv.str in
      let* metrics = kv_field "metrics" Jsonv.num in
      Ok
        {
          r_schema = schema_version;
          r_rev = rev;
          r_host = host;
          r_spec = spec;
          r_driver = driver;
          r_kind = kind;
          r_config = sort_fields config;
          r_hash = hash;
          r_metrics = sort_fields metrics;
          r_payload = payload;
        }))

(* ------------------------------------------------------------------ *)
(* File I/O                                                           *)

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ~path records =
  mkdirs (Filename.dirname path);
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun r ->
          output_string oc (to_line r);
          output_char oc '\n')
        records)

let load ~path =
  if not (Sys.file_exists path) then Ok []
  else begin
    let ic = open_in path in
    let lines = ref [] in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        try
          while true do
            lines := input_line ic :: !lines
          done
        with End_of_file -> ());
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else (
          match of_line line with
          | Ok r -> go (r :: acc) (lineno + 1) rest
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
    in
    go [] 1 (List.rev !lines)
  end
