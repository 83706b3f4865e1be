type micro = {
  bench_name : string;
  ns_per_run : float;
  r_square : float;
  events_per_run : float;
  events_per_sec : float;
}

type comparison = {
  domains_base : int;
  domains_parallel : int;
  wall_base_s : float;
  wall_parallel_s : float;
  identical_output : bool;
  events_base : float;
}

let wall_clock_s f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let render_report ~domains () =
  let buf = Buffer.create (1 lsl 16) in
  let out = Format.formatter_of_buffer buf in
  let artifacts = Report.print_everything ~out ~domains () in
  Format.pp_print_flush out ();
  (Buffer.contents buf, artifacts)

let compare_report_generation ?(domains = Engine.Runner.default_domains ()) () =
  (* The sequential leg runs entirely on the calling domain, so the
     domain event odometer brackets exactly the simulation events one
     full report generation executes — the numerator of the
     report-level events/sec metric the store-backed bench gate
     tracks. *)
  let events0 = Butterfly.Sched.domain_events_total () in
  let ((report, artifacts) as base_out), wall_base_s =
    wall_clock_s (render_report ~domains:1)
  in
  let events_base = float_of_int (Butterfly.Sched.domain_events_total () - events0) in
  let par_out, wall_parallel_s = wall_clock_s (render_report ~domains) in
  ( {
      domains_base = 1;
      domains_parallel = domains;
      wall_base_s;
      wall_parallel_s;
      (* [compare], not [=]: a nan metric must equal itself. *)
      identical_output = compare base_out par_out = 0;
      events_base;
    },
    report,
    artifacts )

(* Best-effort commit id: CI exports GITHUB_SHA; locally, follow
   .git/HEAD one level. No git invocation, so this works in a bare
   build sandbox. *)
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
    let rec find_git_dir dir depth =
      if depth > 6 then None
      else
        let cand = Filename.concat dir ".git" in
        if Sys.file_exists cand then Some cand
        else
          let parent = Filename.dirname dir in
          if parent = dir then None else find_git_dir parent (depth + 1)
    in
    match find_git_dir (Sys.getcwd ()) 0 with
    | None -> "unknown"
    | Some git_dir -> (
      match read_line_of (Filename.concat git_dir "HEAD") with
      | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
        let refname = String.sub head 5 (String.length head - 5) in
        match read_line_of (Filename.concat git_dir refname) with
        | Some sha -> sha
        | None -> "unknown")
      | Some sha -> sha
      | None -> "unknown"))

let json_float v = if Float.is_nan v then "null" else Printf.sprintf "%.6g" v

let to_json ~micros ~comparison () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"git_rev\": %s,\n" (Engine.Json.quote (git_rev ())));
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n" (Engine.Runner.recommended_domains ()));
  (match comparison with
  | None -> Buffer.add_string buf "  \"report_generation\": null,\n"
  | Some c ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"report_generation\": {\n\
          \    \"domains_base\": %d,\n\
          \    \"domains_parallel\": %d,\n\
          \    \"wall_base_s\": %s,\n\
          \    \"wall_parallel_s\": %s,\n\
          \    \"speedup\": %s,\n\
          \    \"identical_output\": %b\n\
          \  },\n"
         c.domains_base c.domains_parallel (json_float c.wall_base_s)
         (json_float c.wall_parallel_s)
         (json_float
            (if c.wall_parallel_s > 0.0 then c.wall_base_s /. c.wall_parallel_s else nan))
         c.identical_output));
  Buffer.add_string buf "  \"benchmarks\": [";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s, \
            \"events_per_run\": %s, \"events_per_sec\": %s }"
           (Engine.Json.escape m.bench_name) (json_float m.ns_per_run) (json_float m.r_square)
           (json_float m.events_per_run) (json_float m.events_per_sec)))
    micros;
  Buffer.add_string buf (if micros = [] then "]\n" else "\n  ]\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Baseline comparison: the bench-compare CI gate.                    *)

(* [to_json] is the only writer of BENCH_results.json, so the reader
   can be a string scanner for that exact shape instead of a JSON
   parser: each benchmark entry sits on its own line as
   { "name": "...", ..., "events_per_sec": N }. *)
let baseline_events_per_sec json =
  let substr_from line pat =
    let rec find from =
      if String.length line - from < String.length pat then None
      else if String.sub line from (String.length pat) = pat then
        Some (from + String.length pat)
      else find (from + 1)
    in
    find 0
  in
  let find_float line key =
    match substr_from line (Printf.sprintf "\"%s\": " key) with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None else float_of_string_opt (String.sub line start (!stop - start))
  in
  let find_name line =
    match substr_from line "\"name\": \"" with
    | None -> None
    | Some start -> (
      match String.index_from_opt line start '"' with
      | None -> None
      | Some stop -> Some (String.sub line start (stop - start)))
  in
  String.split_on_char '\n' json
  |> List.filter_map (fun line ->
         match (find_name line, find_float line "events_per_sec") with
         | Some name, Some eps when eps > 0.0 -> Some (name, eps)
         | _ -> None)

let load_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let json =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Some (baseline_events_per_sec json)
  end

type regression = { name : string; baseline_eps : float; current_eps : float }

let compare_against_baseline ~tolerance ~baseline micros =
  List.filter_map
    (fun m ->
      if m.events_per_sec <= 0.0 then None
      else
        match List.assoc_opt m.bench_name baseline with
        | Some base when m.events_per_sec < base *. (1.0 -. tolerance) ->
          Some { name = m.bench_name; baseline_eps = base; current_eps = m.events_per_sec }
        | _ -> None)
    micros
