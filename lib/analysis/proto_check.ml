(* Explicit-state model checker over Core.Protocol. Bounded BFS with
   a hashed seen-set; liveness via backward reachability from the goal
   states. Pure and deterministic throughout, so every state count,
   verdict and counterexample — and the JSON built from them — is the
   same bytes at any domain count. *)

module Protocol = Adaptive_core.Protocol


type counterexample = { x_steps : (string * string) list; x_why : string; x_state : string }

type verdict = Holds | Violated of counterexample | Out_of_bounds

type report = {
  r_model : string;
  r_property : string;
  r_desc : string;
  r_states : int;
  r_edges : int;
  r_verdict : verdict;
}

(* Growable state store: ids are BFS discovery order, which doubles as
   the deterministic tiebreak (the earliest wedged state is the one
   reported). *)
type 'a vec = { mutable buf : 'a array; mutable len : int }

let vec_make dummy = { buf = Array.make 1024 dummy; len = 0 }

let vec_push v x =
  if v.len = Array.length v.buf then begin
    let buf = Array.make (2 * v.len) v.buf.(0) in
    Array.blit v.buf 0 buf 0 v.len;
    v.buf <- buf
  end;
  v.buf.(v.len) <- x;
  v.len <- v.len + 1

let vec_get v i = v.buf.(i)

(* Reconstruct the (role, label) path from the initial state to [id]
   via parent pointers. *)
let path_to parents id =
  let rec go acc id =
    match vec_get parents id with
    | None -> acc
    | Some (pred, role, label) -> go ((role, label) :: acc) pred
  in
  go [] id

let check ?(max_states = 2_000_000) model prop =
  let init = Protocol.init model in
  let dummy_state = init in
  let states = vec_make dummy_state in
  let parents : (int * string * string) option vec = vec_make None in
  (* Forward adjacency, only kept for liveness (the backward pass). *)
  let keep_edges = match prop with Protocol.Liveness _ -> true | _ -> false in
  let succs_of : int list vec = vec_make [] in
  let seen : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let edges = ref 0 in
  let violation = ref None in
  let truncated = ref false in
  let intern st parent =
    let k = Protocol.key model st in
    match Hashtbl.find_opt seen k with
    | Some id -> (id, false)
    | None ->
      let id = states.len in
      Hashtbl.add seen k id;
      vec_push states st;
      vec_push parents parent;
      if keep_edges then vec_push succs_of [];
      (id, true)
  in
  let bad_state id st =
    match prop with
    | Protocol.Safety { q_bad; _ } -> (
      match q_bad model st with
      | Some why ->
        violation :=
          Some { x_steps = path_to parents id; x_why = why;
                 x_state = Protocol.describe model st };
        true
      | None -> false)
    | _ -> false
  in
  let bad_step pre_id pre role label =
    match prop with
    | Protocol.Step { q_bad; _ } -> (
      match q_bad model ~role ~label pre with
      | Some why ->
        violation :=
          Some { x_steps = path_to parents pre_id @ [ (role, label) ]; x_why = why;
                 x_state = Protocol.describe model pre };
        true
      | None -> false)
    | _ -> false
  in
  let q = Queue.create () in
  let id0, _ = intern init None in
  if not (bad_state id0 init) then Queue.add id0 q;
  (try
     while not (Queue.is_empty q) do
       let id = Queue.pop q in
       let st = vec_get states id in
       List.iter
         (fun (role, label, st') ->
           incr edges;
           if bad_step id st role label then raise Exit;
           let id', fresh = intern st' (Some (id, role, label)) in
           if keep_edges then
             succs_of.buf.(id) <- id' :: succs_of.buf.(id);
           if fresh then begin
             if bad_state id' st' then raise Exit;
             if states.len >= max_states then begin
               truncated := true;
               raise Exit
             end;
             Queue.add id' q
           end)
         (Protocol.successors model st)
     done
   with Exit -> ());
  let verdict =
    match (!violation, !truncated) with
    | Some cex, _ -> Violated cex
    | None, true -> Out_of_bounds
    | None, false -> (
      match prop with
      | Protocol.Safety _ | Protocol.Step _ -> Holds
      | Protocol.Liveness { q_goal; _ } ->
        (* Backward reachability: every reachable state must be able
           to reach a goal state. *)
        let n = states.len in
        let preds = Array.make n [] in
        for id = 0 to n - 1 do
          List.iter (fun id' -> preds.(id') <- id :: preds.(id')) (vec_get succs_of id)
        done;
        let ok = Array.make n false in
        let bq = Queue.create () in
        for id = 0 to n - 1 do
          if q_goal model (vec_get states id) then begin
            ok.(id) <- true;
            Queue.add id bq
          end
        done;
        while not (Queue.is_empty bq) do
          let id = Queue.pop bq in
          List.iter
            (fun p ->
              if not ok.(p) then begin
                ok.(p) <- true;
                Queue.add p bq
              end)
            preds.(id)
        done;
        let wedged = ref (-1) in
        for id = n - 1 downto 0 do
          if not ok.(id) then wedged := id
        done;
        if !wedged < 0 then Holds
        else
          Violated
            { x_steps = path_to parents !wedged;
              x_why = "wedged: no path to a quiesced/goal state";
              x_state = Protocol.describe model (vec_get states !wedged) })
  in
  { r_model = Protocol.name model; r_property = Protocol.property_name prop;
    r_desc = Protocol.property_desc prop; r_states = states.len; r_edges = !edges;
    r_verdict = verdict }

let check_all ?domains ?max_states ?only models =
  let models =
    match only with
    | None -> models
    | Some n -> List.filter (fun (m, _) -> Protocol.name m = n) models
  in
  let tasks =
    List.concat_map (fun (m, props) -> List.map (fun p -> (m, p)) props) models
  in
  Engine.Runner.map ?domains (fun (m, p) -> check ?max_states m p) tasks

let clean reports = List.for_all (fun r -> r.r_verdict = Holds) reports

type fixture_report = {
  f_name : string;
  f_expect : string list;
  f_found : string list;
  f_missing : string list;
  f_reports : report list;
}

let check_fixture ?max_states ~name ~expect (model, props) =
  let reports = List.map (check ?max_states model) props in
  let found =
    List.filter_map
      (fun r -> match r.r_verdict with Violated _ -> Some r.r_property | _ -> None)
      reports
  in
  let missing = List.filter (fun e -> not (List.mem e found)) expect in
  { f_name = name; f_expect = expect; f_found = found; f_missing = missing;
    f_reports = reports }

let fixtures_ok fixtures = List.for_all (fun f -> f.f_missing = []) fixtures

(* -- model fidelity -- *)

let replay model steps =
  (* Real transition logs carry no clock events, so when a step is
     only enabled past a deadline we stutter through "tick" system
     transitions (bounded by the model's clock range) before giving
     up on it. *)
  let find st role label =
    List.find_opt
      (fun (r, l, _) -> r = role && l = label)
      (Protocol.successors model st)
  in
  let rec advance st role label ticks =
    match find st role label with
    | Some (_, _, st') -> Some st'
    | None when ticks > 0 -> (
      match find st "" "tick" with
      | Some (_, _, st') -> advance st' role label (ticks - 1)
      | None -> None)
    | None -> None
  in
  let rec go st n = function
    | [] -> Ok ()
    | (role, label) :: rest -> (
      match advance st role label (Protocol.spec model).Protocol.Spec.p_clock_max with
      | Some st' -> go st' (n + 1) rest
      | None ->
        let succs = Protocol.successors model st in
        Error
          (Printf.sprintf
             "step %d: model cannot take %s:%s (enabled: %s) in state %s" n role label
             (String.concat ", " (List.map (fun (r, l, _) -> r ^ ":" ^ l) succs))
             (Protocol.describe model st)))
  in
  go (Protocol.init model) 0 steps

(* Deterministic LCG so walks never depend on host Random state. *)
let lcg x = ((x * 25214903917) + 11) land 0xFFFF_FFFF_FFFF

let random_walk model ~seed ~steps =
  let rec go st rng n acc =
    if n >= steps then (List.rev acc, None)
    else
      match Protocol.successors model st with
      | [] -> (List.rev acc, None)
      | succs ->
        let rng = lcg rng in
        let role, label, st' = List.nth succs (rng mod List.length succs) in
        go st' rng (n + 1) ((role, label) :: acc)
  in
  go (Protocol.init model) (lcg (seed + 1)) 0 []

let walk_violates model props ~seed ~steps =
  let bad st =
    List.fold_left
      (fun acc p ->
        match (acc, p) with
        | Some _, _ -> acc
        | None, Protocol.Safety { q_bad; _ } -> q_bad model st
        | None, _ -> None)
      None props
  in
  let bad_step st role label =
    List.fold_left
      (fun acc p ->
        match (acc, p) with
        | Some _, _ -> acc
        | None, Protocol.Step { q_bad; _ } -> q_bad model ~role ~label st
        | None, _ -> None)
      None props
  in
  let rec go st rng n =
    match bad st with
    | Some why -> Some why
    | None ->
      if n >= steps then None
      else
        match Protocol.successors model st with
        | [] -> None
        | succs -> (
          let rng = lcg rng in
          let role, label, st' = List.nth succs (rng mod List.length succs) in
          match bad_step st role label with
          | Some why -> Some why
          | None -> go st' rng (n + 1))
  in
  go (Protocol.init model) (lcg (seed + 1)) 0

(* -- witness lowering -- *)

type lowering = {
  l_fixture : string;
  l_scenario : string;
  l_rule : string;
  l_confirmed : bool;
  l_replay_ok : bool;
  l_schedule_len : int;
}

(* -- deterministic JSON -- *)

let verdict_json = function
  | Holds -> "\"holds\""
  | Out_of_bounds -> "\"out-of-bounds\""
  | Violated cex ->
    Printf.sprintf
      "{ \"violated\": { \"why\": \"%s\", \"state\": \"%s\", \"trace\": %s } }"
      (Engine.Json.escape cex.x_why) (Engine.Json.escape cex.x_state)
      (Engine.Json.string_list (List.map (fun (r, l) -> (if r = "" then "" else r ^ ":") ^ l) cex.x_steps))

let report_json indent r =
  let pad = String.make indent ' ' in
  String.concat ",\n"
    [ Printf.sprintf "%s\"model\": %s" pad (Engine.Json.quote r.r_model);
      Printf.sprintf "%s\"property\": %s" pad (Engine.Json.quote r.r_property);
      Printf.sprintf "%s\"desc\": %s" pad (Engine.Json.quote r.r_desc);
      Printf.sprintf "%s\"states\": %d" pad r.r_states;
      Printf.sprintf "%s\"edges\": %d" pad r.r_edges;
      Printf.sprintf "%s\"verdict\": %s" pad (verdict_json r.r_verdict) ]

let to_json ~shipped ~fixtures ~lowered =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n  \"proto_check\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"shipped_clean\": %b,\n" (clean shipped));
  Buffer.add_string buf
    (Printf.sprintf "    \"fixtures_detected\": %b,\n" (fixtures_ok fixtures));
  Buffer.add_string buf "    \"shipped\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map (fun r -> "      {\n" ^ report_json 8 r ^ "\n      }") shipped));
  Buffer.add_string buf "\n    ],\n    \"fixtures\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun f ->
            String.concat "\n"
              [ "      {";
                Printf.sprintf "        \"fixture\": %s," (Engine.Json.quote f.f_name);
                Printf.sprintf "        \"expect\": %s," (Engine.Json.string_list f.f_expect);
                Printf.sprintf "        \"found\": %s," (Engine.Json.string_list f.f_found);
                Printf.sprintf "        \"missing\": %s," (Engine.Json.string_list f.f_missing);
                "        \"properties\": [";
                String.concat ",\n"
                  (List.map (fun r -> "          {\n" ^ report_json 12 r ^ "\n          }")
                     f.f_reports);
                "        ]";
                "      }" ])
          fixtures));
  Buffer.add_string buf "\n    ],\n    \"lowered\": [\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun l ->
            String.concat "\n"
              [ "      {";
                Printf.sprintf "        \"fixture\": %s," (Engine.Json.quote l.l_fixture);
                Printf.sprintf "        \"scenario\": %s," (Engine.Json.quote l.l_scenario);
                Printf.sprintf "        \"rule\": %s," (Engine.Json.quote l.l_rule);
                Printf.sprintf "        \"confirmed\": %b," l.l_confirmed;
                Printf.sprintf "        \"replay_ok\": %b," l.l_replay_ok;
                Printf.sprintf "        \"schedule_len\": %d" l.l_schedule_len;
                "      }" ])
          lowered));
  Buffer.add_string buf "\n    ]\n  }\n}\n";
  Buffer.contents buf
