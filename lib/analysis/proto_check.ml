(* Explicit-state model checker over Core.Protocol. Bounded BFS with
   a hashed seen-set of packed keys; liveness via backward
   reachability from the goal states. Pure and deterministic throughout, so every state count,
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

(* Growable flat vectors. State ids are BFS discovery order, which
   doubles as the deterministic tiebreak (the earliest wedged state is
   the one reported) and as the queue: the next state to expand is
   simply the next id. *)
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

(* Keys are compared and hashed eight bytes at a time, then bytewise
   over the tail. *)
let word_bytes buf i = Int64.to_int (Bytes.get_int64_le buf i)

let hash_bytes buf len =
  let h = ref len and i = ref 0 in
  while !i + 8 <= len do
    h := (!h lxor word_bytes buf !i) * 0x100000001b3;
    h := !h lxor (!h lsr 31);
    i := !i + 8
  done;
  while !i < len do
    h := (!h lxor Char.code (Bytes.get buf !i)) * 0x100000001b3;
    incr i
  done;
  (!h lxor (!h lsr 29)) land max_int

let rec equal_from (k : string) buf len i =
  if i + 8 <= len then
    Int64.equal (String.get_int64_le k i) (Bytes.get_int64_le buf i)
    && equal_from k buf len (i + 8)
  else i >= len || (String.get k i = Bytes.get buf i && equal_from k buf len (i + 1))

let equal_key (k : string) buf len = String.length k = len && equal_from k buf len 0

(* The seen-set: each state is stored once, as its packed key, in
   [keys]. [table] is an open-addressing (linear probing) index over
   them: slot [i] holds a state id at [2i] (-1 when empty) and that
   key's hash at [2i + 1], so a probe reads the key only on a hash
   match. It doubles at half load. *)
type seen = { keys : string vec; mutable table : int array }

let seen_make () = { keys = vec_make ""; table = Array.make 8192 (-1) }

(* First slot at or after [i] that is empty or holds key [buf.[0 .. len)]. *)
let rec probe table mask h buf len keys i =
  let id = table.(2 * i) in
  if id < 0 || (table.((2 * i) + 1) = h && equal_key keys.(id) buf len) then i
  else probe table mask h buf len keys ((i + 1) land mask)

let rec free_slot table mask i =
  if table.(2 * i) < 0 then i else free_slot table mask ((i + 1) land mask)

let grow s =
  let old = s.table in
  let table = Array.make (2 * Array.length old) (-1) in
  let mask = (Array.length table / 2) - 1 in
  for j = 0 to (Array.length old / 2) - 1 do
    if old.(2 * j) >= 0 then begin
      let h = old.((2 * j) + 1) in
      let i = free_slot table mask (h land mask) in
      table.(2 * i) <- old.(2 * j);
      table.((2 * i) + 1) <- h
    end
  done;
  s.table <- table

(* The id of key [buf.[0 .. len)] with hash [h], or -1 when it is new. *)
let find s h buf len =
  let mask = (Array.length s.table / 2) - 1 in
  s.table.(2 * probe s.table mask h buf len s.keys.buf (h land mask))

let add s h buf len =
  if 4 * (s.keys.len + 1) > Array.length s.table then grow s;
  let mask = (Array.length s.table / 2) - 1 in
  let i = free_slot s.table mask (h land mask) in
  let id = s.keys.len in
  s.table.(2 * i) <- id;
  s.table.((2 * i) + 1) <- h;
  vec_push s.keys (Bytes.sub_string buf 0 len);
  id

(* Reconstruct the (role, label) path from the initial state to [id]
   via parent pointers and the transition taken into each state. *)
let path_to model parent via id =
  let rec go acc id =
    if parent.buf.(id) < 0 then acc
    else go (Protocol.transition model via.buf.(id) :: acc) parent.buf.(id)
  in
  go [] id

let check ?(max_states = 2_000_000) model prop =
  let seen = seen_make () in
  let parent = vec_make 0 and via = vec_make 0 in
  (* Edges, only kept for liveness (the backward pass). *)
  let keep_edges = match prop with Protocol.Liveness _ -> true | _ -> false in
  let src = vec_make 0 and dst = vec_make 0 in
  (* Scratch owned by this call, so concurrent checks share nothing. *)
  let next = Protocol.scratch model in
  let buf = Bytes.create (Protocol.max_key_len model) in
  let edges = ref 0 in
  let violation = ref None in
  let truncated = ref false in
  (* The id of [st], interning it as the child of [from] via [tr] when
     it is new; past [max_states] distinct states, give up. *)
  let intern st from tr =
    let len = Protocol.write_key model st buf in
    let h = hash_bytes buf len in
    let id = find seen h buf len in
    if id >= 0 then id
    else begin
      if seen.keys.len >= max_states then begin
        truncated := true;
        raise Exit
      end;
      vec_push parent from;
      vec_push via tr;
      add seen h buf len
    end
  in
  let bad_state id st =
    match prop with
    | Protocol.Safety { q_bad; _ } -> (
      match q_bad model st with
      | Some why ->
        violation :=
          Some { x_steps = path_to model parent via id; x_why = why;
                 x_state = Protocol.describe model st };
        true
      | None -> false)
    | _ -> false
  in
  let bad_step pre_id pre tr =
    match prop with
    | Protocol.Step { q_bad; _ } -> (
      let role, label = Protocol.transition model tr in
      match q_bad model ~role ~label pre with
      | Some why ->
        violation :=
          Some { x_steps = path_to model parent via pre_id @ [ (role, label) ]; x_why = why;
                 x_state = Protocol.describe model pre };
        true
      | None -> false)
    | _ -> false
  in
  (try
     let init = Protocol.init model in
     if bad_state (intern init (-1) (-1)) init then raise Exit;
     let cursor = ref 0 in
     while !cursor < seen.keys.len do
       let id = !cursor in
       incr cursor;
       let st = Protocol.of_key model seen.keys.buf.(id) in
       Protocol.iter_successors model st ~into:next (fun tr ->
           incr edges;
           if bad_step id st tr then raise Exit;
           let fresh = seen.keys.len in
           let id' = intern next id tr in
           if keep_edges then begin
             vec_push src id;
             vec_push dst id'
           end;
           if id' = fresh && bad_state id' next then raise Exit)
     done
   with Exit -> ());
  let n = seen.keys.len in
  let verdict =
    match (!violation, !truncated) with
    | Some cex, _ -> Violated cex
    | None, true -> Out_of_bounds
    | None, false -> (
      match prop with
      | Protocol.Safety _ | Protocol.Step _ -> Holds
      | Protocol.Liveness { q_goal; _ } ->
        (* Backward reachability: every reachable state must be able
           to reach a goal state. Predecessors in CSR form: those of
           [id] are [preds.(start.(id)) .. preds.(start.(id + 1) - 1)]. *)
        let m = src.len in
        let start = Array.make (n + 1) 0 in
        for e = 0 to m - 1 do
          start.(dst.buf.(e) + 1) <- start.(dst.buf.(e) + 1) + 1
        done;
        for id = 1 to n do
          start.(id) <- start.(id) + start.(id - 1)
        done;
        let fill = Array.sub start 0 n in
        let preds = Array.make m 0 in
        for e = 0 to m - 1 do
          let d = dst.buf.(e) in
          preds.(fill.(d)) <- src.buf.(e);
          fill.(d) <- fill.(d) + 1
        done;
        let ok = Array.make n false in
        let bq = Array.make n 0 and tail = ref 0 in
        for id = 0 to n - 1 do
          if q_goal model (Protocol.of_key model seen.keys.buf.(id)) then begin
            ok.(id) <- true;
            bq.(!tail) <- id;
            incr tail
          end
        done;
        let head = ref 0 in
        while !head < !tail do
          let id = bq.(!head) in
          incr head;
          for e = start.(id) to start.(id + 1) - 1 do
            let p = preds.(e) in
            if not ok.(p) then begin
              ok.(p) <- true;
              bq.(!tail) <- p;
              incr tail
            end
          done
        done;
        let wedged = ref (-1) in
        for id = n - 1 downto 0 do
          if not ok.(id) then wedged := id
        done;
        if !wedged < 0 then Holds
        else
          Violated
            { x_steps = path_to model parent via !wedged;
              x_why = "wedged: no path to a quiesced/goal state";
              x_state = Protocol.describe model (Protocol.of_key model seen.keys.buf.(!wedged)) })
  in
  { r_model = Protocol.name model; r_property = Protocol.property_name prop;
    r_desc = Protocol.property_desc prop; r_states = n; r_edges = !edges;
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
