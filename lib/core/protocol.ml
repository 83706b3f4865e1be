(* Small-step protocol IR + explicit-state semantics. See the .mli
   for the model: roles, shared words, guarded atomic rules, generated
   crash transitions and an abstract clock. Everything is pure and
   deterministic — successor order is declaration order — so the
   checker's state counts and counterexamples are stable bytes. *)

module Spec = struct
  type flavor = Holder | Swapper | Spinning | Queued | Sleeping | Timed | Monitor

  type role = {
    r_name : string;
    r_flavor : flavor;
    r_crashable : bool;
    r_locals : (string * int) list;
  }

  type expr =
    | K of int
    | S of string
    | L of string
    | Me
    | Clock
    | Status of string
    | Add of expr * expr
    | Sub of expr * expr

  type cmp = Eq | Ne | Lt | Le | Gt | Ge

  type guard = T | C of cmp * expr * expr | All of guard list | Any of guard list | Not of guard

  type act =
    | Read of string * string
    | Write of string * expr
    | Set of string * expr
    | If of guard * act list * act list
    | Unpark of string

  type rule = {
    u_role : string;
    u_from : int;
    u_label : string;
    u_guard : guard;
    u_acts : act list;
    u_to : int;
    u_park : bool;
    u_done : bool;
    u_timeout : bool;
  }

  let rule ~role ~from_ ?(park = false) ?(done_ = false) ?(timeout = false) ?(guard = T)
      ?(acts = []) ~label u_to =
    { u_role = role; u_from = from_; u_label = label; u_guard = guard; u_acts = acts;
      u_to; u_park = park; u_done = done_; u_timeout = timeout }

  let cas w ~expect ~set = (C (Eq, S w, expect), Write (w, set))

  type t = {
    p_name : string;
    p_shared : (string * int) list;
    p_roles : role list;
    p_rules : rule list;
    p_crash_budget : int;
    p_clock_max : int;
  }
end

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* Compiled (indexed) form: every name resolved to a word of the flat
   state, so evaluation during exploration never touches a string. *)

type cexpr = CK of int | CW of int | CAdd of cexpr * cexpr | CSub of cexpr * cexpr

type cguard =
  | CT
  | CC of Spec.cmp * cexpr * cexpr
  | CAll of cguard list
  | CAny of cguard list
  | CNot of cguard

type cact = CSet of int * cexpr | CIf of cguard * cact list * cact list | CUnpark of int

type crule = {
  c_role : int;
  c_from : int;
  c_guard : cguard;
  c_acts : cact list;
  c_to : int;
  c_park : bool;
  c_done : bool;
}

(* A state is one flat [int array]:
     [shared | pcs | locals, role-major | statuses | wake tokens | clk | cr]
   with the offsets below computed once by [compile]. *)
type t = {
  t_spec : Spec.t;
  t_shared_names : string array;
  t_role_names : string array;
  t_crashable : bool array;
  t_local_names : string array array;
  t_rules : crule array;
  t_labels : (string * string) array;
      (* transition -> (role, label): rules, then one crash per role, then tick *)
  t_init : int array;
  t_pc : int;
  t_loc : int array;  (* first local of each role *)
  t_st : int;
  t_wk : int;
  t_clk : int;
  t_cr : int;
  t_width : int;
}

(* status codes *)
let st_running = 0
let st_parked = 1
let st_crashed = 2
let st_done = 3

type status = Running | Parked | Crashed | Done

let status_of_code = function
  | 0 -> Running
  | 1 -> Parked
  | 2 -> Crashed
  | _ -> Done

let rec find_name (names : string array) (n : string) i =
  if i >= Array.length names then -1 else if names.(i) = n then i else find_name names n (i + 1)

let index_of what names n =
  let i = find_name names n 0 in
  if i < 0 then ill "%s: unknown name %s" what n else i

let check_dups what names =
  Array.iteri
    (fun i n ->
      Array.iteri (fun j m -> if i < j && n = m then ill "%s: duplicate name %s" what n) names)
    names

let compile (s : Spec.t) : t =
  if s.Spec.p_roles = [] then ill "protocol %s: no roles" s.Spec.p_name;
  if s.Spec.p_crash_budget < 0 then ill "protocol %s: negative crash budget" s.Spec.p_name;
  if s.Spec.p_clock_max < 0 then ill "protocol %s: negative clock bound" s.Spec.p_name;
  let shared_names = Array.of_list (List.map fst s.Spec.p_shared) in
  let role_names = Array.of_list (List.map (fun r -> r.Spec.r_name) s.Spec.p_roles) in
  let crashable = Array.of_list (List.map (fun r -> r.Spec.r_crashable) s.Spec.p_roles) in
  let local_names =
    Array.of_list (List.map (fun r -> Array.of_list (List.map fst r.Spec.r_locals)) s.Spec.p_roles)
  in
  check_dups s.Spec.p_name shared_names;
  check_dups s.Spec.p_name role_names;
  Array.iter (check_dups s.Spec.p_name) local_names;
  let nshared = Array.length shared_names and nroles = Array.length role_names in
  let loc = Array.make nroles 0 in
  let next = ref (nshared + nroles) in
  Array.iteri (fun r ls -> loc.(r) <- !next; next := !next + Array.length ls) local_names;
  let o_st = !next in
  let o_wk = o_st + nroles in
  let o_clk = o_wk + nroles in
  let width = o_clk + 2 in
  let init = Array.make width 0 in
  List.iteri (fun i (_, v) -> init.(i) <- v) s.Spec.p_shared;
  List.iteri
    (fun r role -> List.iteri (fun i (_, v) -> init.(loc.(r) + i) <- v) role.Spec.r_locals)
    s.Spec.p_roles;
  let shared_ix n = index_of (s.Spec.p_name ^ " shared") shared_names n in
  let role_ix n = index_of (s.Spec.p_name ^ " role") role_names n in
  let local_ix role n = loc.(role) + index_of (s.Spec.p_name ^ " local") local_names.(role) n in
  let rec cexpr role = function
    | Spec.K v -> CK v
    | Spec.S n -> CW (shared_ix n)
    | Spec.L n -> CW (local_ix role n)
    | Spec.Me -> CK (role + 1)
    | Spec.Clock -> CW o_clk
    | Spec.Status n -> CW (o_st + role_ix n)
    | Spec.Add (a, b) -> CAdd (cexpr role a, cexpr role b)
    | Spec.Sub (a, b) -> CSub (cexpr role a, cexpr role b)
  in
  let rec cguard role = function
    | Spec.T -> CT
    | Spec.C (c, a, b) -> CC (c, cexpr role a, cexpr role b)
    | Spec.All gs -> CAll (List.map (cguard role) gs)
    | Spec.Any gs -> CAny (List.map (cguard role) gs)
    | Spec.Not g -> CNot (cguard role g)
  in
  let rec cact role = function
    | Spec.Read (l, w) -> CSet (local_ix role l, CW (shared_ix w))
    | Spec.Write (w, e) -> CSet (shared_ix w, cexpr role e)
    | Spec.Set (l, e) -> CSet (local_ix role l, cexpr role e)
    | Spec.If (g, a, b) -> CIf (cguard role g, List.map (cact role) a, List.map (cact role) b)
    | Spec.Unpark n -> CUnpark (role_ix n)
  in
  let crule (u : Spec.rule) =
    let role = role_ix u.Spec.u_role in
    if u.Spec.u_park && u.Spec.u_done then
      ill "%s rule %s: park and done are exclusive" s.Spec.p_name u.Spec.u_label;
    { c_role = role; c_from = u.Spec.u_from; c_guard = cguard role u.Spec.u_guard;
      c_acts = List.map (cact role) u.Spec.u_acts; c_to = u.Spec.u_to;
      c_park = u.Spec.u_park; c_done = u.Spec.u_done }
  in
  let labels =
    Array.concat
      [ Array.of_list (List.map (fun u -> (u.Spec.u_role, u.Spec.u_label)) s.Spec.p_rules);
        Array.map (fun rn -> (rn, "crash")) role_names;
        [| ("", "tick") |] ]
  in
  { t_spec = s; t_shared_names = shared_names; t_role_names = role_names;
    t_crashable = crashable; t_local_names = local_names;
    t_rules = Array.of_list (List.map crule s.Spec.p_rules); t_labels = labels;
    t_init = init; t_pc = nshared; t_loc = loc; t_st = o_st; t_wk = o_wk; t_clk = o_clk;
    t_cr = o_clk + 1; t_width = width }

let name t = t.t_spec.Spec.p_name
let spec t = t.t_spec
let role_names t = Array.to_list t.t_role_names

type state = int array

let init t = Array.copy t.t_init
let scratch t = Array.make t.t_width 0
let transition t i = t.t_labels.(i)

let rec eval st = function
  | CK v -> v
  | CW i -> st.(i)
  | CAdd (a, b) -> eval st a + eval st b
  | CSub (a, b) -> eval st a - eval st b

let rec holds st = function
  | CT -> true
  | CC (c, a, b) -> (
    let a = eval st a and b = eval st b in
    match c with
    | Spec.Eq -> a = b
    | Spec.Ne -> a <> b
    | Spec.Lt -> a < b
    | Spec.Le -> a <= b
    | Spec.Gt -> a > b
    | Spec.Ge -> a >= b)
  | CAll gs -> holds_all st gs
  | CAny gs -> holds_any st gs
  | CNot g -> not (holds st g)

and holds_all st = function [] -> true | g :: gs -> holds st g && holds_all st gs
and holds_any st = function [] -> false | g :: gs -> holds st g || holds_any st gs

(* Actions mutate the successor in order: later actions observe earlier
   writes within the same atomic rule. *)
let rec apply_acts t st = function
  | [] -> ()
  | a :: rest ->
    (match a with
    | CSet (w, e) -> st.(w) <- eval st e
    | CIf (g, a, b) -> apply_acts t st (if holds st g then a else b)
    | CUnpark r ->
      (* Sticky wakeups: waking a parked role resumes it; waking a
         running role leaves a token its next park consumes. Crashed
         and finished roles ignore wakeups. *)
      if st.(t.t_st + r) = st_parked then st.(t.t_st + r) <- st_running
      else if st.(t.t_st + r) = st_running then st.(t.t_wk + r) <- 1);
    apply_acts t st rest

let fire t st (r : crule) =
  apply_acts t st r.c_acts;
  st.(t.t_pc + r.c_role) <- r.c_to;
  if r.c_done then st.(t.t_st + r.c_role) <- st_done
  else if r.c_park then begin
    if st.(t.t_wk + r.c_role) = 1 then st.(t.t_wk + r.c_role) <- 0
    else st.(t.t_st + r.c_role) <- st_parked
  end

let iter_successors t st ~into f =
  let width = t.t_width and nrules = Array.length t.t_rules in
  for i = 0 to nrules - 1 do
    let r = t.t_rules.(i) in
    if st.(t.t_st + r.c_role) = st_running && st.(t.t_pc + r.c_role) = r.c_from
       && holds st r.c_guard
    then begin
      Array.blit st 0 into 0 width;
      fire t into r;
      f i
    end
  done;
  if st.(t.t_cr) < t.t_spec.Spec.p_crash_budget then
    for i = 0 to Array.length t.t_crashable - 1 do
      let s = st.(t.t_st + i) in
      if t.t_crashable.(i) && (s = st_running || s = st_parked) then begin
        Array.blit st 0 into 0 width;
        into.(t.t_st + i) <- st_crashed;
        into.(t.t_cr) <- st.(t.t_cr) + 1;
        f (nrules + i)
      end
    done;
  if st.(t.t_clk) < t.t_spec.Spec.p_clock_max then begin
    Array.blit st 0 into 0 width;
    into.(t.t_clk) <- st.(t.t_clk) + 1;
    f (nrules + Array.length t.t_role_names)
  end

let successors t st =
  let into = scratch t and out = ref [] in
  iter_successors t st ~into (fun i ->
      let role, label = t.t_labels.(i) in
      out := (role, label, Array.copy into) :: !out);
  List.rev !out

(* Keys: each word as a zigzag varint (sign folded into bit 0, then 7
   bits per byte, high bit = more), so [-64, 63] costs one byte and any
   int at most nine. Every state of a model has the same width, so the
   concatenation is canonical and decodes back losslessly. *)

let max_key_len t = 9 * t.t_width

let write_key t st buf =
  let pos = ref 0 in
  for i = 0 to t.t_width - 1 do
    let z = ref ((st.(i) lsl 1) lxor (st.(i) asr (Sys.int_size - 1))) in
    while !z lsr 7 <> 0 do
      Bytes.set buf !pos (Char.unsafe_chr (!z land 0x7f lor 0x80));
      incr pos;
      z := !z lsr 7
    done;
    Bytes.set buf !pos (Char.unsafe_chr !z);
    incr pos
  done;
  !pos

let key t st =
  let buf = Bytes.create (max_key_len t) in
  Bytes.sub_string buf 0 (write_key t st buf)

let of_key t k =
  let st = scratch t and pos = ref 0 in
  let byte () =
    if !pos >= String.length k then invalid_arg "Protocol.of_key: truncated key";
    let b = Char.code k.[!pos] in
    incr pos;
    b
  in
  for i = 0 to t.t_width - 1 do
    let b = ref (byte ()) and z = ref 0 and shift = ref 0 in
    while !b land 0x80 <> 0 do
      z := !z lor ((!b land 0x7f) lsl !shift);
      shift := !shift + 7;
      b := byte ()
    done;
    z := !z lor (!b lsl !shift);
    st.(i) <- (!z lsr 1) lxor (- (!z land 1))
  done;
  if !pos <> String.length k then invalid_arg "Protocol.of_key: trailing bytes";
  st

let role_ix t rn = index_of "role" t.t_role_names rn
let shared t st n = st.(index_of "shared" t.t_shared_names n)

let local t st rn n =
  let r = role_ix t rn in
  st.(t.t_loc.(r) + index_of "local" t.t_local_names.(r) n)

let pc t st rn = st.(t.t_pc + role_ix t rn)
let status t st rn = status_of_code st.(t.t_st + role_ix t rn)
let wake_pending t st rn = st.(t.t_wk + role_ix t rn) = 1
let clock t st = st.(t.t_clk)
let crashes t st = st.(t.t_cr)

let describe t st =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "clk=%d cr=%d" (clock t st) (crashes t st));
  Array.iteri (fun i n -> Buffer.add_string b (Printf.sprintf " %s=%d" n st.(i)))
    t.t_shared_names;
  Array.iteri
    (fun i rn ->
      let s =
        match status_of_code st.(t.t_st + i) with
        | Running -> "run"
        | Parked -> "parked"
        | Crashed -> "crashed"
        | Done -> "done"
      in
      Buffer.add_string b (Printf.sprintf " %s@%d:%s" rn st.(t.t_pc + i) s);
      if st.(t.t_wk + i) = 1 then Buffer.add_string b "+wake";
      Array.iteri
        (fun j ln -> Buffer.add_string b (Printf.sprintf "[%s=%d]" ln st.(t.t_loc.(i) + j)))
        t.t_local_names.(i))
    t.t_role_names;
  Buffer.contents b

type property =
  | Safety of { q_name : string; q_desc : string; q_bad : t -> state -> string option }
  | Step of {
      q_name : string;
      q_desc : string;
      q_bad : t -> role:string -> label:string -> state -> string option;
    }
  | Liveness of { q_name : string; q_desc : string; q_goal : t -> state -> bool }

let property_name = function
  | Safety { q_name; _ } | Step { q_name; _ } | Liveness { q_name; _ } -> q_name

let property_desc = function
  | Safety { q_desc; _ } | Step { q_desc; _ } | Liveness { q_desc; _ } -> q_desc
