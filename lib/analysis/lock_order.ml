open Butterfly

type key = int * int

let key a = (Memory.node_of a, Memory.index_of a)

type witness = { w_tid : int; w_time : int; w_holding : string; w_acquiring : string }

(* The acquired-while-holding graph, built from the annotation stream:
   an edge H -> L for every acquisition of L by a thread holding H,
   keeping the first witness of each edge. *)
type t = {
  held : (int, (key * string) list) Hashtbl.t;
  edges : (key * key, witness) Hashtbl.t;
  mutable order : (key * key) list;  (* edge keys, newest first *)
  locknames : (key, string) Hashtbl.t;
}

let create () =
  {
    held = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    order = [];
    locknames = Hashtbl.create 64;
  }

let holding t tid = match Hashtbl.find_opt t.held tid with Some h -> h | None -> []

let annot t (an : Sched.annot) =
  match an.annotation with
  | Ops.A_lock_request { lock; lock_name } ->
    (* Edges come from the request, not the completed acquisition:
       in a real deadlock the acquisition never completes, yet the
       request is exactly the evidence the graph needs. *)
    let l = key lock in
    Hashtbl.replace t.locknames l lock_name;
    List.iter
      (fun (h, hname) ->
        if not (Hashtbl.mem t.edges (h, l)) then begin
          Hashtbl.replace t.edges (h, l)
            {
              w_tid = an.annot_tid;
              w_time = an.annot_time;
              w_holding = hname;
              w_acquiring = lock_name;
            };
          t.order <- (h, l) :: t.order
        end)
      (holding t an.annot_tid)
  | Ops.A_lock_acquire { lock; lock_name; _ } ->
    let l = key lock in
    Hashtbl.replace t.locknames l lock_name;
    Hashtbl.replace t.held an.annot_tid ((l, lock_name) :: holding t an.annot_tid)
  | Ops.A_lock_release { lock; _ } ->
    let l = key lock in
    let rec remove = function
      | [] -> []
      | ((k, _) as e) :: rest -> if k = l then rest else e :: remove rest
    in
    (match Hashtbl.find_opt t.held an.annot_tid with
    | Some h -> Hashtbl.replace t.held an.annot_tid (remove h)
    | None -> ())
  | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ -> ()

(* Cycle detection over the (small) lock graph: for each edge u -> v,
   check whether v can reach u; the first such edge in first-seen
   order witnesses its cycle. Each strongly connected pair is reported
   once (the path is recomputed for the message). *)
let finish t ~names =
  let order = List.rev t.order in
  let succs u =
    List.filter_map (fun (a, b) -> if a = u then Some b else None) order
  in
  let reaches src dst =
    let visited = Hashtbl.create 16 in
    let rec go u path =
      if u = dst then Some (List.rev (u :: path))
      else if Hashtbl.mem visited u then None
      else begin
        Hashtbl.replace visited u ();
        let rec first = function
          | [] -> None
          | v :: rest -> (
            match go v (u :: path) with Some p -> Some p | None -> first rest)
        in
        first (succs u)
      end
    in
    go src []
  in
  let reported = Hashtbl.create 16 in
  let lock_name k =
    match Hashtbl.find_opt t.locknames k with
    | Some n -> n
    | None -> Printf.sprintf "lock<%d:%d>" (fst k) (snd k)
  in
  List.filter_map
    (fun (u, v) ->
      match reaches v u with
      | None -> None
      | Some path ->
        (* Canonical cycle identity: the sorted set of locks in it. *)
        let cycle_locks = List.sort_uniq compare (u :: path) in
        if Hashtbl.mem reported cycle_locks then None
        else begin
          Hashtbl.replace reported cycle_locks ();
          let w = Hashtbl.find t.edges (u, v) in
          let thread = names w.w_tid in
          let cycle_names = List.map lock_name (u :: path) in
          Some
            (Diag.make ~category:Diag.Lock_order ~rule:"lock-order-cycle" ~time:w.w_time
               ~thread
               (Printf.sprintf
                  "locks %s are acquired in a cycle (deadlock potential); witness: %s \
                   acquired %s while holding %s at %d ns"
                  (String.concat " -> " cycle_names)
                  thread w.w_acquiring w.w_holding w.w_time))
        end)
    order

let run ~names trace =
  let t = create () in
  Trace.iter (function Trace.Annot an -> annot t an | Trace.Event _ | Trace.Access _ -> ()) trace;
  finish t ~names
