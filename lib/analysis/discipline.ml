open Butterfly

type key = int * int

let key a = (Memory.node_of a, Memory.index_of a)

type held = { h_key : key; h_name : string; h_spin : bool }

type rule = Unlock_not_held | Block_holding_spin_lock | Lock_held_at_exit

(* A finding keeps the tid, not the thread name: names are known only
   once the run is over, so the message is built at [finish]. *)
type finding = { rule : rule; time : int; tid : int; lock : string }

(* Lock-usage lint over the merged stream: tracks the per-thread stack
   of held locks from the acquire/release annotations and flags
   blocking while holding a spin-mode lock, releases without a
   matching acquire, and locks still held at thread exit. *)
type t = {
  held : (int, held list) Hashtbl.t;
  mutable findings : finding list;  (* newest first *)
}

let create () = { held = Hashtbl.create 64; findings = [] }
let add t rule ~time ~tid lock = t.findings <- { rule; time; tid; lock } :: t.findings
let holding t tid = match Hashtbl.find_opt t.held tid with Some h -> h | None -> []

let annot t (an : Sched.annot) =
  match an.annotation with
  | Ops.A_lock_acquire { lock; lock_name; spin_wait } ->
    Hashtbl.replace t.held an.annot_tid
      ({ h_key = key lock; h_name = lock_name; h_spin = spin_wait }
      :: holding t an.annot_tid)
  | Ops.A_lock_release { lock; lock_name } ->
    let k = key lock in
    let h = holding t an.annot_tid in
    if List.exists (fun e -> e.h_key = k) h then begin
      let rec remove = function
        | [] -> []
        | e :: rest -> if e.h_key = k then rest else e :: remove rest
      in
      Hashtbl.replace t.held an.annot_tid (remove h)
    end
    else add t Unlock_not_held ~time:an.annot_time ~tid:an.annot_tid lock_name
  | Ops.A_lock_request _ | Ops.A_sync_word _ | Ops.A_relaxed_word _ | Ops.A_adaptation _ ->
    ()

let event t (ev : Sched.event) =
  match ev.kind with
  | Sched.Ev_block ->
    (* The thread really slept (token-absorbing blocks emit
       Ev_token_use instead): any spin-mode lock it holds keeps every
       waiter burning its processor until the sleeper is
       rescheduled. *)
    List.iter
      (fun e -> if e.h_spin then add t Block_holding_spin_lock ~time:ev.time ~tid:ev.tid e.h_name)
      (holding t ev.tid)
  | Sched.Ev_finish ->
    List.iter
      (fun e -> add t Lock_held_at_exit ~time:ev.time ~tid:ev.tid e.h_name)
      (holding t ev.tid);
    Hashtbl.remove t.held ev.tid
  | Sched.Ev_fork | Sched.Ev_switch | Sched.Ev_preempt | Sched.Ev_wakeup | Sched.Ev_token
  | Sched.Ev_token_use | Sched.Ev_join ->
    ()

let diag ~names f =
  let rule, message =
    match f.rule with
    | Unlock_not_held ->
      ( "unlock-not-held",
        Printf.sprintf
          "unlocked %s without holding it (double unlock or unlock of someone else's lock)"
          f.lock )
    | Block_holding_spin_lock ->
      ( "block-holding-spin-lock",
        Printf.sprintf
          "blocked while holding spin-mode lock %s; its waiters spin for the whole sleep"
          f.lock )
    | Lock_held_at_exit -> ("lock-held-at-exit", Printf.sprintf "exited still holding lock %s" f.lock)
  in
  Diag.make ~category:Diag.Discipline ~rule ~time:f.time ~thread:(names f.tid) message

let finish t ~names = List.rev_map (diag ~names) t.findings

let run ~names trace =
  let t = create () in
  Trace.iter
    (function
      | Trace.Event ev -> event t ev | Trace.Annot an -> annot t an | Trace.Access _ -> ())
    trace;
  finish t ~names
