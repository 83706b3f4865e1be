open Butterfly
module Policy = Adaptive_core.Policy
module Sensor = Adaptive_core.Sensor
module Adaptive = Adaptive_core.Adaptive

(* A lock whose *implementation* is the adaptive attribute: plain
   test-and-set spinning under low contention, an MCS-style queue of
   locally-homed flag words under high contention, and blocking
   handoff when ownership spans exceed the deschedule round trip.

   All three implementations share one registration queue (host-side,
   ticket-ordered, guard-protected) and one mailbox word per waiter,
   homed at the waiter's own memory module. The mailbox is the whole
   migration protocol: 0 = waiting, 1 = granted (direct handoff; the
   lock word stays held), 2 = migrate (a swap is in progress; re-arm
   and re-enter). Because every contended waiter — spinner, queued, or
   sleeping — is registered, a swap can always find, kick, and count
   them; because tickets survive migration, FIFO order for queued
   waiters is preserved across a swap. *)

type impl = Tas | Mcs | Blocking

let impl_id = function Tas -> 0 | Mcs -> 1 | Blocking -> 2

let impl_of_id = function
  | 0 -> Tas
  | 1 -> Mcs
  | 2 -> Blocking
  | v -> invalid_arg (Printf.sprintf "Switch_lock.impl_of_id: %d" v)

let impl_label = function Tas -> "tas" | Mcs -> "mcs" | Blocking -> "blocking"

(* Seeded defects for the analysis fixtures (never shipped): a swap
   that forgets its sleepers drops them from the queue without a
   wakeup — the classic lost-waiter window the predictor must catch —
   and a swap that "helpfully" grants its sleepers while the swapper
   still owns the lock — the double-grant escape. *)
type bug = Lost_sleeper_on_swap | Double_grant_on_swap

type params = {
  queue_threshold : int;  (* waiters at/above this: adopt the MCS queue *)
  uncontended_max : int;  (* waiters at/below this: adopt plain TAS *)
  hold_ns_threshold : int;  (* mean hold above this: adopt blocking *)
  sample_period : int;
  repeats : int;  (* hysteresis: consecutive matching samples per swap *)
  swap_timeout_ns : int;  (* drain budget before a swap rolls back *)
  swap_grace_ns : int;  (* extra slack before a swap is presumed abandoned *)
}

let default_params =
  {
    queue_threshold = 3;
    uncontended_max = 1;
    hold_ns_threshold = 450_000;
    sample_period = 2;
    repeats = 2;
    swap_timeout_ns = 2_000_000;
    swap_grace_ns = 1_000_000;
  }

(* The implementation ladder's metric tops out at 199 (see [score]),
   so the guardrail clamp must keep the blocking region reachable. *)
let default_guardrail =
  { Policy.Guard.clamp_max = 199; pathological_limit = 4; cooldown = 8 }

type waiter = {
  w_tid : int;
  w_ticket : int;
  w_flag : Memory.addr;  (* mailbox, homed at the waiter's node *)
  mutable w_sleeping : bool;  (* true while parked in [Ops.block] *)
  mutable w_kick : int;  (* swap sequence that flagged us; 0 = none *)
}

type t = {
  lock_name : string;
  home_node : int;
  word : Memory.addr;  (* 0 free, 1 held (stays held across handoffs) *)
  guard : Memory.addr;  (* protects queue, mailboxes, and the free word *)
  nwait : Memory.addr;  (* waiting-thread count (the monitored variable) *)
  ctl : Memory.addr;  (* 0 = no swap; else the swap's drain deadline *)
  ack : Memory.addr;  (* migrants not yet re-armed during a swap *)
  impl_word : Memory.addr;  (* current implementation id, for observers *)
  params : params;
  bug : bug option;
  pinned : bool;  (* created with [?fixed]: implementation swaps refused *)
  mutable impl : impl;
  mutable epoch : int;  (* committed swaps *)
  mutable swap_seq : int;  (* identifies the kick a waiter acks *)
  mutable next_ticket : int;
  mutable queue : waiter list;  (* ticket-ascending *)
  flags : (int, Memory.addr) Hashtbl.t;  (* per-thread mailbox cache *)
  mutable owner : int option;
  mutable acquired_at : int;
  mutable hold_avg_ns : int;  (* EWMA of ownership spans *)
  mutable swap_rollbacks : int;
  mutable abandoned_recoveries : int;
  mutable loop : int Adaptive.t option;
  mutable guard_state : Policy.Guard.t option;
  mutable probe : (int -> string -> unit) option;
      (* conformance instrumentation: one callback per protocol
         transition, labelled to match [Proto_models.quiescence] *)
  lock_stats : Lock_stats.t;
}

let tas_gap_ns = 1_000
let mcs_poll_gap_ns = 1_000
let timed_poll_gap_ns = 1_000
let freeze_poll_gap_ns = 2_000
let drain_poll_gap_ns = 2_000

let name t = t.lock_name
let home t = t.home_node
let stats t = t.lock_stats
let current_impl t = t.impl
let epoch t = t.epoch
let swap_rollbacks t = t.swap_rollbacks
let abandoned_recoveries t = t.abandoned_recoveries
let hold_avg_ns t = t.hold_avg_ns
let waiting_now t = Ops.read t.nwait
let feedback t = t.loop
let guardrail t = t.guard_state

let profile t =
  match t.impl with
  | Tas -> Lock_costs.spin
  | Mcs -> Lock_costs.mcs
  | Blocking -> Lock_costs.blocking

(* The composite contention score the policy ladder reads: the number
   of waiting threads, lifted into [100, 199] when the mean ownership
   span exceeds the deschedule round trip — long holds make spinning
   (either kind) a processor sink, so the ladder prefers blocking. *)
let score t =
  let waiting = Ops.read t.nwait in
  if waiting = 0 then 0
  else if t.hold_avg_ns > t.params.hold_ns_threshold then 100 + min waiting 99
  else min waiting 99

(* {1 The declarative implementation ladder} *)

let transitions ~(params : params) =
  let module Spec = Policy.Spec in
  let cost = Lock_costs.swap_implementation in
  let t ~from ~cond ~target =
    {
      Spec.t_from = impl_id from;
      t_cond = cond;
      t_target = impl_id target;
      t_label = Printf.sprintf "swap:%s->%s" (impl_label from) (impl_label target);
      t_repeats = params.repeats;
      t_cost = cost;
    }
  in
  let low = Policy.Spec.cond 0 ~hi:params.uncontended_max in
  let queued = Policy.Spec.cond params.queue_threshold ~hi:99 in
  let long_hold = Policy.Spec.cond 100 in
  [
    t ~from:Tas ~cond:queued ~target:Mcs;
    t ~from:Tas ~cond:long_hold ~target:Blocking;
    t ~from:Mcs ~cond:low ~target:Tas;
    t ~from:Mcs ~cond:long_hold ~target:Blocking;
    t ~from:Blocking ~cond:low ~target:Tas;
    t ~from:Blocking ~cond:queued ~target:Mcs;
  ]

let guard_spec ~(gparams : Policy.Guard.params) =
  {
    Policy.Spec.g_clamp_lo = 0;
    g_clamp_hi = gparams.clamp_max;
    g_wedge = None;
    g_limit = gparams.pathological_limit;
    g_cooldown = gparams.cooldown;
    (* The fallback is an implementation id, not a knob value: a
       guardrailed ladder must land on a config the lock can run. *)
    g_fallback = impl_id Tas;
    g_fallback_label = "impl-guardrail-fallback";
    g_fallback_cost = Lock_costs.swap_implementation;
  }

let policy_spec ?(params = default_params) ?(guardrail = default_guardrail)
    ?(name = "switch-lock") () =
  let module Spec = Policy.Spec in
  {
    Spec.s_name = name;
    s_kind = "lock-impl";
    s_attribute = name ^ ".implementation";
    s_metric = "contention-score";
    s_monotone = Spec.Unordered;
    s_configs =
      [
        { Spec.c_name = "tas"; c_value = impl_id Tas };
        { Spec.c_name = "mcs"; c_value = impl_id Mcs };
        { Spec.c_name = "blocking"; c_value = impl_id Blocking };
      ];
    s_initial = impl_id Tas;
    s_transitions = transitions ~params;
    s_guard = Some (guard_spec ~gparams:guardrail);
  }

(* {1 Guard and waiting-count plumbing (as Lock_core)} *)

let guard_lock t =
  while not (Ops.test_and_set t.guard) do
    ()
  done

let guard_unlock t = Ops.write t.guard 0

let enter_waiting t =
  let waiting = Ops.fetch_and_add t.nwait 1 + 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

let leave_waiting t =
  let waiting = Ops.fetch_and_add t.nwait (-1) - 1 in
  Lock_stats.record_waiting t.lock_stats ~now:(Ops.now ()) ~waiting

let note_acquired t =
  t.owner <- Some (Ops.self ());
  t.acquired_at <- Ops.now ();
  if Ops.annotations_enabled () then
    Ops.annotate
      (Ops.A_lock_acquire
         { lock = t.word; lock_name = t.lock_name; spin_wait = t.impl <> Blocking })

let acquired t ~since =
  leave_waiting t;
  Lock_stats.on_acquired t.lock_stats ~wait_ns:(Ops.now () - since);
  note_acquired t

let annotate_swap t label =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_adaptation { obj_name = t.lock_name; kind = "lock-impl"; label })

(* Transition log for model-conformance tests: each emission is one
   atomic protocol step, labelled exactly as the corresponding rule of
   [Proto_models.quiescence]. Emissions from guard-held sections
   happen while the guard is still held, so the log order is the
   protocol's linearization order. *)
let set_transition_probe t probe = t.probe <- probe

let emit t label = match t.probe with Some f -> f (Ops.self ()) label | None -> ()

(* Wait out a freeze window. Returns false when [deadline_ns] (>= 0)
   passes first. A ctl word whose deadline lies more than the grace
   period in the past means the swapper died mid-swap: any waiter may
   clear the freeze (fail-safe recovery; the implementation is
   whatever the dead swapper left committed). *)
let rec await_unfrozen t ~deadline_ns =
  let c = Ops.read t.ctl in
  if c = 0 then true
  else if deadline_ns >= 0 && Ops.now () >= deadline_ns then false
  else if Ops.now () > c + t.params.swap_grace_ns then begin
    if Ops.compare_and_swap t.ctl ~expected:c ~desired:0 then begin
      t.abandoned_recoveries <- t.abandoned_recoveries + 1;
      emit t "recover";
      annotate_swap t "swap-abandoned-recovery"
    end;
    await_unfrozen t ~deadline_ns
  end
  else begin
    Ops.delay freeze_poll_gap_ns;
    await_unfrozen t ~deadline_ns
  end

let mailbox t =
  let me = Ops.self () in
  match Hashtbl.find_opt t.flags me with
  | Some flag -> flag
  | None ->
    let flag = Ops.alloc1 ~node:(Ops.my_processor ()) () in
    Ops.mark_sync_words [| flag |];
    Hashtbl.add t.flags me flag;
    flag

let remove_record t w = t.queue <- List.filter (fun x -> not (x == w)) t.queue

(* Ack a migration kick (guard held): only the kick of the swap still
   in progress is acknowledged — a stale flag from a rolled-back swap
   is simply re-armed. *)
let ack_kick t w =
  if Ops.read t.ctl <> 0 && w.w_kick = t.swap_seq then begin
    w.w_kick <- 0;
    ignore (Ops.fetch_and_add t.ack (-1))
  end

(* {1 The swap protocol}

   Runs in the current lock holder only, so the lock word stays held
   for the whole window — no acquisition can race a swap. Freeze (new
   arrivals park behind [ctl]), kick (every registered waiter's
   mailbox is set to 2; sleepers are woken), drain (wait for every
   kicked waiter to re-arm), then commit — or roll back to the old
   implementation if the drain does not quiesce in time (a stalled or
   killed participant must not wedge the lock in a half-swapped
   state). Migrating waiters keep their tickets and their queue slots:
   quiescence means everyone observes the implementation flip between
   two probe iterations, never inside one. *)
let swap_to t target =
  if t.pinned then
    raise
      (Lock_core.Misuse
         (Printf.sprintf "lock %s is pinned to %s: implementation swaps are disabled"
            t.lock_name (impl_label t.impl)));
  (match t.owner with
  | Some tid when tid = Ops.self () -> ()
  | _ ->
    raise
      (Lock_core.Misuse
         (Printf.sprintf "thread %s swapped lock %s it does not hold"
            (Ops.thread_name (Ops.self ())) t.lock_name)));
  if target = t.impl then true
  else begin
    let label = Printf.sprintf "%s->%s" (impl_label t.impl) (impl_label target) in
    (* Freeze before announcing: a swapper killed at the swap-begin
       annotation (the chaos fault point) must leave the freeze behind
       so the waiters' abandoned-swap recovery has something to age
       out. *)
    let deadline = Ops.now () + t.params.swap_timeout_ns in
    Ops.write t.ctl deadline;
    emit t "freeze";
    annotate_swap t ("swap-begin:" ^ label);
    guard_lock t;
    t.swap_seq <- t.swap_seq + 1;
    let kicked =
      List.filter
        (fun w ->
          if not w.w_sleeping then true
          else
            match t.bug with
            | Some Lost_sleeper_on_swap ->
              (* Seeded defect: the swap forgets its sleepers — they
                 are dropped from the queue without a wakeup and the
                 new implementation never learns of them. *)
              remove_record t w;
              false
            | Some Double_grant_on_swap ->
              (* Seeded defect: the kick grants the sleeper instead of
                 migrating it — while the swapper still owns the lock,
                 so two threads hold it at once. *)
              remove_record t w;
              Ops.write w.w_flag 1;
              Ops.wakeup w.w_tid;
              false
            | None -> true)
        t.queue
    in
    Ops.write t.ack (List.length kicked);
    List.iter
      (fun w ->
        w.w_kick <- t.swap_seq;
        Ops.write w.w_flag 2;
        if w.w_sleeping then Ops.wakeup w.w_tid)
      kicked;
    emit t "kick";
    guard_unlock t;
    let rec drain () =
      if Ops.read t.ack = 0 then true
      else if Ops.now () >= deadline then false
      else begin
        Ops.delay drain_poll_gap_ns;
        drain ()
      end
    in
    (* A drained swap must still re-validate ownership of the freeze:
       a swapper descheduled past deadline+grace inside its own drain
       (a stall fault in the swap window) resumes to find every ack in
       — but the waiters have long since aged the freeze out
       (abandoned-swap recovery), re-entered, and possibly re-parked
       under the old implementation. Flipping now would strand those
       sleepers under a release path that never wakes them. The guard
       holds parking waiters off while the flip lands; a recovery that
       already cleared [ctl] makes the re-check fail and the swap roll
       back instead. *)
    let committed =
      (if drain () then begin
         emit t "drain-ok";
         true
       end
       else begin
         emit t "drain-timeout";
         false
       end)
      && begin
           guard_lock t;
           if Ops.read t.ctl = deadline then begin
             t.impl <- target;
             t.epoch <- t.epoch + 1;
             Ops.write t.impl_word (impl_id target);
             Ops.write t.ctl 0;
             emit t "commit";
             guard_unlock t;
             true
           end
           else begin
             emit t "stolen";
             guard_unlock t;
             false
           end
         end
    in
    if committed then begin
      annotate_swap t ("swap-commit:" ^ label);
      true
    end
    else begin
      t.swap_rollbacks <- t.swap_rollbacks + 1;
      Ops.write t.ack 0;
      Ops.write t.ctl 0;
      emit t "rollback";
      annotate_swap t ("swap-rollback:" ^ label);
      false
    end
  end

(* {1 Acquire / release} *)

(* Timed waiters never sleep (a direct handoff cannot be cancelled at
   a deadline, so they poll instead), exactly as Lock_core. *)
let rec wait_loop t w ~since ~deadline_ns =
  if deadline_ns >= 0 && Ops.now () >= deadline_ns then
    timeout_cleanup t w ~since
  else begin
    match t.impl with
    | Tas ->
      Lock_stats.on_spin_probe t.lock_stats;
      if
        Ops.lock_probe ~retry_instrs:Lock_costs.spin.Lock_costs.lock_overhead_instrs
          ~gap_ns:tas_gap_ns t.word
      then begin
        (* Won the race on the word: withdraw our registration. *)
        guard_lock t;
        remove_record t w;
        emit t "acquire";
        guard_unlock t;
        acquired t ~since;
        true
      end
      else begin
        match Ops.read w.w_flag with
        | 0 -> wait_loop t w ~since ~deadline_ns
        | f -> on_flag t w f ~since ~deadline_ns
      end
    | Mcs ->
      Lock_stats.on_spin_probe t.lock_stats;
      let f = Ops.read_hint ~gap_ns:mcs_poll_gap_ns ~expect:0 w.w_flag in
      if f = 0 then wait_loop t w ~since ~deadline_ns
      else on_flag t w f ~since ~deadline_ns
    | Blocking ->
      if deadline_ns >= 0 then begin
        Lock_stats.on_spin_probe t.lock_stats;
        let f = Ops.read_hint ~gap_ns:timed_poll_gap_ns ~expect:0 w.w_flag in
        if f = 0 then wait_loop t w ~since ~deadline_ns
        else on_flag t w f ~since ~deadline_ns
      end
      else begin
        (* The check-then-block is serialized against grants and kicks
           by the guard: either we see the mailbox already set, or the
           writer sees [w_sleeping] and sends the wakeup (sticky, so a
           wakeup between our guard release and the block is kept).
           The implementation is re-checked under the same guard: a
           swap commit (which flips [t.impl] with the guard held) may
           have slipped in since the dispatch above, and parking under
           TAS/MCS would sleep behind a release that never wakes us. *)
        guard_lock t;
        if t.impl <> Blocking then begin
          guard_unlock t;
          wait_loop t w ~since ~deadline_ns
        end
        else begin
          let f = Ops.read w.w_flag in
          if f = 0 then begin
            w.w_sleeping <- true;
            emit t "park";
            guard_unlock t;
            Lock_stats.on_block t.lock_stats;
            Ops.block ();
            w.w_sleeping <- false;
            (* Restoring the thread's library context after a wakeup. *)
            Ops.work_instrs 800;
            wait_loop t w ~since ~deadline_ns
          end
          else begin
            guard_unlock t;
            on_flag t w f ~since ~deadline_ns
          end
        end
      end
  end

and on_flag t w f ~since ~deadline_ns =
  if f = 1 then begin
    (* Granted: the releaser handed the held word directly to us. *)
    guard_lock t;
    remove_record t w;
    emit t "granted";
    guard_unlock t;
    acquired t ~since;
    true
  end
  else begin
    (* f = 2: a swap kicked us. Re-arm the mailbox, acknowledge, wait
       out the freeze, then resume waiting under whatever
       implementation the swap left committed — with our original
       ticket, so queue order survives the migration. *)
    guard_lock t;
    Ops.write w.w_flag 0;
    ack_kick t w;
    emit t "ack";
    guard_unlock t;
    if await_unfrozen t ~deadline_ns then begin
      emit t "unfrozen";
      wait_loop t w ~since ~deadline_ns
    end
    else wait_loop t w ~since ~deadline_ns
  end

and timeout_cleanup t w ~since =
  guard_lock t;
  if List.exists (fun x -> x == w) t.queue then begin
    (* Still registered: withdraw. If a kick is in flight for us, the
       withdrawal is also the acknowledgment — a timed-out waiter must
       not stall the drain. *)
    if Ops.read w.w_flag = 2 then ack_kick t w;
    remove_record t w;
    emit t "timeout";
    guard_unlock t;
    leave_waiting t;
    Lock_stats.on_timeout t.lock_stats;
    false
  end
  else begin
    (* Already popped: the mailbox says whether a grant crossed the
       deadline. A grant that landed exactly at expiry made us the
       owner — take the lock properly and release it, so the grant is
       neither lost nor doubled. *)
    let f = Ops.read w.w_flag in
    if f = 1 then emit t "timeout-grant" else emit t "timeout";
    guard_unlock t;
    if f = 1 then begin
      acquired t ~since;
      unlock t;
      Lock_stats.on_timeout t.lock_stats;
      false
    end
    else begin
      leave_waiting t;
      Lock_stats.on_timeout t.lock_stats;
      false
    end
  end

and release_via_impl t =
  match t.impl with
  | Tas ->
    Ops.write t.word 0;
    emit t "free"
  | Mcs | Blocking -> begin
    guard_lock t;
    match t.queue with
    | [] ->
      Ops.write t.word 0;
      emit t "free";
      guard_unlock t
    | w :: rest ->
      (* Direct handoff to the lowest ticket: the word stays held. *)
      t.queue <- rest;
      Ops.write w.w_flag 1;
      let sleeping = w.w_sleeping in
      t.owner <- Some w.w_tid;
      emit t "grant";
      guard_unlock t;
      Lock_stats.on_handoff t.lock_stats;
      if sleeping then Ops.wakeup w.w_tid
  end

and unlock t =
  let me = Ops.self () in
  (match t.owner with
  | Some tid when tid = me -> ()
  | Some tid ->
    raise
      (Lock_core.Misuse
         (Printf.sprintf "thread %s unlocked lock %s held by %s" (Ops.thread_name me)
            t.lock_name (Ops.thread_name tid)))
  | None ->
    raise
      (Lock_core.Misuse
         (Printf.sprintf "thread %s unlocked lock %s, which is not held"
            (Ops.thread_name me) t.lock_name)));
  let hold = Ops.now () - t.acquired_at in
  t.hold_avg_ns <- ((3 * t.hold_avg_ns) + hold) / 4;
  (* The adaptation point: only the holder may swap, so the feedback
     loop ticks while ownership is still ours. *)
  (match t.loop with Some loop -> ignore (Adaptive.tick loop) | None -> ());
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_release { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_unlock t.lock_stats;
  t.owner <- None;
  Ops.work_instrs (profile t).Lock_costs.unlock_overhead_instrs;
  release_via_impl t

(* Contended acquisition: wait out any freeze, then register under the
   guard — re-testing the word there, since in queue/blocking mode a
   release with an empty queue frees the word and would never grant to
   a registration it did not see. The ctl re-check inside the guard
   means no waiter can slip into the queue between a swap's freeze and
   its kick and then park under an implementation about to vanish. *)
let rec contended t ~deadline_ns =
  let since = Ops.now () in
  Lock_stats.on_contended t.lock_stats;
  enter_waiting t;
  contended_entry t ~since ~deadline_ns

and contended_entry t ~since ~deadline_ns =
  if not (await_unfrozen t ~deadline_ns) then begin
    emit t "timeout";
    leave_waiting t;
    Lock_stats.on_timeout t.lock_stats;
    false
  end
  else begin
    guard_lock t;
    if Ops.read t.ctl <> 0 then begin
      guard_unlock t;
      contended_entry t ~since ~deadline_ns
    end
    else if Ops.test_and_set t.word then begin
      emit t "acquire";
      guard_unlock t;
      acquired t ~since;
      true
    end
    else begin
      let flag = mailbox t in
      let w =
        {
          w_tid = Ops.self ();
          w_ticket = t.next_ticket;
          w_flag = flag;
          w_sleeping = false;
          w_kick = 0;
        }
      in
      t.next_ticket <- t.next_ticket + 1;
      Ops.write flag 0;
      t.queue <- t.queue @ [ w ];
      emit t "register";
      guard_unlock t;
      wait_loop t w ~since ~deadline_ns
    end
  end

let lock t =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_lock t.lock_stats;
  if
    Ops.lock_probe ~pre_instrs:(profile t).Lock_costs.lock_overhead_instrs t.word
  then begin
    emit t "acquire";
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t
  end
  else ignore (contended t ~deadline_ns:(-1))

let try_lock t =
  Lock_stats.on_lock t.lock_stats;
  let got =
    Ops.lock_probe ~pre_instrs:(profile t).Lock_costs.lock_overhead_instrs t.word
  in
  if got then begin
    emit t "acquire";
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t
  end;
  got

let lock_timeout t ~deadline_ns =
  if Ops.annotations_enabled () then
    Ops.annotate (Ops.A_lock_request { lock = t.word; lock_name = t.lock_name });
  Lock_stats.on_lock t.lock_stats;
  if
    Ops.lock_probe ~pre_instrs:(profile t).Lock_costs.lock_overhead_instrs t.word
  then begin
    emit t "acquire";
    Lock_stats.on_acquired t.lock_stats ~wait_ns:0;
    note_acquired t;
    true
  end
  else contended t ~deadline_ns

let set_impl t target =
  lock t;
  match swap_to t target with
  | ok ->
    unlock t;
    ok
  | exception e ->
    unlock t;
    raise e

(* {1 Construction} *)

let apply_impl t v =
  let target = impl_of_id v in
  if target = t.impl then true else swap_to t target

let create ?name ?trace ?(params = default_params) ?(guardrail = default_guardrail)
    ?fixed ?initial ?bug ~home () =
  let name = match name with Some n -> n | None -> "switch-lock" in
  (match (fixed, initial) with
  | Some _, Some _ ->
    invalid_arg "Switch_lock.create: ?fixed and ?initial are mutually exclusive"
  | _ -> ());
  let words = Ops.alloc ~node:home 6 in
  Ops.mark_sync_words words;
  let t =
    {
      lock_name = name;
      home_node = home;
      word = words.(0);
      guard = words.(1);
      nwait = words.(2);
      ctl = words.(3);
      ack = words.(4);
      impl_word = words.(5);
      params;
      bug;
      pinned = fixed <> None;
      impl =
        (match (fixed, initial) with
        | Some i, _ | None, Some i -> i
        | None, None -> Tas);
      epoch = 0;
      swap_seq = 0;
      next_ticket = 0;
      queue = [];
      flags = Hashtbl.create 16;
      owner = None;
      acquired_at = 0;
      hold_avg_ns = 0;
      swap_rollbacks = 0;
      abandoned_recoveries = 0;
      loop = None;
      guard_state = None;
      probe = None;
      lock_stats = Lock_stats.create ?trace name;
    }
  in
  if impl_id t.impl <> 0 then Ops.write t.impl_word (impl_id t.impl);
  (match (fixed, initial) with
  | Some _, _ | _, Some _ ->
    (* pinned, or explicitly driven via [swap_to]: no feedback loop *)
    ()
  | None, None ->
    let sensor =
      Sensor.make ~name:(name ^ ".contention-score") ~period:params.sample_period
        ~overhead_instrs:40
        (fun () -> score t)
    in
    let spec = policy_spec ~params ~guardrail ~name () in
    let loop =
      Adaptive.create ~name ~kind:"lock-impl" ~spec ~home ~sensor ~policy:Policy.no_op
        ()
    in
    let guard_state = Policy.Guard.of_params guardrail in
    t.guard_state <- Some guard_state;
    let policy =
      Policy.Spec.compile spec ~guard_state
        ~read:(fun () -> impl_id t.impl)
        ~apply:(fun v -> apply_impl t v)
        ~metric:(fun (s : int) -> s)
    in
    Adaptive.set_policy loop policy;
    t.loop <- Some loop);
  t

let adaptations t = match t.loop with Some l -> Adaptive.adaptations l | None -> 0
let samples t = match t.loop with Some l -> Adaptive.samples l | None -> 0
