module Vclock = Vclock
module Diag = Diag
module Trace = Trace
module Race = Race
module Lock_order = Lock_order
module Discipline = Discipline
module Causality = Causality
module Predict = Predict
module Witness = Witness
module Policy_check = Policy_check
module Proto_check = Proto_check
open Butterfly

type report = {
  diags : Diag.t list;
  events : int;
  accesses : int;
  aborted : string option;
}

let of_category c report = List.filter (fun d -> d.Diag.category = c) report.diags
let races report = of_category Diag.Race report
let cycles report = of_category Diag.Lock_order report
let lints report = of_category Diag.Discipline report
let clean report = report.diags = [] && report.aborted = None

type sanitizers = {
  race : Race.t;
  lock_order : Lock_order.t;
  discipline : Discipline.t;
  mutable n_events : int;
  mutable n_accesses : int;
}

let attach sim =
  let s =
    {
      race = Race.create ();
      lock_order = Lock_order.create ();
      discipline = Discipline.create ();
      n_events = 0;
      n_accesses = 0;
    }
  in
  Sched.add_event_hook sim (fun ev ->
      s.n_events <- s.n_events + 1;
      Race.event s.race ev;
      Discipline.event s.discipline ev);
  Sched.add_access_hook sim (fun a ->
      s.n_accesses <- s.n_accesses + 1;
      Race.access s.race a);
  Sched.add_annot_hook sim (fun an ->
      Race.annot s.race an;
      Lock_order.annot s.lock_order an;
      Discipline.annot s.discipline an);
  s

let thread_names sim =
  let name_table = Hashtbl.create 64 in
  List.iter (fun (tid, name, _) -> Hashtbl.replace name_table tid name)
    (Sched.thread_report sim);
  fun tid ->
    match Hashtbl.find_opt name_table tid with
    | Some n -> n
    | None -> Printf.sprintf "t%d" tid

let finish s sim =
  let names = thread_names sim in
  {
    diags =
      List.stable_sort Diag.compare
        (Race.finish s.race ~names
        @ Lock_order.finish s.lock_order ~names
        @ Discipline.finish s.discipline ~names);
    events = s.n_events;
    accesses = s.n_accesses;
    aborted = None;
  }

let run_checked sim program =
  let sanitizers = attach sim in
  let aborted, abort_diag =
    match Sched.run sim program with
    | () -> (None, [])
    | exception Sched.Thread_crash (thread, Locks.Lock_core.Misuse msg) ->
      (* The runtime ownership check fired: fold it into the report
         instead of crashing the analyzer (the lint pass typically
         flags the same event from the annotation stream). *)
      ( Some (Printf.sprintf "thread %s crashed: %s" thread msg),
        [
          Diag.make ~category:Diag.Discipline ~rule:"unlock-not-held"
            ~time:(Sched.final_time sim) ~thread msg;
        ] )
    | exception Sched.Deadlock msg ->
      ( Some (Printf.sprintf "deadlock: %s" msg),
        [
          Diag.make ~category:Diag.Discipline ~rule:"deadlock"
            ~time:(Sched.final_time sim) ~thread:"(machine)"
            (Printf.sprintf "the run deadlocked: %s" msg);
        ] )
  in
  let report = finish sanitizers sim in
  { report with diags = List.merge Diag.compare report.diags abort_diag; aborted }

let check cfg program = run_checked (Sched.create cfg) program

let check_trace cfg program =
  let sim = Sched.create cfg in
  let trace = Trace.attach sim in
  let report = run_checked sim program in
  (report, trace, thread_names sim)

type predicted = {
  finding : Predict.prediction;
  rule : string;
  description : string;
  witness : Witness.result option;
}

type predictive = { observed : report; predictions : predicted list }

let check_predictive ?(confirm = false) cfg program =
  let observed, trace, names = check_trace cfg program in
  let predictions =
    List.map
      (fun p ->
        {
          finding = p;
          rule = Predict.rule p;
          description = Predict.describe ~names p;
          witness =
            (if confirm then Some (Witness.confirm cfg program trace p) else None);
        })
      (Predict.run trace)
  in
  { observed; predictions }

let confirmed pv =
  List.filter
    (fun p ->
      match p.witness with
      | Some w -> w.Witness.w_status = Witness.Confirmed
      | None -> false)
    pv.predictions

let summary report =
  Printf.sprintf "%d events, %d accesses: %d race(s), %d lock-order cycle(s), %d lint(s)%s"
    report.events report.accesses
    (List.length (races report))
    (List.length (cycles report))
    (List.length (lints report))
    (match report.aborted with None -> "" | Some msg -> Printf.sprintf " [aborted: %s]" msg)

let pp ppf report =
  Format.fprintf ppf "%s@." (summary report);
  List.iter (fun d -> Format.fprintf ppf "  %s@." (Diag.to_string d)) report.diags
