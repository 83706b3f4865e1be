(* The repository benchmark.

   Four closed-loop workloads, one caller, on one domain:

   - soak-long     one long Workloads.Soak run per unit (Sched dispatch,
                   batched memory charging, fused probes);
   - sweep-short   a fleet cross product of small configs through
                   Fleet.Catalogue.run_config, each result made into a
                   Fleet.Store record as `repro run` does, plus one
                   regeneration of Tables 4-8 per pass;
   - chaos-traced  the shipped Analysis_suite scenarios x seeds through
                   Chaos.run_scenario: a fault plan, watchdog and trace
                   recorder, then the three sanitizer passes;
   - proto-check   Analysis.Proto_check.check of the quiescence-swap
                   model, properties mutex and quiesce.

   A pass is the workload's fixed set of units for one seed; passes
   repeat until --seconds of host time have gone by. Every unit's
   outcome is checked against the unit's own invariants and against
   perfbench/reference.json, which holds the units that do not depend
   on the seed, checked at every seed, and the other units at seeds 0
   and 5. A pass must produce exactly the reference's units; at other
   seeds the seed-dependent units are checked against the first pass
   and their number against seed 0. Any mismatch, missing or extra unit
   counts in fail_rate and makes the command exit 1.

   With --trace 1 untraced passes alternate with passes that record
   spans around the benchmark's calls into each layer (see span.ml);
   per-layer metrics come from those spans and the tracing overhead is
   the difference between the two kinds of pass.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module Sched = Butterfly.Sched
module Catalogue = Fleet.Catalogue
module Store = Fleet.Store
module Jsonv = Fleet.Jsonv

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)

let workload = ref ""
let seed = ref 0
let seconds = ref 25.0
let trace = ref 0
let smoke = ref false
let perturb = ref false
let reference_path = ref "perfbench/reference.json"
let out_dir = ref "_perfbench/out"
let write_reference = ref ""
let declarations = ref false

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  soak-long|sweep-short|chaos-traced|proto-check");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S  host seconds to measure (default 25)");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer traced run");
      ("--smoke", Arg.Set smoke, "  smoke-sized units (self-test)");
      ( "--perturb-reference",
        Arg.Set perturb,
        "  corrupt the expected digest of the first unit (self-test)" );
      ("--reference", Arg.Set_string reference_path, "FILE  expected outcome digests");
      ("--out-dir", Arg.Set_string out_dir, "DIR  run record and span dump directory");
      ( "--write-reference",
        Arg.Set_string write_reference,
        "FILE  record the digests of seeds 0 and 5 (full and smoke) and exit" );
      ("--declarations", Arg.Set declarations, "  print the metric declarations and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

let reference_seeds = [ 0; 5 ]

(* ------------------------------------------------------------------ *)
(* Metric declarations                                                *)

type decl = {
  m_name : string;
  m_unit : string;
  m_better : string;  (** "higher" or "lower" *)
  m_clock : string;  (** "host" or "virtual" (or "none" for pure counts) *)
  m_exact : bool;  (** repeats exactly for a given seed *)
  m_workloads : string list;  (** workloads on which the layer does the work *)
  m_bound : float option;  (** allowed worsening vs the parent's median (end-to-end) *)
  m_doc : string;
}

let all_workloads = [ "soak-long"; "sweep-short"; "chaos-traced"; "proto-check" ]
let sims = [ "soak-long"; "sweep-short"; "chaos-traced" ]

let d ?(exact = false) ?(clock = "host") ?bound name unit_ better workloads doc =
  {
    m_name = name;
    m_unit = unit_;
    m_better = better;
    m_clock = clock;
    m_exact = exact;
    m_workloads = workloads;
    m_bound = bound;
    m_doc = doc;
  }

let workload_docs =
  [
    ( "soak-long",
      "Host time is almost all butterfly dispatch, batched memory charging and fused probes: \
       one machine, no store, no hooks, so set-up, fleet and analysis cost is near zero." );
    ( "sweep-short",
      "What users send (repro run SPEC): a thousand small configs, dominated by per-run fixed \
       cost (Sched.create, forks, locks, store records), plus Tables 4-8." );
    ( "chaos-traced",
      "Hook buses on, so fast paths are off: a fast-path gain must not show here, any cost it \
       adds to the instrumented path does; carries fault, watchdog and sanitizer cost." );
    ( "proto-check",
      "The only workload for core.Protocol and analysis.Proto_check, which never touch the \
       simulator: quiescence-swap model, properties mutex and quiesce." );
  ]

(* Reported in the final JSON line of an untraced run, on every workload. *)
let end_to_end =
  [
    d ~bound:0.25 "events_per_s" "1/s" "higher" all_workloads
      "simulated events per host second (proto-check: explored transitions)";
    d ~bound:0.25 "runs_per_s" "1/s" "higher" all_workloads
      "units completed per host second: soak runs, configs, chaos runs, property checks";
    d ~bound:0.25 "setup_s" "s" "lower" all_workloads
      "host s to build the pass before the first timed unit (fast decile of batches over the window)";
    d ~bound:0.25 "heap_peak_mb" "MB" "lower" all_workloads "peak OCaml major heap after set-up and the first 3 passes";
  ]

(* Printed on the human-readable lines only: zero or undefined on some
   workloads, so not in the final JSON object. *)
let end_to_end_extra =
  [
    d "states_per_s" "1/s" "higher" [ "proto-check" ] "explored model states per host second";
    d ~exact:true ~clock:"virtual" "virtual_s" "s" "lower" sims
      "virtual completion time summed over one pass";
    d ~exact:true ~clock:"none" "paper_err_pct" "%" "lower" [ "sweep-short" ]
      "max relative error of Tables 4-8 against the paper";
    d ~exact:true ~clock:"none" "fail_rate" "ratio" "lower" all_workloads
      "units whose outcome differs from the reference / units attempted";
  ]

(* Reported in the final JSON line of a traced run, on every workload;
   0 where the layer does no work. *)
let per_layer =
  [
    d "butterfly.run_ns_per_event" "ns" "lower" sims "host ns in Sched.run/run_outcome / events";
    d "butterfly.minor_words_per_event" "words" "lower" sims
      "minor-heap words allocated during Sched.run / events";
    d "butterfly.create_us" "us" "lower" sims "host us per Sched.create";
    d ~exact:true ~clock:"none" "butterfly.events" "count" "lower" sims
      "simulated events in one pass";
    d ~exact:true ~clock:"none" "butterfly.switches" "count" "lower" sims
      "sched.switches in one pass";
    d ~exact:true ~clock:"none" "butterfly.blocks" "count" "lower" sims
      "sched.blocks in one pass";
    d ~exact:true ~clock:"none" "butterfly.mem_ops" "count" "lower" sims
      "mem.read + mem.write + mem.atomic in one pass";
    d ~exact:true ~clock:"virtual" "butterfly.virtual_s" "s_virtual" "lower" sims
      "virtual completion time summed over one pass";
    d ~exact:true ~clock:"none" "locks.contended" "count" "lower" [ "sweep-short" ]
      "contended acquisitions in one pass (catalogue metrics)";
    d ~exact:true ~clock:"none" "locks.spin_probes" "count" "lower" [ "sweep-short" ]
      "spin probes in one pass (catalogue metrics)";
    d ~exact:true ~clock:"none" "locks.swaps" "count" "lower" [ "sweep-short" ]
      "switch-lock implementation swaps in one pass";
    d ~exact:true ~clock:"virtual" "locks.mean_wait_us" "us_virtual" "lower" [ "sweep-short" ]
      "mean lock wait over the pass's configs";
    d ~exact:true ~clock:"none" "core.adaptations" "count" "lower"
      [ "sweep-short"; "chaos-traced" ] "reconfigurations applied in one pass";
    d "fleet.run_config_us" "us" "lower" [ "sweep-short" ] "host us per Catalogue.run_config";
    d "fleet.record_us" "us" "lower" [ "sweep-short" ]
      "host us per Store.make + serialise + append";
    d "fleet.expand_ms" "ms" "lower" [ "sweep-short" ]
      "host ms for Spec parse + expand + Catalogue.validate";
    d "experiments.tables_ms" "ms" "lower" [ "sweep-short" ] "host ms to regenerate Tables 4-8";
    d ~exact:true ~clock:"none" "experiments.paper_err_pct" "%" "lower" [ "sweep-short" ]
      "max relative error of Tables 4-8 against the paper";
    d "faults.install_us" "us" "lower" [ "chaos-traced" ] "host us per Injector.install";
    d ~exact:true ~clock:"none" "faults.injected" "count" "lower" [ "chaos-traced" ]
      "faults fired in one pass";
    d ~exact:true ~clock:"none" "analysis.trace_entries" "count" "lower" [ "chaos-traced" ]
      "trace entries recorded per run";
    d "analysis.sanitize_ns_per_entry" "ns" "lower" [ "chaos-traced" ]
      "host ns in Race.run + Lock_order.run + Discipline.run / entries";
    d ~exact:true ~clock:"none" "analysis.proto_states" "count" "lower" [ "proto-check" ]
      "states explored per property";
    d ~exact:true ~clock:"none" "analysis.proto_edges" "count" "lower" [ "proto-check" ]
      "transitions explored per property";
    d "analysis.proto_ns_per_edge" "ns" "lower" [ "proto-check" ]
      "host ns in Proto_check.check / edges";
    d "host.calibration_ms" "ms" "lower" all_workloads
      "10th-percentile time of the calibration loop: the host's speed during the run";
    d "runtime.major_collections" "count" "lower" all_workloads
      "major GC cycles per traced pass";
    d "trace.overhead_pct" "%" "lower" all_workloads
      "median over pairs of a traced pass's time over the untraced pass just before it, minus 1";
  ]

let decl_json m =
  Jsonv.Obj
    [
      ("name", Jsonv.Str m.m_name);
      ("unit", Jsonv.Str m.m_unit);
      ("better", Jsonv.Str m.m_better);
      ("clock", Jsonv.Str m.m_clock);
      ("exact", Jsonv.Bool m.m_exact);
      ("workloads", Jsonv.Arr (List.map (fun w -> Jsonv.Str w) m.m_workloads));
      ("bound", match m.m_bound with Some b -> Jsonv.Num b | None -> Jsonv.Null);
      ("doc", Jsonv.Str m.m_doc);
    ]

(* ------------------------------------------------------------------ *)
(* Units, passes and the layer tallies of the traced run              *)

type outcome = {
  key : string;  (** the unit's identity within a pass *)
  digest : string;  (** what the reference records for it *)
  seed_free : bool;  (** the same for every seed: checked against seed 0 *)
  broken : string option;  (** [Some why] when the unit broke its own invariant *)
}

type pass = {
  work_ns : int;  (** host ns of the pass's timed work *)
  outcomes : outcome list;
  runs : int;
  events : int;
  states : int;
  virtual_ns : int;
  counts : (string * float) list;  (** exact per-layer counts of the pass *)
}

type session = {
  run_pass : unit -> pass;  (** traced passes (spans on) may take another path *)
  inner : unit -> (string * float) list;
      (** traced run only: time the calls a public function hides,
          on the same inputs; returns exact counts to report *)
  note : string option;  (** traced run only: how its spans differ from the untraced passes *)
}

let sp_unit = Span.name "unit"
let sp_setup = Span.name "setup"
let sp_create = Span.name "butterfly.create"
let sp_run = Span.name "butterfly.run"
let sp_run_config = Span.name "fleet.run_config"
let sp_make = Span.name "fleet.record"
let sp_append = Span.name "fleet.append"
let sp_expand = Span.name "fleet.expand"
let sp_tables = Span.name "experiments.tables"
let sp_install = Span.name "faults.install"
let sp_attach = Span.name "analysis.trace_attach"
let sp_sanitize = Span.name "analysis.sanitize"
let sp_proto = Span.name "analysis.proto_check"

(* Minor words and events of the spanned Sched.run calls. *)
let run_words = ref 0.
let run_events = ref 0

let traced_run sim f =
  if not !Span.on then f ()
  else begin
    let w0 = Gc.minor_words () in
    let r = Span.span sp_run f in
    run_words := !run_words +. (Gc.minor_words () -. w0);
    run_events := !run_events + Sched.events_executed sim;
    r
  end

let counter_counts sim =
  let c = Sched.counters sim in
  let g = Engine.Counters.get c in
  [
    ("butterfly.switches", g "sched.switches");
    ("butterfly.blocks", g "sched.blocks");
    ("butterfly.mem_ops", g "mem.read" + g "mem.write" + g "mem.atomic");
  ]

let sum_counts lists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))))
    lists;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let ints l = List.map (fun (k, v) -> (k, float_of_int v)) l

(* ------------------------------------------------------------------ *)
(* soak-long                                                          *)

(* The Soak checksum folds every value read: each round writes
   i + round into word i, reads it back, fetch-and-adds it (returning
   the same value), and the two contenders bump the shared word
   2 * contended_iters times per round. *)
let soak_checksum (s : Workloads.Soak.spec) =
  let r = s.rounds and w = s.array_words in
  let contended = if s.contended_iters > 0 && s.processors >= 3 then 2 * s.contended_iters * r else 0 in
  (r * w * (w - 1)) + (w * r * (r + 1)) + contended

(* soak-long does not depend on the seed: any change to the round count
   moves where the major heap's growth steps land (5.9 or 7.3 MB for
   5849 or 5847 rounds), which is not a property of the code. *)
let soak_setup ~smoke ~seed:_ =
  let rounds = if smoke then 40 else 5_850 in
  let spec = Workloads.Soak.with_rounds rounds in
  let machine =
    { Butterfly.Config.default with Butterfly.Config.processors = spec.processors }
  in
  let expected = soak_checksum spec in
  let key = Printf.sprintf "soak rounds=%d" rounds in
  let run_pass () =
    let t0 = Span.now_ns () in
    let sim, acc =
      Span.span sp_unit (fun () ->
          let sim = Span.span sp_create (fun () -> Sched.create machine) in
          let acc = ref 0 in
          traced_run sim (fun () -> Sched.run sim (Workloads.Soak.scenario spec ~acc));
          (sim, acc))
    in
    let work_ns = Span.now_ns () - t0 in
    let events = Sched.events_executed sim and final_ns = Sched.final_time sim in
    {
      work_ns;
      outcomes =
        [
          {
            key;
            digest = Printf.sprintf "events=%d final_ns=%d checksum=%d" events final_ns !acc;
            seed_free = true;
            broken =
              (if !acc = expected then None
               else Some (Printf.sprintf "checksum %d, expected %d" !acc expected));
          };
        ];
      runs = 1;
      events;
      states = 0;
      virtual_ns = final_ns;
      counts = ints (("butterfly.events", events) :: counter_counts sim);
    }
  in
  { run_pass; inner = (fun () -> []); note = None }

(* ------------------------------------------------------------------ *)
(* sweep-short                                                        *)

(* The seed moves the critical-section and think lengths by a few
   hundred ns (csweep's own seed axis changes no outcome) and picks the
   objects workload's seeds, so every seed is a different sweep of the
   same shape and cost. *)
let sweep_spec_text ~smoke ~seed =
  let list l = String.concat "," (List.map string_of_int l) in
  let cs = List.map (fun c -> c + (100 * (seed mod 7))) [ 5_000; 10_000; 15_000; 20_000 ] in
  let think = List.map (fun t -> t + (100 * (seed mod 5))) [ 10_000; 30_000 ] in
  let objects_seeds k = List.init k (fun i -> (seed * k) + i + 1) in
  if smoke then
    Printf.sprintf
      {|[{"id":"bench-csweep","driver":"csweep","axes":{"lock":["spin","adaptive"],"processors":[2],"iterations":[1],"cs_ns":[%s],"threads_per_proc":[1]}},
         {"id":"bench-switch","driver":"switch-lock","axes":{"variant":["tas","adaptive"],"workers":[2],"iterations":[1]}},
         {"id":"bench-objects","driver":"objects","axes":{"workers":[2],"rounds":[1],"items_each":[2],"seed":[%s]}}]|}
      (list [ List.hd cs ]) (list (objects_seeds 1))
  else
    Printf.sprintf
      {|[{"id":"bench-csweep","driver":"csweep","axes":{"lock":["spin","backoff","blocking","combined1","combined10","combined50","advisory","adaptive"],"processors":[2,3,4,6],"iterations":[1,2,3,4],"cs_ns":[%s],"think_ns":[%s],"threads_per_proc":[1]}},
         {"id":"bench-switch","driver":"switch-lock","axes":{"variant":["tas","mcs","blocking","adaptive"],"workers":[2,4],"iterations":[1,2]}},
         {"id":"bench-objects","driver":"objects","axes":{"workers":[2,3],"rounds":[1],"items_each":[2,4],"seed":[%s]}}]|}
      (list cs) (list think) (list (objects_seeds 4))

let paper_err_pct tables =
  List.fold_left
    (fun acc (rows, paper) ->
      List.fold_left
        (fun acc (row : Experiments.Lock_tables.row) ->
          match
            List.find_opt
              (fun (p : Experiments.Paper.lock_op_row) -> p.lock_name = row.op)
              paper
          with
          | None -> acc
          | Some p ->
            let err measured reference =
              if Float.is_nan measured || Float.is_nan reference then 0.
              else 100. *. Float.abs (measured -. reference) /. reference
            in
            Float.max acc (Float.max (err row.local_us p.local_us) (err row.remote_us p.remote_us)))
        acc rows)
    0. tables

let regenerate_tables () =
  let open Experiments in
  [
    ("table4", Lock_tables.table4 ~domains:1 (), Paper.table4);
    ("table5", Lock_tables.table5 ~domains:1 (), Paper.table5);
    ("table6", Lock_tables.table6 ~domains:1 (), Paper.table6);
    ("table7", Lock_tables.table7 (), Paper.table7);
    ("table8", Lock_tables.table8 (), Paper.table8);
  ]

(* The store records go to a file under the work directory, which the
   runner gives a .git/HEAD so that Store.make's per-record revision
   lookup behaves as it does for `repro run` inside a checkout. *)
let store_path () = Filename.concat (Sys.getcwd ()) "bench-store.jsonl"

(* The csweep driver's lock menu (Fleet.Catalogue keeps it private). *)
let csweep_locks =
  [
    ("spin", Locks.Lock.Spin);
    ("backoff", Locks.Lock.Backoff);
    ("blocking", Locks.Lock.Blocking);
    ("combined1", Locks.Lock.Combined 1);
    ("combined10", Locks.Lock.Combined 10);
    ("combined50", Locks.Lock.Combined 50);
    ("advisory", Locks.Lock.Advisory);
    ("adaptive", Locks.Lock.adaptive_default);
  ]

let metric name metrics = Option.value ~default:0. (List.assoc_opt name metrics)

let sweep_setup ~smoke ~seed =
  let specs =
    Span.span sp_expand (fun () ->
        match Fleet.Spec.of_string (sweep_spec_text ~smoke ~seed) with
        | Error e -> failwith ("sweep spec: " ^ e)
        | Ok specs ->
          List.map
            (fun s ->
              (match Catalogue.validate s with Ok () -> () | Error e -> failwith e);
              let driver = Option.get (Catalogue.find s.Fleet.Spec.sp_driver) in
              (s.Fleet.Spec.sp_id, driver, Fleet.Spec.expand s))
            specs)
  in
  let path = store_path () in
  let run_pass () =
    if Sys.file_exists path then Sys.remove path;
    let e0 = Sched.domain_events_total () in
    let t0 = Span.now_ns () in
    let results =
      List.map
        (fun (spec_id, (driver : Catalogue.driver), configs) ->
          let outcomes =
            List.map
              (fun config ->
                Span.next_run ();
                Span.span sp_unit (fun () ->
                    let metrics, payload =
                      Span.span sp_run_config (fun () -> Catalogue.run_config driver config)
                    in
                    let record =
                      Span.span sp_make (fun () ->
                          Store.make ~spec:spec_id ~driver:driver.d_name ~kind:driver.d_kind
                            ~config ~metrics ~payload ())
                    in
                    (driver.d_name, record)))
              configs
          in
          Span.span sp_append (fun () -> Store.append ~path (List.map snd outcomes));
          outcomes)
        specs
      |> List.concat
    in
    let tables = Span.span sp_tables regenerate_tables in
    let work_ns = Span.now_ns () - t0 in
    let events = Sched.domain_events_total () - e0 in
    let config_outcomes =
      List.map
        (fun (_, (r : Store.record)) ->
          {
            key = r.r_driver ^ "/" ^ r.r_hash;
            digest =
              Digest.to_hex
                (Digest.string
                   (String.concat ";"
                      (List.map (fun (k, v) -> k ^ "=" ^ Jsonv.num_str v) r.r_metrics)));
            seed_free = false;
            broken =
              (match Store.of_line (Store.to_line r) with
              | Ok back when Store.to_line back = Store.to_line r -> None
              | Ok _ -> Some "store record does not round-trip"
              | Error e -> Some ("store record rejected: " ^ e));
          })
        results
    in
    let table_outcomes =
      List.concat_map
        (fun (name, rows, _) ->
          List.map
            (fun (row : Experiments.Lock_tables.row) ->
              {
                key = name ^ "/" ^ row.op;
                digest = Printf.sprintf "%.17g/%.17g" row.local_us row.remote_us;
                seed_free = true;
                broken = None;
              })
            rows)
        tables
    in
    let all_metrics = List.map (fun (_, (r : Store.record)) -> r.r_metrics) results in
    let sum name = List.fold_left (fun acc m -> acc +. metric name m) 0. all_metrics in
    let waits = List.filter (List.mem_assoc "mean_wait_us") all_metrics in
    let mean_wait =
      List.fold_left (fun acc m -> acc +. metric "mean_wait_us" m) 0. waits
      /. float_of_int (max 1 (List.length waits))
    in
    let err = paper_err_pct (List.map (fun (_, rows, paper) -> (rows, paper)) tables) in
    {
      work_ns;
      outcomes = config_outcomes @ table_outcomes;
      runs = List.length results;
      events;
      states = 0;
      virtual_ns = int_of_float (sum "total_ns");
      counts =
        [
          ("butterfly.events", float_of_int events);
          ("locks.contended", sum "contended");
          ("locks.spin_probes", sum "spin_probes");
          ("locks.swaps", sum "swaps");
          ("locks.mean_wait_us", mean_wait);
          ("core.adaptations", sum "adaptations");
          ("experiments.paper_err_pct", err);
        ];
    }
  in
  (* Catalogue.run_config hides Sched.create and Sched.run: the traced
     run times them separately on the csweep configs of one pass, with
     the machine and spec the csweep driver builds. *)
  let inner () =
    let csweep =
      List.concat_map
        (fun (_, (driver : Catalogue.driver), configs) ->
          if driver.d_name = "csweep" then configs else [])
        specs
    in
    let default name =
      let driver = Option.get (Catalogue.find "csweep") in
      (List.find (fun a -> a.Catalogue.ax_name = name) driver.d_axes).ax_default
    in
    sum_counts
      (List.map
         (fun config ->
           let get name =
             int_of_string
               (match List.assoc_opt name config with Some v -> v | None -> default name)
           in
           let processors = get "processors" and ratio = get "latency_ratio" in
           let base = Butterfly.Config.with_processors processors Butterfly.Config.default in
           let machine =
             {
               base with
               Butterfly.Config.remote_read_ns = base.local_read_ns * ratio;
               remote_write_ns = base.local_write_ns * ratio;
               seed = get "seed";
             }
           in
           let lock =
             match List.assoc_opt "lock" config with Some v -> v | None -> "spin"
           in
           let spec =
             {
               Workloads.Csweep.processors;
               threads_per_proc = get "threads_per_proc";
               iterations = get "iterations";
               cs_ns = get "cs_ns";
               think_ns = get "think_ns";
               lock_kind = List.assoc lock csweep_locks;
               seed = get "seed";
             }
           in
           Span.next_run ();
           let sim = Span.span sp_create (fun () -> Sched.create machine) in
           traced_run sim (fun () -> Sched.run sim (Workloads.Csweep.scenario spec));
           ints (counter_counts sim))
         csweep)
  in
  let note =
    "sweep-short butterfly.* figures time Sched.create and Sched.run again, separately, \
     on the pass's csweep configs (Catalogue.run_config hides both)"
  in
  { run_pass; inner; note = Some note }

(* ------------------------------------------------------------------ *)
(* chaos-traced                                                       *)

let contains_sub s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let chaos_digest ~passed ~outcome ~final_ns ~events ~injected ~diags =
  Printf.sprintf "passed=%b outcome=%s final_ns=%d events=%d diags=%d injected=[%s]" passed
    outcome final_ns events diags (String.concat "; " injected)

(* Chaos's event budget for a run (its default_max_events). *)
let chaos_max_events = 2_000_000

type chaos_run = {
  digest : string;
  failures : string list;  (** harness invariants broken *)
  final_ns : int;
  run_counts : (string * int) list;  (** traced runs only *)
}

(* An untraced run is Chaos.run_scenario, what `repro chaos` runs: plan
   generation, machine, trace recorder, fault injector, watchdog,
   run_outcome, the Race, Lock_order and Discipline passes, invariants
   and the result record. *)
let chaos_library (scenario : Analysis_suite.scenario) ~run_seed ~plan_text =
  let r = Chaos.run_scenario ~scenario ~seed:run_seed () in
  let record_ok =
    r.scenario = scenario.scenario_name && r.seed = run_seed && r.plan = plan_text
  in
  {
    digest =
      chaos_digest ~passed:(Chaos.passed r) ~outcome:r.outcome ~final_ns:r.final_time_ns
        ~events:r.events ~injected:r.injected ~diags:(List.length r.sanitizer_diags);
    failures =
      (r.invariant_failures @ if record_ok then [] else [ "result record names another run" ]);
    final_ns = r.final_time_ns;
    run_counts = [];
  }

(* A traced run makes the public calls of Chaos.run_scenario one by
   one, on the plan it derives, so that each gets a span; its outcome
   must match the reference like an untraced run's. *)
let chaos_composed (scenario : Analysis_suite.scenario) ~plan =
  let config =
    {
      scenario.config with
      Butterfly.Config.max_events = min scenario.config.max_events chaos_max_events;
    }
  in
  let sim = Span.span sp_create (fun () -> Sched.create config) in
  Sched.set_record_schedule sim true;
  let trace = Span.span sp_attach (fun () -> Analysis.Trace.attach sim) in
  let injector = Span.span sp_install (fun () -> Faults.Injector.install sim ~plan) in
  let wrapped () =
    let wd = Monitoring.Watchdog.start ~sched:sim () in
    (try scenario.program ()
     with e ->
       (try Monitoring.Watchdog.stop wd with _ -> ());
       raise e);
    Monitoring.Watchdog.stop wd
  in
  let outcome = traced_run sim (fun () -> Sched.run_outcome ~main_name:"main" sim wrapped) in
  let diags =
    Span.span sp_sanitize (fun () ->
        let table = Hashtbl.create 64 in
        List.iter (fun (tid, name, _) -> Hashtbl.replace table tid name) (Sched.thread_report sim);
        let names tid =
          match Hashtbl.find_opt table tid with Some n -> n | None -> Printf.sprintf "t%d" tid
        in
        Analysis.Race.run ~names trace
        @ Analysis.Lock_order.run ~names trace
        @ Analysis.Discipline.run ~names trace)
  in
  let injected = Faults.Injector.applied injector in
  let kill_fired =
    List.exists
      (fun line -> contains_sub line " kill tid=" && not (contains_sub line "(no-op"))
      injected
  in
  let failures =
    List.concat
      [
        (match outcome with
        | Sched.Aborted { diagnostics = ""; _ } -> [ "aborted run carries no diagnostics" ]
        | _ -> []);
        (match outcome with
        | Sched.Completed when Sched.abort_requested sim <> None ->
          [ "completed with a dangling abort request" ]
        | _ -> []);
        (if
           outcome = Sched.Completed && (not kill_fired)
           && List.exists (fun d -> d.Analysis.Diag.rule = "lock-held-at-exit") diags
         then [ "lock held at exit on a kill-free completed run" ]
         else []);
      ]
  in
  {
    digest =
      chaos_digest ~passed:(failures = [])
        ~outcome:(match outcome with Sched.Completed -> "completed" | _ -> "aborted")
        ~final_ns:(Sched.final_time sim) ~events:(Analysis.Trace.events trace) ~injected
        ~diags:(List.length diags);
    failures;
    final_ns = Sched.final_time sim;
    run_counts =
      counter_counts sim
      @ [
          ("butterfly.events", Sched.events_executed sim);
          ("faults.injected", List.length injected);
          ("core.adaptations", List.length (Analysis.Trace.adaptations trace));
          ("analysis.entries_total", Analysis.Trace.length trace);
        ];
  }

(* The runs of `repro chaos --quick` (chaos seeds 1 and 2 for every
   shipped scenario), in an order drawn from the workload seed. The set
   itself does not follow the seed: host cost over plans is heavy-tailed
   (one plan can make the sanitizers work 100x longer than the next), so
   a seed-drawn set would measure the draw rather than the code. *)
let chaos_setup ~smoke ~seed =
  let scenarios = Analysis_suite.shipped () in
  let scenarios =
    if smoke then List.filteri (fun i _ -> i < 2) scenarios else scenarios
  in
  let chaos_seeds = if smoke then [ 1 ] else [ 1; 2 ] in
  (* Plan seeds are derived exactly as Chaos.run_scenario derives them. *)
  let jobs =
    List.concat_map
      (fun (s : Analysis_suite.scenario) ->
        List.map
          (fun run_seed ->
            let plan_seed = run_seed + (1_000_003 * Hashtbl.hash s.scenario_name) in
            let plan =
              Faults.Fault_plan.generate ~seed:plan_seed ~cfg:s.config ~horizon_ns:3_000_000 ()
            in
            (s, run_seed, plan, Faults.Fault_plan.to_string plan))
          chaos_seeds)
      scenarios
  in
  let jobs =
    let a = Array.of_list jobs and rng = Random.State.make [| seed |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let run_pass () =
    let e0 = Sched.domain_events_total () in
    let t0 = Span.now_ns () in
    (* Each run is reduced to its outcome and counts as soon as it ends,
       so a pass holds one machine and one trace at a time. *)
    let runs =
      List.map
        (fun ((s : Analysis_suite.scenario), run_seed, plan, plan_text) ->
          Span.next_run ();
          let r =
            Span.span sp_unit (fun () ->
                if !Span.on then chaos_composed s ~plan else chaos_library s ~run_seed ~plan_text)
          in
          ( {
              key = Printf.sprintf "%s/seed=%d" s.scenario_name run_seed;
              digest = r.digest;
              seed_free = true;
              broken = (if r.failures = [] then None else Some (String.concat "; " r.failures));
            },
            r ))
        jobs
    in
    let work_ns = Span.now_ns () - t0 in
    let n = List.length runs in
    let counts = sum_counts (List.map (fun (_, r) -> ints r.run_counts) runs) in
    {
      work_ns;
      outcomes = List.map fst runs;
      runs = n;
      events = Sched.domain_events_total () - e0;
      states = 0;
      virtual_ns = List.fold_left (fun acc (_, r) -> acc + r.final_ns) 0 runs;
      counts =
        (match List.assoc_opt "analysis.entries_total" counts with
        | Some total -> ("analysis.trace_entries", total /. float_of_int n) :: counts
        | None -> counts);
    }
  in
  let note =
    "chaos-traced traced passes make the calls of Chaos.run_scenario one by one \
     (Sched.create, Trace.attach, Injector.install, run_outcome, the sanitizers) to time \
     each; untraced passes call Chaos.run_scenario"
  in
  { run_pass; inner = (fun () -> []); note = Some note }

(* ------------------------------------------------------------------ *)
(* proto-check                                                        *)

let proto_setup ~smoke ~seed:_ =
  let model, props =
    if smoke then Locks.Proto_models.quiescence ~waiters:[ Locks.Proto_models.Wsleep ] ()
    else
      List.find
        (fun (m, _) -> Adaptive_core.Protocol.name m = "quiescence-swap")
        (Locks.Proto_models.shipped ())
  in
  let props =
    List.filter
      (fun p -> List.mem (Adaptive_core.Protocol.property_name p) [ "mutex"; "quiesce" ])
      props
  in
  let run_pass () =
    let t0 = Span.now_ns () in
    let reports =
      List.map
        (fun p ->
          Span.next_run ();
          Span.span sp_unit (fun () ->
              Span.span sp_proto (fun () -> Analysis.Proto_check.check model p)))
        props
    in
    let work_ns = Span.now_ns () - t0 in
    let outcomes =
      List.map
        (fun (r : Analysis.Proto_check.report) ->
          let verdict =
            match r.r_verdict with
            | Analysis.Proto_check.Holds -> "holds"
            | Violated _ -> "violated"
            | Out_of_bounds -> "out-of-bounds"
          in
          {
            key = r.r_model ^ "/" ^ r.r_property;
            digest = Printf.sprintf "verdict=%s states=%d edges=%d" verdict r.r_states r.r_edges;
            seed_free = true;
            broken = (if verdict = "holds" then None else Some ("verdict " ^ verdict));
          })
        reports
    in
    let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
    let n = List.length reports in
    {
      work_ns;
      outcomes;
      runs = n;
      events = total (fun r -> r.Analysis.Proto_check.r_edges);
      states = total (fun r -> r.Analysis.Proto_check.r_states);
      virtual_ns = 0;
      counts =
        [
          ("analysis.proto_states", float_of_int (total (fun r -> r.r_states) / max 1 n));
          ("analysis.proto_edges", float_of_int (total (fun r -> r.r_edges) / max 1 n));
          ("analysis.edges_total", float_of_int (total (fun r -> r.r_edges)));
        ];
    }
  in
  { run_pass; inner = (fun () -> []); note = None }

let setups =
  [
    ("soak-long", soak_setup);
    ("sweep-short", sweep_setup);
    ("chaos-traced", chaos_setup);
    ("proto-check", proto_setup);
  ]

(* ------------------------------------------------------------------ *)
(* Reference digests                                                  *)

(* reference.json maps "WORKLOAD/SIZE/all" to the digests of the units
   that do not depend on the seed, and "WORKLOAD/SIZE/N", for N in
   [reference_seeds], to the digests of the other units at seed N. *)
let mode () = if !smoke then "smoke" else "full"
let ref_key ~workload entry = Printf.sprintf "%s/%s/%s" workload (mode ()) entry

type refs = {
  free : (string, string) Hashtbl.t;  (** the units that do not depend on the seed *)
  at_seed : (string, string) Hashtbl.t option;  (** the others, when this seed is recorded *)
  count0 : int;  (** how many others seed 0 has *)
}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let load_reference path ~workload ~seed =
  if not (Sys.file_exists path) then die "reference %s not found" path;
  let entries =
    match Jsonv.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok json -> Option.value ~default:[] (Jsonv.obj json)
    | Error e -> die "reference %s: %s" path e
  in
  let find entry =
    let k = ref_key ~workload entry in
    match List.assoc_opt k entries with
    | None -> die "reference %s has no entry %s" path k
    | Some v ->
      let units = Hashtbl.create 64 in
      List.iter
        (fun (u, dg) -> Hashtbl.replace units u (Option.value ~default:"" (Jsonv.str dg)))
        (Option.value ~default:[] (Jsonv.obj v));
      units
  in
  {
    free = find "all";
    at_seed = (if List.mem seed reference_seeds then Some (find (string_of_int seed)) else None);
    count0 = Hashtbl.length (find "0");
  }

(* ------------------------------------------------------------------ *)
(* Measurement                                                        *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The pass time at the 10th percentile (nearest rank). Interference
   from other tenants of a shared host only ever slows a pass down, so
   the fast tail tracks the code while the median also tracks the
   neighbours: over 20 s windows of soak-long on a 2-core VM the 10th
   percentile spread 0.08 (inter-quartile range over median) where the
   median spread 0.13. *)
let fast_decile l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 10)

(* Host speed. Other tenants of a shared host slow everything down for
   minutes at a time (soak-long passes of 1.1-1.2 s instead of 0.6 s),
   longer than a run can wait out. After every pass a fixed loop of
   plain OCaml -- hashing, sorting, allocation and pointer chasing, no
   repository code -- is timed, and host times are scaled by how much
   slower than [calibration_ref_s] it ran, both at the 10th percentile.
   Over 29 windows of 20 s of soak-long, slow periods included, that
   took the spread of the pass time from 0.15 to 0.04 (measured with
   this loop at twice its size). The reference is
   the loop's time on a quiet 2-core Xeon VM, so reported figures read
   as host seconds there. *)
let calibration_ref_s = 0.004

let calibration_loop () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 10_000 do
    Hashtbl.replace h ((i * 7919) land 65535) i
  done;
  for i = 0 to 10_000 do
    acc := !acc + Option.value ~default:1 (Hashtbl.find_opt h i)
  done;
  let l = List.sort compare (List.init 10_000 (fun i -> (i * 48271) mod 65521)) in
  acc := !acc + List.fold_left ( + ) 0 l;
  let a = Array.init 4096 (fun i -> ((i * 1103515245) + 12345) land 4095) in
  let p = ref 0 in
  for _ = 1 to 100_000 do
    p := a.(!p)
  done;
  !acc + !p

let calibration = ref []

(* Run [sample] after a pass, as often as fits in [percent] of the
   pass (at least once), so that long passes still give many samples. *)
let after_pass ~percent (p : pass) sample =
  let budget = Span.now_ns () + (p.work_ns * percent / 100) in
  let rec go () =
    sample ();
    if Span.now_ns () < budget then go ()
  in
  go ()

let calibrate () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (calibration_loop ()));
  calibration := (float_of_int (Span.now_ns () - t0) /. 1e9) :: !calibration

(* Multiply host seconds measured since the last reset by this. *)
let host_scale () = calibration_ref_s /. fast_decile !calibration

let time_ns f =
  let t0 = Span.now_ns () in
  f ();
  Span.now_ns () - t0

(* Set-up time. Set-ups take from under a microsecond to a few hundred,
   so they are timed in batches, doubled until a batch takes
   [setup_batch_ns]. Like the calibration loop, batches run after every
   pass over the whole window (in 2% of each pass, at least one batch),
   so that some meet the host's quiet moments, and setup_s is their
   fast decile, scaled as the pass times are. Timed in one stretch after the window, set-ups met whatever
   mode the host was in then, and it slowed them more than it slowed
   the calibration loop (1.7x against 1.5x). *)
let setup_batch_ns = 4_000_000

(* A function that times one batch and returns host s per set-up. *)
let setup_sampler make =
  let run batch =
    time_ns (fun () ->
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (make ()))
        done)
  in
  let rec size batch =
    if batch >= 1 lsl 20 || run batch >= setup_batch_ns then batch else size (2 * batch)
  in
  let batch = size 1 in
  fun () -> float_of_int (run batch) /. float_of_int batch /. 1e9

type tally = {
  mutable attempted : int;
  mutable failed : int;
  per_key : (string, int * int) Hashtbl.t;  (** key -> attempts, failures *)
  first_seen : (string, string) Hashtbl.t;
}

let tally_unit tally key bad =
  let a, f = Option.value ~default:(0, 0) (Hashtbl.find_opt tally.per_key key) in
  tally.attempted <- tally.attempted + 1;
  match bad with
  | None -> Hashtbl.replace tally.per_key key (a + 1, f)
  | Some why ->
    if f = 0 then Printf.eprintf "perfbench: unit %s failed: %s\n%!" key why;
    tally.failed <- tally.failed + 1;
    Hashtbl.replace tally.per_key key (a + 1, f + 1)

let check_pass tally refs (p : pass) =
  let first_key = match p.outcomes with o :: _ -> o.key | [] -> "" in
  let judge o expected =
    match (o.broken, expected) with
    | Some why, _ -> Some why
    | None, None -> Some "unit not in the reference"
    | None, Some dg ->
      let dg = if !perturb && o.key = first_key then dg ^ " (perturbed)" else dg in
      if o.digest = dg then None else Some ("digest " ^ o.digest ^ ", expected " ^ dg)
  in
  (* The outcomes must be exactly the units of [table]. *)
  let against table outcomes =
    let made = Hashtbl.create 64 in
    List.iter
      (fun o ->
        Hashtbl.replace made o.key ();
        tally_unit tally o.key (judge o (Hashtbl.find_opt table o.key)))
      outcomes;
    Hashtbl.iter
      (fun key _ ->
        if not (Hashtbl.mem made key) then tally_unit tally key (Some "unit missing from the pass"))
      table
  in
  let free, other = List.partition (fun o -> o.seed_free) p.outcomes in
  against refs.free free;
  match refs.at_seed with
  | Some table -> against table other
  | None ->
    (* A seed without a reference: each unit against the first pass,
       their number against seed 0. *)
    List.iter
      (fun o ->
        let expected =
          match Hashtbl.find_opt tally.first_seen o.key with
          | Some dg -> dg
          | None ->
            Hashtbl.replace tally.first_seen o.key o.digest;
            o.digest
        in
        tally_unit tally o.key (judge o (Some expected)))
      other;
    let n = List.length other in
    for _ = 1 to abs (n - refs.count0) do
      tally_unit tally "seed-dependent units"
        (Some (Printf.sprintf "%d in the pass, %d at seed 0" n refs.count0))
    done

let pass_time passes = fast_decile (List.map (fun p -> float_of_int p.work_ns /. 1e9) passes)

(* Every pass of a run does the same work, so a rate is the pass's
   count over the fast-decile pass time, in reference host seconds. *)
let rate ~scale f passes = float_of_int (f (List.hd passes)) /. (pass_time passes *. scale)

(* What the spans of one traced stretch -- a pass, a set-up, or the
   calls a pass hides -- add up to. *)
type group = {
  spans : (string * int * int * int) list;  (** Span.summary of the stretch *)
  words : float;  (** minor words allocated in its spanned Sched.run calls *)
  run_ev : int;  (** events of those calls *)
  g_counts : (string * float) list;  (** exact counts of the stretch *)
}

let traced_group f =
  let from = !Span.count and w0 = !run_words and e0 = !run_events in
  Span.start ();
  let r = Fun.protect ~finally:Span.stop f in
  ( r,
    {
      spans = Span.summary ~from ();
      words = !run_words -. w0;
      run_ev = !run_events - e0;
      g_counts = [];
    } )

let span_total g name = List.fold_left (fun acc (n, _, t, _) -> if n = name then acc + t else acc) 0 g.spans
let span_calls g name = List.fold_left (fun acc (n, c, _, _) -> if n = name then acc + c else acc) 0 g.spans

(* Host ns per call of [name], over [unit_ns]. *)
let per_call name unit_ns g =
  let c = span_calls g name in
  if c = 0 then None else Some (float_of_int (span_total g name) /. float_of_int c /. unit_ns)

(* Host ns in [name] per unit of the stretch's count [count]. *)
let per_count name count g =
  match List.assoc_opt count g.g_counts with
  | Some c when c > 0. && span_calls g name > 0 -> Some (float_of_int (span_total g name) /. c)
  | _ -> None

let host_facts () =
  let g = Gc.get () in
  Jsonv.Obj
    [
      ("host_cores", Jsonv.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Jsonv.Str Sys.ocaml_version);
      ("domains", Jsonv.Num 1.);
      ( "gc",
        Jsonv.Obj
          [
            ("minor_heap_size", Jsonv.Num (float_of_int g.minor_heap_size));
            ("space_overhead", Jsonv.Num (float_of_int g.space_overhead));
            ("max_overhead", Jsonv.Num (float_of_int g.max_overhead));
            ("major_heap_increment", Jsonv.Num (float_of_int g.major_heap_increment));
            ("allocation_policy", Jsonv.Num (float_of_int g.allocation_policy));
            ("stack_limit", Jsonv.Num (float_of_int g.stack_limit));
          ] );
    ]

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_metric (m : decl) v =
  match v with
  | Some v -> Printf.printf "metric %-34s %s %s\n" m.m_name (Jsonv.num_str v) m.m_unit
  | None -> Printf.printf "metric %-34s n/a %s\n" m.m_name m.m_unit


let measure () =
  let workload = !workload and seed = !seed in
  let setup =
    match List.assoc_opt workload setups with
    | Some s -> s
    | None ->
      die "unknown workload %S (%s)" workload (String.concat ", " (List.map fst setups))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace is 0 or 1";
  let refs = load_reference !reference_path ~workload ~seed in
  mkdirs !out_dir;
  let tally =
    { attempted = 0; failed = 0; per_key = Hashtbl.create 64; first_seen = Hashtbl.create 64 }
  in
  let smoke = !smoke in
  let make () = setup ~smoke ~seed in
  let session = make () in
  (* Sized at its first use, after the heap peak is taken. *)
  let sample_setup = lazy (setup_sampler make) and setup_samples = ref [] in
  let window_ns = int_of_float (!seconds *. 1e9) in
  let traced = !trace = 1 in
  (* Passes until the window has gone by, at least [min_passes] of each
     kind. With --trace 1 every other pass records spans, so that both
     kinds meet the same host and the same heap. *)
  let min_passes = (if smoke then 1 else 3) * if traced then 2 else 1 in
  let untraced = ref [] and traced_passes = ref [] and majors = ref 0 in
  let heap_peak = ref 0. and n = ref 0 and t0 = Span.now_ns () in
  while !n < min_passes || Span.now_ns () - t0 < window_ns do
    let p =
      if traced && !n mod 2 = 1 then begin
        let m0 = (Gc.quick_stat ()).major_collections in
        let p, g = traced_group session.run_pass in
        majors := !majors + (Gc.quick_stat ()).major_collections - m0;
        traced_passes := (p, { g with g_counts = p.counts }) :: !traced_passes;
        p
      end
      else begin
        let p = session.run_pass () in
        untraced := p :: !untraced;
        p
      end
    in
    check_pass tally refs p;
    incr n;
    (* The heap peak after set-up and a fixed number of passes: a peak
       taken at the end would grow with the number of passes the host
       managed. Nothing whose size follows the host's speed runs
       before it. *)
    if !n = min_passes then
      heap_peak := float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6;
    if !n >= min_passes then begin
      after_pass ~percent:1 p calibrate;
      after_pass ~percent:2 p (fun () -> setup_samples := Lazy.force sample_setup () :: !setup_samples)
    end
  done;
  let untraced = List.rev !untraced and traced_passes = List.rev !traced_passes in
  let scale = host_scale () and calibration_ms = 1e3 *. fast_decile !calibration in
  let layers, ledger =
    if not traced then ([], [])
    else begin
      (* After the window: the set-up and the calls the passes hide,
         three times each, with spans on. *)
      let extra =
        List.concat
          (List.init 3 (fun _ ->
               let _, s = traced_group (fun () -> Span.span sp_setup make) in
               let counts, i = traced_group session.inner in
               [ s; { i with g_counts = counts } ]))
      in
      let passes = List.map fst traced_passes in
      (* Each traced pass against the untraced pass just before it. *)
      let paired = List.filteri (fun i _ -> i < List.length passes) untraced in
      let groups = extra @ List.map snd traced_passes in
      let ledger =
        List.filter_map
          (fun (name, calls, total, self) ->
            if calls = 0 then None
            else begin
              Printf.printf "layer %-24s calls %d total_ms %.3f self_ms %.3f\n" name calls
                (float_of_int total /. 1e6) (float_of_int self /. 1e6);
              Some
                ( name,
                  Jsonv.Obj
                    [
                      ("calls", Jsonv.Num (float_of_int calls));
                      ("total_ms", Jsonv.Num (float_of_int total /. 1e6));
                      ("self_ms", Jsonv.Num (float_of_int self /. 1e6));
                    ] )
            end)
          (Span.summary ())
      in
      (* A host figure is taken over the stretches that define it, at
         the fast decile as the pass times are, and scaled to reference
         host time as the end-to-end figures are. *)
      let host f = match List.filter_map f groups with [] -> 0. | l -> fast_decile l *. scale in
      let count name =
        Option.value ~default:0. (List.find_map (fun g -> List.assoc_opt name g.g_counts) groups)
      in
      let sum f = List.fold_left (fun acc g -> acc +. f g) 0. groups in
      let words = sum (fun g -> g.words) and run_ev = sum (fun g -> float_of_int g.run_ev) in
      Span.write_chrome
        (Filename.concat !out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed));
      ( [
          ( "butterfly.run_ns_per_event",
            host (fun g ->
                if g.run_ev = 0 then None
                else Some (float_of_int (span_total g "butterfly.run") /. float_of_int g.run_ev)) );
          ("butterfly.minor_words_per_event", if run_ev = 0. then 0. else words /. run_ev);
          ("butterfly.create_us", host (per_call "butterfly.create" 1e3));
          ("butterfly.events", count "butterfly.events");
          ("butterfly.switches", count "butterfly.switches");
          ("butterfly.blocks", count "butterfly.blocks");
          ("butterfly.mem_ops", count "butterfly.mem_ops");
          ("butterfly.virtual_s", float_of_int (List.hd passes).virtual_ns /. 1e9);
          ("locks.contended", count "locks.contended");
          ("locks.spin_probes", count "locks.spin_probes");
          ("locks.swaps", count "locks.swaps");
          ("locks.mean_wait_us", count "locks.mean_wait_us");
          ("core.adaptations", count "core.adaptations");
          ("fleet.run_config_us", host (per_call "fleet.run_config" 1e3));
          ( "fleet.record_us",
            host (fun g ->
                let c = span_calls g "fleet.record" in
                if c = 0 then None
                else
                  Some
                    (float_of_int (span_total g "fleet.record" + span_total g "fleet.append")
                    /. float_of_int c /. 1e3)) );
          ("fleet.expand_ms", host (per_call "fleet.expand" 1e6));
          ("experiments.tables_ms", host (per_call "experiments.tables" 1e6));
          ("experiments.paper_err_pct", count "experiments.paper_err_pct");
          ("faults.install_us", host (per_call "faults.install" 1e3));
          ("faults.injected", count "faults.injected");
          ("analysis.trace_entries", count "analysis.trace_entries");
          ("analysis.sanitize_ns_per_entry", host (per_count "analysis.sanitize" "analysis.entries_total"));
          ("analysis.proto_states", count "analysis.proto_states");
          ("analysis.proto_edges", count "analysis.proto_edges");
          ("analysis.proto_ns_per_edge", host (per_count "analysis.proto_check" "analysis.edges_total"));
          ("runtime.major_collections", float_of_int !majors /. float_of_int (List.length passes));
          ("host.calibration_ms", calibration_ms);
          ("trace.overhead_pct", 100. *. (median (List.map2 (fun t u -> float_of_int t.work_ns /. float_of_int u.work_ns) passes paired) -. 1.));
        ],
        ledger )
    end
  in
  let setup_s = fast_decile !setup_samples *. scale in
  let first = List.hd untraced in
  let e2e =
    [
      ("events_per_s", rate ~scale (fun p -> p.events) untraced);
      ("runs_per_s", rate ~scale (fun p -> p.runs) untraced);
      ("setup_s", setup_s);
      ("heap_peak_mb", !heap_peak);
    ]
  in
  let extra =
    [
      ( "states_per_s",
        if first.states > 0 then Some (rate ~scale (fun p -> p.states) untraced) else None );
      ( "virtual_s",
        if List.mem workload sims then Some (float_of_int first.virtual_ns /. 1e9) else None );
      ("paper_err_pct", List.assoc_opt "experiments.paper_err_pct" first.counts);
      ( "fail_rate",
        Some (float_of_int tally.failed /. float_of_int (max 1 tally.attempted)) );
    ]
  in
  let facts = host_facts () in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d smoke=%b passes=%d\n" workload
    seed !seconds !trace smoke (List.length untraced + List.length traced_passes);
  Printf.printf "host %s\n" (Jsonv.to_string facts);
  Printf.printf
    "host calibration loop %.3f ms (reference %.3f ms): host times scaled by %.4f\n"
    calibration_ms (1e3 *. calibration_ref_s) scale;
  if traced then begin
    Printf.printf
      "note: end-to-end lines come from the untraced passes; per-layer host figures are scaled \
       by %.4f, layer lines are raw host ms\n"
      scale;
    Option.iter (Printf.printf "note: %s\n") session.note
  end;
  List.iter (fun m -> print_metric m (List.assoc_opt m.m_name e2e)) end_to_end;
  List.iter (fun m -> print_metric m (List.assoc m.m_name extra)) end_to_end_extra;
  List.iter (fun m -> print_metric m (List.assoc_opt m.m_name layers)) (if traced then per_layer else []);
  Hashtbl.iter
    (fun key (a, f) ->
      if f > 0 then
        Printf.printf "unit %s fail_rate %s (%d/%d)\n" key (Jsonv.num_str (float_of_int f /. float_of_int a)) f a)
    tally.per_key;
  let reported = if traced then layers else e2e in
  let metrics_json =
    Jsonv.Obj
      (List.map
         (fun m ->
           ( m.m_name,
             Jsonv.Obj
               [
                 ("value", Jsonv.Num (List.assoc m.m_name reported));
                 ("unit", Jsonv.Str m.m_unit);
               ] ))
         (if traced then per_layer else end_to_end))
  in
  Out_channel.with_open_bin
    (Filename.concat !out_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed !trace))
    (fun oc ->
      output_string oc
        (Jsonv.to_string
           (Jsonv.Obj
              [
                ("workload", Jsonv.Str workload);
                ("seed", Jsonv.Num (float_of_int seed));
                ("smoke", Jsonv.Bool smoke);
                ("host", facts);
                ("passes", Jsonv.Num (float_of_int (List.length untraced)));
                ("end_to_end", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) e2e));
                ("host_scale", Jsonv.Num scale);
                ( "extra",
                  Jsonv.Obj
                    (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, Jsonv.Num v)) v) extra) );
                ("per_layer", Jsonv.Obj (List.map (fun (k, v) -> (k, Jsonv.Num v)) layers));
                ("ledger", Jsonv.Obj ledger);
              ]));
      output_char oc '\n');
  let correct = tally.failed = 0 in
  print_endline
    (Jsonv.to_string
       (Jsonv.Obj
          [
            ("correct", Jsonv.Bool correct);
            ("attempted", Jsonv.Num (float_of_int tally.attempted));
            ("failed", Jsonv.Num (float_of_int tally.failed));
            ("metrics", metrics_json);
          ]));
  if not correct then exit 1

(* Every workload at seeds 0 and 5, full and smoke size. The units that
   do not depend on the seed must come out the same at both seeds. *)
let record_reference path =
  let entries =
    List.concat_map
      (fun size ->
        smoke := size;
        List.concat_map
          (fun (workload, setup) ->
            let by_seed =
              List.map
                (fun seed ->
                  let p = (setup ~smoke:size ~seed).run_pass () in
                  List.iter
                    (fun o -> Option.iter (fun why -> failwith (o.key ^ ": " ^ why)) o.broken)
                    p.outcomes;
                  (seed, List.partition (fun o -> o.seed_free) p.outcomes))
                reference_seeds
            in
            let pairs l = List.sort compare (List.map (fun o -> (o.key, o.digest)) l) in
            let free = fst (List.assoc 0 by_seed) in
            List.iter
              (fun (seed, (f, _)) ->
                if pairs f <> pairs free then
                  failwith (Printf.sprintf "%s: seed-free units differ at seed %d" workload seed))
              by_seed;
            let digests l = Jsonv.Obj (List.map (fun o -> (o.key, Jsonv.Str o.digest)) l) in
            (ref_key ~workload "all", digests free)
            :: List.map
                 (fun (seed, (_, other)) -> (ref_key ~workload (string_of_int seed), digests other))
                 by_seed)
          setups)
      [ false; true ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "{\n";
      List.iteri
        (fun i (k, v) ->
          Printf.fprintf oc "%s%S: %s" (if i = 0 then "" else ",\n") k (Jsonv.to_string v))
        entries;
      output_string oc "\n}\n")

let () =
  Engine.Runner.set_default_domains 1;
  if !declarations then
    print_endline
      (Jsonv.to_string
         (Jsonv.Obj
            [
              ( "workloads",
                Jsonv.Arr
                  (List.map
                     (fun (name, why) -> Jsonv.Obj [ ("name", Jsonv.Str name); ("why", Jsonv.Str why) ])
                     workload_docs) );
              ("end_to_end", Jsonv.Arr (List.map decl_json end_to_end));
              ("end_to_end_printed_only", Jsonv.Arr (List.map decl_json end_to_end_extra));
              ("per_layer", Jsonv.Arr (List.map decl_json per_layer));
            ]))
  else if !write_reference <> "" then record_reference !write_reference
  else measure ()
