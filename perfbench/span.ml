(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, run): host nanoseconds from the
   monotonic clock around one call the benchmark makes into a layer's
   public interface. Spans nest through an explicit stack, [run] groups
   the spans of one unit of work, and nothing leaves memory until
   [write_chrome] at the end of the run. When recording is off, [span]
   is a flag test and a direct call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Flat storage, [fields] ints per span: name id, start, stop, parent
   index (-1 for a root), run id. *)
let fields = 5
let on = ref false
let names : string array ref = ref [||]
let buf = ref [||]
let count = ref 0
let stack = ref []
let run_id = ref 0

let name s =
  let n = Array.length !names in
  names := Array.append !names [| s |];
  n

let start () = on := true
let stop () = on := false
let next_run () = incr run_id

let enter id =
  let i = !count in
  if fields * (i + 1) > Array.length !buf then begin
    let bigger = Array.make (max (fields * 4096) (2 * Array.length !buf)) 0 in
    Array.blit !buf 0 bigger 0 (Array.length !buf);
    buf := bigger
  end;
  let b = !buf and o = fields * i in
  b.(o) <- id;
  b.(o + 3) <- (match !stack with p :: _ -> p | [] -> -1);
  b.(o + 4) <- !run_id;
  stack := i :: !stack;
  count := i + 1;
  b.(o + 1) <- now_ns ();
  i

let leave i =
  let t = now_ns () in
  !buf.((fields * i) + 2) <- t;
  match !stack with _ :: rest -> stack := rest | [] -> ()

let span id f =
  if not !on then f ()
  else begin
    let i = enter id in
    match f () with
    | v ->
      leave i;
      v
    | exception e ->
      leave i;
      raise e
  end

let duration i = !buf.((fields * i) + 2) - !buf.((fields * i) + 1)

(* Per name: (calls, total ns, self ns), where self time is a span's
   duration minus the durations of its direct children; over the spans
   recorded since [!count] read [from] (all of them by default). *)
let summary ?(from = 0) () =
  let n = Array.length !names in
  let calls = Array.make n 0 and total = Array.make n 0 and self = Array.make n 0 in
  let child = Array.make !count 0 in
  for i = from to !count - 1 do
    let p = !buf.((fields * i) + 3) in
    if p >= 0 then child.(p) <- child.(p) + duration i
  done;
  for i = from to !count - 1 do
    let id = !buf.(fields * i) in
    calls.(id) <- calls.(id) + 1;
    total.(id) <- total.(id) + duration i;
    self.(id) <- self.(id) + duration i - child.(i)
  done;
  List.init n (fun id -> (!names.(id), calls.(id), total.(id), self.(id)))

(* Chrome trace-event JSON ("X" complete events, microsecond floats),
   loadable in chrome://tracing or Perfetto. *)
let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      let t0 = if !count > 0 then !buf.(1) else 0 in
      for i = 0 to !count - 1 do
        let o = fields * i in
        Printf.fprintf oc
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}}"
          (if i = 0 then "" else ",")
          !names.(!buf.(o))
          (float_of_int (!buf.(o + 1) - t0) /. 1e3)
          (float_of_int (duration i) /. 1e3)
          i !buf.(o + 3) !buf.(o + 4)
      done;
      output_string oc "\n]}\n")
