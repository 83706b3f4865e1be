(* 0 means "unset": resolve to the hardware recommendation. *)
let default_override = Atomic.make 0

let set_default_domains n = Atomic.set default_override (max 1 n)

let default_domains () =
  let d = Atomic.get default_override in
  if d > 0 then d else Domain.recommended_domain_count ()

(* A domain already inside a [map] must not spawn further domains:
   nested maps degrade to sequential execution, so compositions of
   parallel stages (a parallel report whose sections also parallelize
   internally) never oversubscribe the host. *)
let in_worker : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

type 'b cell = Pending | Done of 'b | Failed of exn

(* Strict left-to-right application: the [domains = 1] path must be
   indistinguishable from the pre-runner sequential code. *)
let map_seq f xs =
  let len = Array.length xs in
  if len = 0 then [||]
  else begin
    let out = Array.make len (f xs.(0)) in
    for i = 1 to len - 1 do
      out.(i) <- f xs.(i)
    done;
    out
  end

let map_array ?domains f xs =
  let len = Array.length xs in
  let requested = match domains with Some d -> max 1 d | None -> default_domains () in
  let n = if !(Domain.DLS.get in_worker) then 1 else min requested len in
  if n <= 1 then map_seq f xs
  else begin
    let results = Array.make len Pending in
    let next = Atomic.make 0 in
    (* Chunked claiming off one shared counter: coarse enough to keep
       the counter cold, fine enough that uneven task costs still
       balance across the pool. *)
    let chunk = max 1 (len / (n * 8)) in
    let work () =
      let rec loop () =
        let start = Atomic.fetch_and_add next chunk in
        if start < len then begin
          let stop = min len (start + chunk) in
          for i = start to stop - 1 do
            results.(i) <- (match f xs.(i) with v -> Done v | exception e -> Failed e)
          done;
          loop ()
        end
      in
      loop ()
    in
    let worker () =
      let flag = Domain.DLS.get in_worker in
      flag := true;
      Fun.protect ~finally:(fun () -> flag := false) work
    in
    let helpers = Array.init (n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers;
    (* Merge in input order; the first failure (by input position)
       re-raises, deterministically. *)
    Array.map
      (function Done v -> v | Failed e -> raise e | Pending -> assert false)
      results
  end

let map ?domains f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l -> Array.to_list (map_array ?domains f (Array.of_list l))
