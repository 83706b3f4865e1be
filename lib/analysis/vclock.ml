type t = { mutable comp : int array }

let create () = { comp = [||] }

let get t i = if i >= 0 && i < Array.length t.comp then t.comp.(i) else 0

let ensure t n =
  if n >= Array.length t.comp then begin
    let comp = Array.make (max (n + 1) (2 * Array.length t.comp)) 0 in
    Array.blit t.comp 0 comp 0 (Array.length t.comp);
    t.comp <- comp
  end

let set t i v =
  ensure t i;
  t.comp.(i) <- v

let incr t i = set t i (get t i + 1)

let snapshot t = Array.copy t.comp

(* Grow to the snapshot's exact length, not by doubling: a snapshot is
   as long as its clock's capacity, so doubling here would let two
   clocks that exchange snapshots double each other's size on every
   round trip. *)
let join t snap =
  let n = Array.length snap in
  if n > Array.length t.comp then begin
    let comp = Array.make n 0 in
    Array.blit t.comp 0 comp 0 (Array.length t.comp);
    t.comp <- comp
  end;
  Array.iteri (fun i v -> if v > t.comp.(i) then t.comp.(i) <- v) snap
