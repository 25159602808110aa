(* Hash-consing intern table: maps values to dense integer ids so that
   downstream structures (visited sets, parent arrays) can store ints
   and compare with [==]-style integer equality instead of re-hashing
   or re-comparing structural values.

   Values live in a growable arena (amortized doubling) next to their
   hashes.  The index is an open-addressing table with linear probing:
   each slot holds [id + 1], or 0 when empty, and is kept at most half
   full; a probe compares the stored hash before calling [equal], and a
   resize rehashes from the stored hashes without calling [hash] again.
   Nothing but the arena and index growth allocates.  Not thread-safe
   by itself — the work-stealing policy wraps one table per shard behind
   the shard mutex. *)

type 'a t = {
  equal : 'a -> 'a -> bool;
  hash : 'a -> int;
  mutable slots : int array;  (* power-of-two length *)
  mutable hashes : int array;  (* by id *)
  mutable arena : 'a array;  (* by id *)
  mutable len : int;
  mutable hits : int;
}

let create ?(capacity = 256) ~equal ~hash () =
  let rec pow2 n = if n >= 2 * capacity then n else pow2 (2 * n) in
  { equal; hash; slots = Array.make (pow2 16) 0; hashes = [||]; arena = [||];
    len = 0; hits = 0 }

let count t = t.len
let hits t = t.hits

let get t id =
  if id < 0 || id >= t.len then invalid_arg "Intern.get: id out of range";
  t.arena.(id)

(* The id of the value equal to [x] (hash [h]), or [-1 - slot] for the
   empty slot where it belongs. *)
let probe t x h =
  let mask = Array.length t.slots - 1 in
  let rec go i =
    let s = t.slots.(i) in
    if s = 0 then -1 - i
    else if t.hashes.(s - 1) = h && t.equal t.arena.(s - 1) x then s - 1
    else go ((i + 1) land mask)
  in
  go (h land mask)

let grow_index t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for id = 0 to t.len - 1 do
    let rec go i = if slots.(i) = 0 then slots.(i) <- id + 1 else go ((i + 1) land mask) in
    go (t.hashes.(id) land mask)
  done;
  t.slots <- slots

let grow_arena t x =
  let cap = Array.length t.arena in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let arena = Array.make ncap x and hashes = Array.make ncap 0 in
  Array.blit t.arena 0 arena 0 t.len;
  Array.blit t.hashes 0 hashes 0 t.len;
  t.arena <- arena;
  t.hashes <- hashes

let find t x =
  let id = probe t x (t.hash x land max_int) in
  if id >= 0 then Some id else None

let intern t x =
  let h = t.hash x land max_int in
  let r = probe t x h in
  if r >= 0 then begin
    t.hits <- t.hits + 1;
    (r, false)
  end
  else begin
    if t.len >= Array.length t.arena then grow_arena t x;
    let id = t.len in
    t.arena.(id) <- x;
    t.hashes.(id) <- h;
    t.slots.(-1 - r) <- id + 1;
    t.len <- id + 1;
    if 2 * t.len > Array.length t.slots then grow_index t;
    (id, true)
  end

let iter f t =
  for id = 0 to t.len - 1 do
    f t.arena.(id)
  done
