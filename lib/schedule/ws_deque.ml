(* Work-stealing deque for the exploration kernel's work-stealing policy.

   The owner pushes and pops at the tail (LIFO — good locality, and
   depth-first descent tends to reach deadlock witnesses quickly);
   thieves take a batch of the oldest items from the head (FIFO —
   stolen work is the coarsest-grained available).

   Each operation takes the deque's own mutex and nothing else: a steal
   extracts the batch from the victim under the victim's lock, releases
   it, and only then appends to the thief's deque under the thief's
   lock, so no two locks are ever held together.  Per-item work in the
   engine is microseconds (successor generation + interning), so short
   critical sections cost far less than a Chase–Lev memory-model dance
   would save.

   The backing array grows by amortized doubling and is *reused* when
   the live region can instead be shifted down (the common case once
   the deque reaches steady state): [reuses] counts those compactions
   so the engine can surface them as [par.arena_reuse]. *)

type 'a t = {
  lock : Mutex.t;
  mutable buf : 'a array;
  mutable head : int;  (* index of the oldest live item *)
  mutable tail : int;  (* one past the newest live item *)
  mutable reuses : int;
}

let create () = { lock = Mutex.create (); buf = [||]; head = 0; tail = 0;
                  reuses = 0 }

let length t =
  Mutex.lock t.lock;
  let n = t.tail - t.head in
  Mutex.unlock t.lock;
  n

let reuses t = t.reuses

(* Caller holds [t.lock].  Make room for one more item at the tail:
   shift the live region down when at least half the buffer is dead
   space (reusing the allocation), otherwise double. *)
let make_room t x =
  let cap = Array.length t.buf in
  if cap = 0 then t.buf <- Array.make 16 x
  else begin
    let live = t.tail - t.head in
    if t.head >= cap - t.head then begin
      Array.blit t.buf t.head t.buf 0 live;
      t.reuses <- t.reuses + 1
    end
    else begin
      let arr = Array.make (2 * cap) x in
      Array.blit t.buf t.head arr 0 live;
      t.buf <- arr
    end;
    t.head <- 0;
    t.tail <- live
  end

let push t x =
  Mutex.lock t.lock;
  if t.tail >= Array.length t.buf then make_room t x;
  t.buf.(t.tail) <- x;
  t.tail <- t.tail + 1;
  Mutex.unlock t.lock

let pop t =
  Mutex.lock t.lock;
  let r =
    if t.tail = t.head then None
    else begin
      t.tail <- t.tail - 1;
      let x = t.buf.(t.tail) in
      if t.tail = t.head then begin
        t.head <- 0;
        t.tail <- 0
      end;
      Some x
    end
  in
  Mutex.unlock t.lock;
  r

let steal_into t ~victim =
  if victim == t then 0
  else begin
    Mutex.lock victim.lock;
    let live = victim.tail - victim.head in
    let n = (live + 1) / 2 in
    let batch =
      if n = 0 then [||]
      else begin
        let b = Array.sub victim.buf victim.head n in
        victim.head <- victim.head + n;
        if victim.head = victim.tail then begin
          victim.head <- 0;
          victim.tail <- 0
        end;
        b
      end
    in
    Mutex.unlock victim.lock;
    if Array.length batch > 0 then begin
      Mutex.lock t.lock;
      Array.iter
        (fun x ->
          if t.tail >= Array.length t.buf then make_room t x;
          t.buf.(t.tail) <- x;
          t.tail <- t.tail + 1)
        batch;
      Mutex.unlock t.lock
    end;
    Array.length batch
  end
