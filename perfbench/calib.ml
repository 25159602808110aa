(* The kernel allocates nothing, so its speed does not depend on the
   state of the heap it shares with the workload.  States are the 9^5
   vectors of five counters, coded as integers; the visited set is an
   open-addressing table of 2^18 slots (2 MiB), stamped with the run's
   number so that it never needs clearing, and hashed so that probes
   scatter over the whole table as a search engine's do. *)
let side = 9
let dims = 5
let states = int_of_float (float_of_int side ** float_of_int dims)
let table_bits = 18
let table = Array.make (1 lsl table_bits) 0
let queue = Array.make states 0
let run_no = ref 0

let kernel () =
  incr run_no;
  let stamp = !run_no lsl 20 in
  let mask = (1 lsl table_bits) - 1 in
  (* Inserts [s] unless present; true when it was new. *)
  let insert s =
    let rec probe h =
      let v = table.(h) in
      if v = stamp lor s then false
      else if v lsr 20 = !run_no then probe ((h + 1) land mask)
      else begin
        table.(h) <- stamp lor s;
        true
      end
    in
    probe (((s * 0x9E3779B1) lsr 7) land mask)
  in
  ignore (insert 0);
  queue.(0) <- 0;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let s = queue.(!head) in
    incr head;
    let place = ref 1 in
    for _ = 1 to dims do
      if s / !place mod side < side - 1 then begin
        let t = s + !place in
        if insert t then begin
          queue.(!tail) <- t;
          incr tail
        end
      end;
      place := !place * side
    done
  done;
  !head

let time_ns () =
  let t0 = Spans.now () in
  ignore (Sys.opaque_identity (kernel ()));
  Spans.now () - t0

let nominal_ms = 5.5

let scale ref_ms =
  let finite = Array.of_list (List.filter Float.is_finite (Array.to_list ref_ms)) in
  if Array.length finite = 0 then invalid_arg "Calib.scale: no timing";
  nominal_ms /. Stats.median finite
