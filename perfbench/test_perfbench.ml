(* Tests of the benchmark's own helpers: the tail rule, median and
   quartiles, failure share, span self time and the host-speed
   calibration. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let range n = Array.init n (fun i -> float_of_int (i + 1))

let test_median_quartiles () =
  check "median odd" (close (Stats.median [| 3.; 1.; 2. |]) 2.);
  check "median even" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median empty" (Float.is_nan (Stats.median [||]));
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (range 10) in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stats.quartiles [| 2.; 1. |] in
  check "quartiles 2 points" (close q1 0.75 && close q2 1.5 && close q3 2.25);
  check "iqr_frac" (close (Stats.iqr_frac (range 10)) ((8.25 -. 2.75) /. 5.5));
  let xs = [| 5.; 1.; 4. |] in
  ignore (Stats.median xs);
  check "input untouched" (xs = [| 5.; 1.; 4. |])

let test_tail_rule () =
  (* 100 samples: the value with exactly 10 larger ones is 90, p90. *)
  let t = Stats.block_tail (range 100) in
  check "tail 100 value" (close t.Stats.value 90.);
  check "tail 100 pct" (close t.Stats.pct 90.);
  check "tail 100 beyond" (t.Stats.beyond = 10);
  (* 1000 samples: p99, value 990. *)
  let t = Stats.block_tail (range 1000) in
  check "tail 1000" (close t.Stats.value 990. && close t.Stats.pct 99.);
  (* 11 samples: only the minimum has 10 beyond it. *)
  let t = Stats.block_tail (range 11) in
  check "tail 11" (close t.Stats.value 1. && t.Stats.beyond = 10);
  (* 10 or fewer: no percentile qualifies; report the max, beyond 0. *)
  let t = Stats.block_tail (range 10) in
  check "tail 10" (close t.Stats.value 10. && t.Stats.beyond = 0);
  (* Blocks: the percentile follows the block size, not the count. *)
  let xs = Array.init 250 (fun i -> float_of_int (i mod 100)) in
  let t = Stats.tail ~block:100 xs in
  check "blocks counted" (t.Stats.blocks = 2 && t.Stats.block = 100);
  check "block pct" (close t.Stats.pct 90.);
  check "block median" (close t.Stats.value 89.);
  check "identical blocks: no spread" (close t.Stats.spread 0.);
  (* Three blocks of 11 whose tails (each block's minimum) are 10, 20
     and 30: median 20, spread (30 - 10) / 20. *)
  let xs =
    Array.concat (List.map (fun b -> Array.append [| b |] (Array.make 10 100.)) [ 10.; 20.; 30. ])
  in
  let t = Stats.tail ~block:11 xs in
  check "tail over blocks" (close t.Stats.value 20. && t.Stats.blocks = 3);
  check "spread over blocks" (close t.Stats.spread 1.);
  let xs = Array.init 250 (fun i -> float_of_int (i mod 100)) in
  let t = Stats.tail ~block:500 xs in
  check "short run falls back" (t.Stats.blocks = 1 && t.Stats.block = 250);
  check "samples beyond >= 10"
    (Array.for_all
       (fun n ->
         let t = Stats.block_tail (range n) in
         let above = Array.fold_left (fun k x -> if x > t.Stats.value then k + 1 else k) 0 (range n) in
         above = t.Stats.beyond && (n <= 10 || above >= Stats.min_beyond))
       (Array.init 60 (fun i -> i + 1)))

let test_fail_frac () =
  check "none failed" (close (Stats.fail_frac ~attempted:40 ~failed:0) 0.);
  check "some failed" (close (Stats.fail_frac ~attempted:40 ~failed:10) 0.25);
  check "all failed" (close (Stats.fail_frac ~attempted:3 ~failed:3) 1.);
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "no attempts" (raises (fun () -> Stats.fail_frac ~attempted:0 ~failed:0));
  check "more failed than attempted"
    (raises (fun () -> Stats.fail_frac ~attempted:2 ~failed:3))

let test_self_time () =
  let sp id parent name t0 t1 = { Spans.id; parent; op = 0; name; t0; t1 } in
  (* op [0,100): children a [10,40) and b [30,60) overlap, c [70,80);
     a has a grandchild g [15,25). *)
  let spans =
    [
      sp 0 (-1) "op" 0 100;
      sp 1 0 "a" 10 40;
      sp 2 0 "b" 30 60;
      sp 3 0 "c" 70 80;
      sp 4 1 "g" 15 25;
      sp 5 (-1) "op" 200 210;
    ]
  in
  let self = Spans.self_times spans in
  let get n = List.find (fun (m, _, _) -> m = n) self in
  check "op self" (get "op" = ("op", 2, (100 - 60) + 10));
  check "a self" (get "a" = ("a", 1, 30 - 10));
  check "b self" (get "b" = ("b", 1, 30));
  check "leaf self" (get "g" = ("g", 1, 10));
  (* A child sticking out of its parent is clipped to the parent. *)
  let self = Spans.self_times [ sp 0 (-1) "p" 0 10; sp 1 0 "k" 5 20 ] in
  check "clipped" (List.mem ("p", 1, 5) self);
  (* Recorded spans nest through the stack. *)
  Spans.clear ();
  Spans.enabled := true;
  Spans.within ~op:7 "outer" (fun () -> Spans.within ~op:7 "inner" ignore);
  Spans.enabled := false;
  (match Spans.recorded () with
  | [ inner; outer ] ->
      check "nesting" (inner.Spans.parent = outer.Spans.id && outer.Spans.parent = -1);
      check "op id" (inner.Spans.op = 7)
  | _ -> check "two spans" false);
  check "chrome json valid"
    (Ddlock_obs.Json.validate (Spans.chrome_json (Spans.recorded ())) = Ok ());
  Spans.within ~op:1 "off" ignore;
  check "disabled records nothing" (List.length (Spans.recorded ()) = 2)

let test_calib () =
  check "kernel visits every state" (Calib.kernel () = 59049);
  (* The visited table is stamped per run, so a second run starts
     empty. *)
  check "kernel repeats" (Calib.kernel () = 59049);
  check "kernel timed" (Calib.time_ns () > 0);
  check "scale at nominal" (close (Calib.scale [| Calib.nominal_ms |]) 1.);
  (* A host twice as slow as the reference halves every time. *)
  check "scale median"
    (close (Calib.scale [| 2. *. Calib.nominal_ms; 30.; 1. |]) 0.5);
  check "scale skips untimed slots"
    (close (Calib.scale [| infinity; Calib.nominal_ms /. 2.; infinity |]) 2.);
  check "scale needs a timing"
    (match Calib.scale [| infinity |] with _ -> false | exception Invalid_argument _ -> true)

let () =
  test_median_quartiles ();
  test_tail_rule ();
  test_fail_frac ();
  test_self_time ();
  test_calib ();
  if !failures > 0 then exit 1;
  print_endline "perfbench helpers: ok"
