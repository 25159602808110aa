(* serve-mixed: `ddlock serve` with its default config in its own
   process, and two closed-loop clients in this one, each sending its
   next request only after the previous reply.  Requests are
   popularity-skewed picks from a pool of distinct sources three times
   the daemon's 128-entry verdict cache, so hits, capacity misses and
   evictions all occur.  A separate daemon process keeps the clients
   off the daemon's runtime lock. *)

open Ddlock
open Common
module Spans = Perfbench.Spans
module Client = Ddlock_serve.Client

let pool_size = 384
let skew = 1.0
let clients = 2
let block_all, block_hit, block_miss = (1024, 256, 256)
let warmup_requests = 400

type daemon = { pid : int; socket : string; log : string }

let daemon_exe () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "ddlock_cli.exe")

let counter = ref 0

let start_daemon ~obs =
  incr counter;
  let base = Printf.sprintf ".perfbench/serve-%d-%d" (Unix.getpid ()) !counter in
  let socket = base ^ ".sock" and log = base ^ ".log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    Array.of_list
      ((if obs then [ "DDLOCK_OBS=1" ] else [])
      @ List.filter
          (fun v -> not (String.starts_with ~prefix:"DDLOCK_OBS=" v))
          (Array.to_list (Unix.environment ())))
  in
  let exe = daemon_exe () in
  let pid =
    Unix.create_process_env exe [| exe; "serve"; "--socket"; socket |] env Unix.stdin fd fd
  in
  Unix.close fd;
  let d = { pid; socket; log } in
  let deadline = now () + 20_000_000_000 in
  let rec wait () =
    match Client.ping ~socket with
    | Ok Client.Pong -> ()
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("ddlock serve exited early; see " ^ log));
        if now () > deadline then failwith "ddlock serve did not answer ping";
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  d

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () + 10_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ d.socket; d.log ]

(* Popularity: rank r has weight (r + 1)^-skew. *)
let cdf =
  let c = Array.make pool_size 0. in
  let acc = ref 0. in
  for r = 0 to pool_size - 1 do
    acc := !acc +. ((float_of_int (r + 1)) ** (-.skew));
    c.(r) <- !acc
  done;
  c

let pick rng =
  let u = Random.State.float rng cdf.(pool_size - 1) in
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid in
  go 0 (pool_size - 1)

(* A miss costs one search in the daemon, and search costs are
   heavy-tailed, so a pool drawn freely would make each seed's misses
   cost something else.  The pool is stratified instead: rank r holds a
   system of class r mod 6, where class 0 is a system the Theorem 3/4
   test certifies (no search; about 18% of draws) and classes 1-5 are
   the quintiles of the others' reachable state counts.  So every
   popularity band gets the same spread of costs on every seed.  The
   edges are the quintiles of 1263 searched draws. *)
let count_edges = [| 457; 635; 817; 1110 |]
let classes = Array.length count_edges + 2

let cost_class sys =
  match Analysis.safe_and_deadlock_free sys with
  | Analysis.Safe_and_deadlock_free -> 0
  | _ ->
      let n = Par.Par_explore.state_count (Par.Par_explore.explore ~mode:`Fast ~jobs:1 sys) in
      let rec bin b = if b < Array.length count_edges && n >= count_edges.(b) then bin (b + 1) else b in
      1 + bin 0

let pool seed =
  let rng = Random.State.make [| seed; 0x5e4 |] in
  let per_class = pool_size / classes in
  let queues = Array.init classes (fun _ -> Queue.create ()) in
  let i = ref 0 in
  while Array.exists (fun q -> Queue.length q < per_class) queues do
    let src = Gen.zipf rng ~txns:4 ~entities:(4 + (!i mod 2)) ~theta:0.8 in
    incr i;
    let q = queues.(cost_class (Gen.parse src)) in
    if Queue.length q < per_class then Queue.add src q
  done;
  Array.init pool_size (fun r -> Queue.pop queues.(r mod classes))

type reply = { idx : int; body : string; hit : bool; lat_ns : int }

let warm d pool seed =
  let rng = Random.State.make [| seed; 0x3a7 |] in
  for _ = 1 to warmup_requests do
    ignore (Client.analyze_ex ~socket:d.socket pool.(pick rng))
  done

let setup seed ~obs =
  let p = pool seed in
  let d = start_daemon ~obs in
  (try warm d p seed with e -> stop_daemon d; raise e);
  (p, d)

let op_ids = Atomic.make 0

(* [clients] closed loops for [seconds]; returns the replies and the
   number of failed requests. *)
let window (pool, d) ~seed ~seconds ~spans =
  let t_start = now () in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let results = Array.make clients ([], 0) in
  let client k () =
    let rng = Random.State.make [| seed; 0xc1; k |] in
    let replies = ref [] and failed = ref 0 in
    while now () < t_end do
      let idx = pick rng in
      let t0 = now () in
      let r = Client.analyze_ex ~socket:d.socket pool.(idx) in
      let t1 = now () in
      if spans then
        Spans.add ~op:(Atomic.fetch_and_add op_ids 1) "serve" ~t0 ~t1;
      match r with
      | Ok (Client.Verdict { body; _ }, meta) ->
          replies :=
            { idx; body; hit = meta.Client.cached = Some true; lat_ns = t1 - t0 } :: !replies
      | _ -> incr failed
    done;
    results.(k) <- (List.rev !replies, !failed)
  in
  let threads = List.init clients (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  let elapsed = now () - t_start in
  let replies = List.concat_map fst (Array.to_list results) in
  let failed = Array.fold_left (fun a (_, f) -> a + f) 0 results in
  (replies, failed, elapsed)

(* [window] cut into one-second parts, with the reference kernel timed
   (best of two) before, between and after them, while no request is in
   flight; returns the replies, the failures, the window time and the
   host-speed scale (Perfbench.Calib).  Each part's clients draw their
   own request streams. *)
let calibrated_window (pool, d) ~seed ~seconds =
  let parts = max 1 (int_of_float (Float.ceil seconds)) in
  let kernel () = Float.min (ms (Perfbench.Calib.time_ns ())) (ms (Perfbench.Calib.time_ns ())) in
  let kernel_ms = Array.make (parts + 1) 0. in
  kernel_ms.(0) <- kernel ();
  let replies = ref [] and failed = ref 0 and elapsed = ref 0 in
  for part = 0 to parts - 1 do
    let r, f, e =
      window (pool, d) ~seed:(seed + (7919 * part)) ~seconds:(seconds /. float_of_int parts)
        ~spans:false
    in
    kernel_ms.(part + 1) <- kernel ();
    replies := List.rev_append r !replies;
    failed := !failed + f;
    elapsed := !elapsed + e
  done;
  (List.rev !replies, !failed, !elapsed, Perfbench.Calib.scale kernel_ms)

(* In-process reference renders, one per distinct source: the text,
   its time, and whether the search gave up (a failure when served). *)
let references pool replies =
  let refs = Hashtbl.create 512 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem refs r.idx) then begin
        let t0 = now () in
        let text, _, report = Analysis.render_full (Gen.parse pool.(r.idx)) in
        let gave_up =
          match report.Analysis.deadlock with Analysis.Gave_up _ -> true | _ -> false
        in
        Hashtbl.replace refs r.idx (text, now () - t0, gave_up)
      end)
    replies;
  refs

let gate refs replies =
  List.fold_left
    (fun failed r ->
      let text, _, gave_up = Hashtbl.find refs r.idx in
      if String.equal text r.body && not gave_up then failed else failed + 1)
    0 replies

let engine_searches d =
  match Client.metrics ~socket:d.socket with
  | Error _ -> nan
  | Ok text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ' ' line with
          | [ "ddlock_explore_searches"; v ] -> float_of_string v
          | _ -> acc)
        0. (String.split_on_char '\n' text)

(* Engine searches per request while the daemon answers from its cache:
   the 32 most popular sources, sent once to fill the cache and then
   again, measured (32 entries fit the 128-entry cache, and nothing else
   is sending). *)
let hit_engine_searches (pool, d) =
  let send () =
    for idx = 0 to 31 do
      ignore (Client.analyze_ex ~socket:d.socket pool.(idx))
    done
  in
  send ();
  let before = engine_searches d in
  send ();
  (engine_searches d -. before) /. 32.

(* Each reply's latency replaced by its source's best latency of the
   same kind (hit or miss) in the window, in ms.  A busy host slows whole
   stretches of a run, and a source's best reply is the one it slowed
   least.  Popular sources hit many times, and a miss recurs whenever
   its source has been evicted, so both kinds repeat. *)
let best_latencies replies =
  let best = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      let k = (r.idx, r.hit) in
      let l = ms r.lat_ns in
      Hashtbl.replace best k (Float.min l (Option.value (Hashtbl.find_opt best k) ~default:infinity)))
    replies;
  List.map (fun r -> (r, Hashtbl.find best (r.idx, r.hit))) replies

let median_ns f xs = Perfbench.Stats.median (Array.of_list (List.map f xs))

let layer_metrics (pool, _) refs replies ~elapsed =
  let distinct = Hashtbl.fold (fun idx _ acc -> idx :: acc) refs [] in
  let time f x = let t0 = now () in ignore (f x); float_of_int (now () - t0) in
  let parse_ns = median_ns (fun i -> time Gen.parse pool.(i)) distinct in
  let systems = List.map (fun i -> Gen.parse pool.(i)) distinct in
  let key_ns = median_ns (time Sched.Canon.system_key) systems in
  let table = Hashtbl.create 128 in
  List.iteri (fun i s -> if i < 128 then Hashtbl.replace table (Sched.Canon.system_key s) ()) systems;
  let keys = List.map Sched.Canon.system_key systems in
  let lookup_ns = median_ns (time (Hashtbl.find_opt table)) keys in
  let hits, misses = List.partition (fun r -> r.hit) replies in
  let hit_p50 = median_ns (fun r -> float_of_int r.lat_ns) hits in
  let render r =
    let _, ns, _ = Hashtbl.find refs r.idx in
    ns
  in
  let wait_ns = median_ns (fun r -> float_of_int (r.lat_ns - render r)) misses in
  let busy_ns = List.fold_left (fun a r -> a + render r) 0 misses in
  [
    ("model.parse_us", parse_ns /. 1e3);
    ("canon.key_us", key_ns /. 1e3);
    ( "serve.cache_hit_rate",
      float_of_int (List.length hits) /. float_of_int (max 1 (List.length replies)) );
    ("serve.protocol_us", (hit_p50 -. parse_ns -. key_ns -. lookup_ns) /. 1e3);
    ("serve.queue_wait_ms", wait_ns /. 1e6);
    ("serve.worker_busy_frac", float_of_int busy_ns /. (float_of_int elapsed *. 2.));
  ]

let run ~seed ~seconds ~trace =
  let setups, (pool, d) =
    repeat_setup 3 ~setup:(fun () -> setup seed ~obs:false) ~discard:(fun (_, d) -> stop_daemon d)
  in
  let g0 = Gc.quick_stat () in
  let rss = ref nan in
  let replies, failed, elapsed, scale =
    Fun.protect
      ~finally:(fun () ->
        rss := peak_rss_mb (string_of_int d.pid);
        stop_daemon d)
      (fun () ->
        calibrated_window (pool, d) ~seed ~seconds:(if trace then seconds /. 2. else seconds))
  in
  let g1 = Gc.quick_stat () in
  let answered = List.length replies in
  let best = best_latencies replies in
  let lat f = Array.of_list (List.filter_map (fun (r, l) -> if f r then Some l else None) best) in
  (* The closed-loop rate the clients reach at those best latencies. *)
  let ops_per_s =
    float_of_int (clients * answered) /. (List.fold_left (fun a (_, l) -> a +. l) 0. best /. 1e3)
  in
  let traced =
    if not trace then None
    else begin
      let traced_setup = setup seed ~obs:true in
      Spans.clear ();
      let (treplies, tfailed, telapsed), searches =
        Fun.protect
          ~finally:(fun () -> stop_daemon (snd traced_setup))
          (fun () ->
            let w = window traced_setup ~seed ~seconds:(seconds /. 2.) ~spans:true in
            (w, hit_engine_searches traced_setup))
      in
      Some (treplies, tfailed, telapsed, searches)
    end
  in
  let all_replies = replies @ (match traced with Some (r, _, _, _) -> r | None -> []) in
  let refs = references pool all_replies in
  let gate_failed = gate refs all_replies in
  let layers, traced_failed, trace_ok =
    match traced with
    | None -> ([], 0, true)
    | Some (treplies, tfailed, telapsed, searches) ->
        let spans = Spans.recorded () in
        let ok = write_trace ~workload:"serve-mixed" ~seed spans in
        ( layer_metrics (pool, d) refs treplies ~elapsed:telapsed
          @ [ ("serve.hit_engine_searches", searches) ]
          @ self_time_layers spans ~ops:(List.length treplies)
          @ gc_per_op g0 g1 answered
          @ [
              ( "trace.overhead_pct",
                overhead_pct ~untraced:(float_of_int answered /. secs elapsed)
                  ~traced:(float_of_int (List.length treplies) /. secs telapsed) );
            ],
          tfailed,
          ok )
  in

  let hits = List.length (List.filter (fun r -> r.hit) replies) in
  {
    attempted = List.length all_replies + failed + traced_failed;
    failed = failed + traced_failed + gate_failed + (if trace_ok then 0 else 1);
    setups;
    ops_per_s;
    all = summarize ~block:block_all (lat (fun _ -> true));
    hit = summarize ~block:block_hit (lat (fun r -> r.hit));
    miss = summarize ~block:block_miss (lat (fun r -> not r.hit));
    hit_means = "the daemon answered from its verdict cache";
    scale;
    peak_rss_mb = !rss;
    layers;
    notes =
      [
        ( "shape",
          Printf.sprintf
            "pool of %d distinct zipf systems (4 txns x 4-5 entities, theta 0.8), \
             popularity weight (rank+1)^-%.1f, %d closed-loop clients, daemon \
             default config (2 workers, queue 16, cache 128), %d warm-up requests"
            pool_size skew clients warmup_requests );
        ( "hit_share",
          Printf.sprintf "%.3f" (float_of_int hits /. float_of_int (max 1 answered)) );
        ("requests", string_of_int answered);
        ( "host_speed",
          Printf.sprintf
            "scale %.4f to the reference speed; times, rates and set-up are \
             reported at it (raw = reported / scale)"
            scale );
      ];
  }

