(* analyze-corpus: parse each system and render the full analysis
   (`ddlock analyze`'s exact bytes), one system at a time, jobs = 1.

   The corpus is two periods of fixed proportions, so every seed sees
   the same mix of search outcomes: deadlock-free systems that need the
   whole Theorem-1 state space, deadlocking ones (early exit, witness,
   narration), systems the Theorem 3/4 tests certify without a search,
   and the fixed anchors.  Within each outcome, fixed counts per cost
   bin give every seed the same spread of costs.  The corpus is timed
   in passes for the whole run; each system's time is its best, and
   every time is reported at the reference speed (Perfbench.Calib). *)

open Ddlock
open Common
module Spans = Perfbench.Spans
module Explore = Sched.Explore
module State = Sched.State

(* Zipf systems keep their natural shares, fixed per period: 48
   deadlock-free (full-space search), 14 deadlocking (early exit,
   witness, narration) and 12 certified by the Theorem 3/4 test (no
   search).  Fixed counts keep each run's mix, and so the rank of the
   overall median, the same on every seed. *)
let max_states = 500_000
let zipf_dl = 14

(* A deadlock-free system's cost is its reachable state count, since
   the plain search visits every state, and that count is heavy-tailed.
   The deadlock-free share is split by state count into eight bins of
   equal natural share, 6 systems each per period, so every seed's
   corpus has the same spread of search costs.  The edges are the
   octiles of the state counts of 768 deadlock-free zipf 5 x 6 θ 0.8
   systems. *)
let df_edges = [| 3131; 3878; 4648; 5592; 6660; 7872; 10240 |]
let zipf_df_per_bin = 6
let zipf_df = zipf_df_per_bin * (Array.length df_edges + 1)

(* The bin of a deadlock-free system, or [None] when its bin is full.
   The count stops at the upper edge of the highest open bin (at the
   top edge while the top bin is open): past it, the answer is known. *)
let df_bin ~is_full sys =
  let top = Array.length df_edges in
  let rec highest_open b = if b > 0 && is_full b then highest_open (b - 1) else b in
  let hi = highest_open top in
  match
    Par.Par_explore.explore ~max_states:df_edges.(min hi (top - 1)) ~mode:`Fast ~jobs:1 sys
  with
  | exception Explore.Too_large _ -> if hi = top then Some top else None
  | space ->
      let n = Par.Par_explore.state_count space in
      let rec bin b = if b < top && n >= df_edges.(b) then bin (b + 1) else b in
      let b = bin 0 in
      if is_full b then None else Some b

(* A certified system's cost is set by its interaction-graph cycle
   count (Theorem 4 checks every cycle), in clusters: about 0.05 ms with
   no cycle, 0.09 with one, 0.13 with 2-5, 0.36 with 7, 2 with 37.  At
   their natural shares the certified systems' median falls in the gap
   between the one-cycle and the 6-9-cycle clusters and jumps between
   them from seed to seed.  So they are split by cycle count into bins
   of at most 0, 1, 9 and any number of cycles, with fixed counts that
   put both the hit median and the hit tail (10 of about 27 hits
   beyond) well inside the one-cycle cluster. *)
let cert_max_cycles = [| 0; 1; 9; max_int |]
let zipf_cert_by_cycles = [| 1; 8; 2; 1 |]
let zipf_cert = Array.fold_left ( + ) 0 zipf_cert_by_cycles

let cycle_bin sys =
  let n = Seq.length (Graph.Ungraph.cycles (Model.System.interaction_graph sys)) in
  let rec go b = if n <= cert_max_cycles.(b) then b else go (b + 1) in
  go 0

let periods = 2
let anchors () = [ Gen.philosophers 5; Gen.philosophers 6; Gen.ring_copies 6 2 ]
let period_len = zipf_df + zipf_dl + zipf_cert + 3 + 2

(* Latencies are one best time per system, in corpus order.  A tail is
   the median of each period's tail, and the period is the block for
   the misses too (their count per period varies a little with the
   seeded tpcc and replicated systems).  The hits of the whole corpus
   form one block: a period holds too few. *)
let miss_block misses = max 1 (misses / periods)

type corpus = { items : string array; por_df : (string, bool) Hashtbl.t }

(* Verdict of the persistent/sleep-set reduced search, a different
   algorithm from the plain search behind render_full. *)
let por_df c src =
  match Hashtbl.find_opt c.por_df src with
  | Some v -> v
  | None ->
      let v = Explore.deadlock_free ~max_states ~por:true (Gen.parse src) in
      Hashtbl.replace c.por_df src v;
      v

let setup seed =
  let c = { items = [||]; por_df = Hashtbl.create 1024 } in
  let zrng = Random.State.make [| seed; 0x21f |] in
  let dl = Queue.create () in
  let df = Array.init (Array.length df_edges + 1) (fun _ -> Queue.create ()) in
  let cert = Array.map (fun _ -> Queue.create ()) zipf_cert_by_cycles in
  let full q n = Queue.length q >= n * periods in
  let df_full b = full df.(b) zipf_df_per_bin in
  let cert_full b = full cert.(b) zipf_cert_by_cycles.(b) in
  let all_full bins f = Array.for_all Fun.id (Array.mapi (fun b _ -> f b) bins) in
  let searched_full () = all_full df df_full && full dl zipf_dl in
  while not (searched_full () && all_full cert cert_full) do
    let src = Gen.zipf zrng ~txns:5 ~entities:6 ~theta:0.8 in
    let sys = Gen.parse src in
    match Analysis.safe_and_deadlock_free sys with
    | Analysis.Safe_and_deadlock_free ->
        let b = cycle_bin sys in
        if not (cert_full b) then Queue.add src cert.(b)
    | _ when searched_full () -> ()
    | _ ->
        if por_df c src then begin
          if not (all_full df df_full) then
            Option.iter (fun b -> Queue.add src df.(b)) (df_bin ~is_full:df_full sys)
        end
        else if not (full dl zipf_dl) then Queue.add src dl
  done;
  let trng = Random.State.make [| seed; 0x7cc |] in
  let rrng = Random.State.make [| seed; 0x9e9 |] in
  let orng = Random.State.make [| seed; 0x0fd |] in
  let take q n = List.init n (fun _ -> Queue.pop q) in
  let items =
    Array.concat
      (List.init periods (fun _ ->
           let p =
             Array.of_list
               (List.concat (List.init (Array.length df) (fun b -> take df.(b) zipf_df_per_bin))
               @ take dl zipf_dl
               @ List.concat
                   (List.init (Array.length cert) (fun b -> take cert.(b) zipf_cert_by_cycles.(b)))
               @ anchors ()
               @ [ Gen.tpcc trng; Gen.replicated rrng ])
           in
           Gen.shuffle orng p;
           p))
  in
  (* Warm-up: the anchors once, so the heap has grown before timing. *)
  List.iter (fun src -> ignore (Analysis.render_full (Gen.parse src))) (anchors ());
  { c with items }

(* A hit skips the search engine: the Theorem 3/4 test certifies the
   system, as a verdict-cache hit does on serve-mixed. *)
let is_hit (r : Analysis.report) =
  match r.Analysis.safety with Analysis.Safe_and_deadlock_free -> true | _ -> false

(* The untimed correctness gate over one op's output. *)
let replay_ok sys schedule state =
  let rec go st = function
    | [] -> State.is_deadlock sys st && State.equal st state
    | s :: rest -> List.mem s (State.enabled sys st) && go (State.apply st s) rest
  in
  go (State.initial sys) schedule

let gate c outs =
  let first = Hashtbl.create 512 in
  List.fold_left
    (fun failed (idx, text, (r : Analysis.report)) ->
      let src = c.items.(idx) in
      let repeat_ok =
        match Hashtbl.find_opt first src with
        | None -> Hashtbl.add first src text; true
        | Some t -> String.equal t text
      in
      let verdict_ok =
        match r.Analysis.deadlock with
        | Analysis.Deadlocks { schedule; state } ->
            replay_ok (Gen.parse src) schedule state && not (por_df c src)
        | Analysis.Deadlock_free -> por_df c src
        | Analysis.Gave_up _ -> false
      in
      if repeat_ok && verdict_ok then failed else failed + 1)
    0 outs

(* Passes over the corpus, in order, for [seconds] of wall clock.  A
   system's time is the least of its timings: a busy host slows whole
   stretches of a run, and the least timing is the one it slowed least.
   Returns the op count, the number of corpus positions timed, the time
   of their first timings (ns), each system's best time (ms; infinity
   when time ran out before its first timing), whether it was a hit,
   every output, and the host-speed scale from a reference kernel run
   after every [calib_every] systems. *)
let calib_every = 8

(* A system timed under [quick_ns] is timed [quick_repeats] more times
   in its pass: one timing that short depends on the state the system
   before it left the collector and the caches in. *)
let quick_ns = 1_000_000
let quick_repeats = 9

let run_plain c ~seconds =
  let n = Array.length c.items in
  let refs = Ref_slots.create ~units:n ~every:calib_every in
  let best = Array.make n infinity and hit = Array.make n false in
  (* [busy] is the time of each position's first timing. *)
  let outs = ref [] and busy = ref 0 and i = ref 0 and ops = ref 0 in
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let time_op idx =
    let t0 = now () in
    let text, _, report = Analysis.render_full ~max_states (Gen.parse c.items.(idx)) in
    let dt = now () - t0 in
    best.(idx) <- Float.min best.(idx) (ms dt);
    hit.(idx) <- is_hit report;
    outs := (idx, text, report) :: !outs;
    incr ops;
    dt
  in
  while now () < t_end do
    let idx = !i mod n in
    let dt = time_op idx in
    busy := !busy + dt;
    if dt < quick_ns then
      for _ = 1 to quick_repeats do ignore (time_op idx) done;
    Ref_slots.after refs idx;
    incr i
  done;
  (!ops, !i, !busy, best, hit, List.rev !outs, Ref_slots.scale refs)

(* render_full's pipeline, call by call through the public layer
   functions, each call in its own span. *)
let pipeline ~op src =
  Spans.within ~op "op" @@ fun () ->
  let sys = Spans.within ~op "model" (fun () -> Gen.parse src) in
  let safety = Spans.within ~op "safety" (fun () -> Analysis.safe_and_deadlock_free sys) in
  Spans.within ~op "graph" (fun () ->
      ignore (Seq.length (Graph.Ungraph.cycles (Model.System.interaction_graph sys))));
  let search =
    match safety with
    | Analysis.Safe_and_deadlock_free -> None
    | _ -> Some (Spans.within ~op "schedule" (fun () -> Explore.find_deadlock ~max_states sys))
  in
  (match search with
  | Some (Some (schedule, _)) ->
      Spans.within ~op "core" (fun () ->
          ignore (Format.asprintf "%a" (Sched.Narrate.pp sys) schedule);
          ignore (Sched.Narrate.explain_deadlock sys schedule))
  | _ -> ());
  (sys, safety, search)

let same_verdict sys safety search (r : Analysis.report) =
  let pp v = Format.asprintf "%a" (Analysis.pp_safety_verdict sys) v in
  pp safety = pp r.Analysis.safety
  &&
  match (search, r.Analysis.deadlock) with
  | None, Analysis.Deadlock_free | Some None, Analysis.Deadlock_free -> true
  | Some (Some (s, _)), Analysis.Deadlocks { schedule; _ } -> s = schedule
  | _ -> false

let counter = Ddlock_obs.Metrics.counter_value

(* Layer probes on the first few searched systems: the Explore.explore
   state space replayed phase by phase, and the engine variants. *)
let probes srcs =
  let n = List.length srcs in
  let acc = Hashtbl.create 16 in
  let add k v = Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.) in
  let timed f =
    let t0 = now () in
    let r = f () in
    (r, now () - t0)
  in
  List.iter
    (fun src ->
      let sys = Gen.parse src in
      let g0 = Gc.quick_stat () in
      let space, t_explore = timed (fun () -> Explore.explore ~max_states sys) in
      let g1 = Gc.quick_stat () in
      let states = Array.of_seq (Explore.states space) in
      let ns = float_of_int (Array.length states) in
      add "states" ns;
      add "schedule.alloc_bytes_per_state"
        ((g1.minor_words -. g0.minor_words) *. float_of_int (Sys.word_size / 8) /. ns);
      ignore t_explore;
      let succs, t_succ =
        timed (fun () ->
            Array.map
              (fun st -> List.map (State.apply st) (State.enabled sys st))
              states)
      in
      add "schedule.succ_us_per_state" (us t_succ /. ns);
      let each f = Array.iter (List.iter f) succs in
      let (), t_key = timed (fun () -> each (fun s -> ignore (State.key s))) in
      add "schedule.key_us_per_state" (us t_key /. ns);
      let (), t_hash = timed (fun () -> each (fun s -> ignore (State.hash s))) in
      add "schedule.hash_us_per_state" (us t_hash /. ns);
      let tbl = Sched.Intern.create ~equal:State.equal ~hash:State.hash () in
      let (), t_intern = timed (fun () -> each (fun s -> ignore (Sched.Intern.intern tbl s))) in
      add "schedule.intern_us_per_state" (us t_intern /. ns);
      let dls, t_dl = timed (fun () -> Array.map (State.is_deadlock sys) states) in
      add "schedule.dltest_us_per_state" (us t_dl /. ns);
      (match Array.find_index Fun.id dls with
      | Some i ->
          let _, t_w = timed (fun () -> Explore.schedule_to space states.(i)) in
          add "witness_us" (us t_w);
          add "witnesses" 1.
      | None -> ());
      let por_space = Explore.explore ~max_states ~por:true sys in
      add "por_states" (float_of_int (Explore.state_count por_space));
      let sym_space = Explore.explore ~max_states ~symmetry:true sys in
      add "sym_states" (float_of_int (Explore.state_count sym_space));
      let ms_of f = ms (snd (timed f)) in
      add "schedule.por_ms_per_sys"
        (ms_of (fun () -> Explore.deadlock_free ~max_states ~por:true sys));
      let par mode jobs () =
        Par.Par_explore.deadlock_free ~max_states ~mode ~jobs sys
      in
      add "par.fast_j1_ms_per_sys" (ms_of (par `Fast 1));
      add "par.fast_j2_ms_per_sys" (ms_of (par `Fast 2));
      add "par.det_j2_ms_per_sys" (ms_of (par `Deterministic 2)))
    srcs;
  let get k = Option.value (Hashtbl.find_opt acc k) ~default:0. in
  let mean k = get k /. float_of_int (max 1 n) in
  let states = get "states" in
  [
    ("schedule.succ_us_per_state", mean "schedule.succ_us_per_state");
    ("schedule.key_us_per_state", mean "schedule.key_us_per_state");
    ("schedule.hash_us_per_state", mean "schedule.hash_us_per_state");
    ("schedule.intern_us_per_state", mean "schedule.intern_us_per_state");
    ("schedule.dltest_us_per_state", mean "schedule.dltest_us_per_state");
    ("schedule.alloc_bytes_per_state", mean "schedule.alloc_bytes_per_state");
    ("schedule.witness_us", get "witness_us" /. Float.max 1. (get "witnesses"));
    ("schedule.por_states_ratio", get "por_states" /. states);
    ("schedule.sym_states_ratio", get "sym_states" /. states);
    ("schedule.por_ms_per_sys", mean "schedule.por_ms_per_sys");
    ("par.fast_j1_ms_per_sys", mean "par.fast_j1_ms_per_sys");
    ("par.fast_j2_ms_per_sys", mean "par.fast_j2_ms_per_sys");
    ("par.det_j2_ms_per_sys", mean "par.det_j2_ms_per_sys");
  ]

let probe_count = 8

(* Traced half: the same ops as the untraced half, through [pipeline]. *)
let run_traced c ~ops =
  Spans.clear ();
  Spans.enabled := true;
  Ddlock_obs.Control.on ();
  let failed = ref 0 and busy = ref 0 in
  let states = ref 0 and searches = ref 0 and deadlocks = ref 0 and certified = ref 0 in
  let searched = ref [] in
  for op = 0 to ops - 1 do
    let src = c.items.(op mod Array.length c.items) in
    let s0 = counter "explore.states_visited" and q0 = counter "explore.searches" in
    let t0 = now () in
    let result = try Ok (pipeline ~op src) with Explore.Too_large _ -> Error () in
    busy := !busy + (now () - t0);
    states := !states + (counter "explore.states_visited" - s0);
    searches := !searches + (counter "explore.searches" - q0);
    Ddlock_obs.Trace.clear ();
    match result with
    | Error () -> incr failed
    | Ok (sys, safety, search) ->
        (match search with
        | None -> incr certified
        | Some found ->
            if found <> None then incr deadlocks;
            if List.length !searched < probe_count && not (List.mem src !searched) then
              searched := src :: !searched);
        let _, _, r = Analysis.render_full ~max_states (Gen.parse src) in
        if not (same_verdict sys safety search r) then incr failed
  done;
  Ddlock_obs.Control.off ();
  Spans.enabled := false;
  let spans = Spans.recorded () in
  let per_op x = x /. float_of_int (max 1 ops) in
  let span_total name =
    List.fold_left (fun a s -> if s.Spans.name = name then a + (s.Spans.t1 - s.Spans.t0) else a) 0 spans
  in
  let layers =
    [
      ("schedule.search_ms_per_sys", per_op (ms (span_total "schedule")));
      ("schedule.us_per_state", us (span_total "schedule") /. float_of_int (max 1 !states));
      ("schedule.states_per_sys", per_op (float_of_int !states));
      ("schedule.searches_per_sys", per_op (float_of_int !searches));
      ("safety.us_per_sys", per_op (us (span_total "safety")));
      ("safety.certified_frac", per_op (float_of_int !certified));
      ("graph.cycles_us_per_sys", per_op (us (span_total "graph")));
      ("model.parse_us", per_op (us (span_total "model")));
      ( "core.narrate_us_per_deadlock",
        us (span_total "core") /. float_of_int (max 1 !deadlocks) );
    ]
    @ self_time_layers spans ~ops
    @ probes (List.rev !searched)
  in
  (spans, !busy, !failed, layers)

let run ~seed ~seconds ~trace =
  let setups, c = repeat_setup 3 ~setup:(fun () -> setup seed) ~discard:ignore in
  let plain_seconds = if trace then seconds /. 2. else seconds in
  let g0 = Gc.quick_stat () in
  let ops, positions, busy, best, hit, outs, scale = run_plain c ~seconds:plain_seconds in
  let g1 = Gc.quick_stat () in
  let failed = gate c outs in
  let timed = List.filter (fun i -> Float.is_finite best.(i)) (List.init (Array.length best) Fun.id) in
  let lat f = Array.of_list (List.filter_map (fun i -> if f i then Some best.(i) else None) timed) in
  let all = lat (fun _ -> true) in
  let ops_per_s = float_of_int (Array.length all) /. (Array.fold_left ( +. ) 0. all /. 1e3) in
  let traced_failed, layers, trace_ok =
    if not trace then (0, [], true)
    else
      let spans, tbusy, tfailed, layers = run_traced c ~ops:positions in
      let ok = write_trace ~workload:"analyze-corpus" ~seed spans in
      ( tfailed,
        layers
        @ gc_per_op g0 g1 ops
        @ [
            ( "trace.overhead_pct",
              overhead_pct ~untraced:(float_of_int positions /. secs busy)
                ~traced:(float_of_int positions /. secs tbusy) );
          ],
        ok )
  in
  {
    attempted = (if trace then ops + positions else ops);
    failed = failed + traced_failed + (if trace_ok then 0 else 1);
    setups;
    ops_per_s;
    all = summarize ~block:period_len all;
    hit = (let h = lat (fun i -> hit.(i)) in summarize ~block:(max 1 (Array.length h)) h);
    miss = (let m = lat (fun i -> not hit.(i)) in summarize ~block:(miss_block (Array.length m)) m);
    hit_means = "the Theorem 3/4 test certified the system, so no search ran";
    scale;
    peak_rss_mb = peak_rss_mb "self";
    layers;
    notes =
      [
        ( "shape",
          Printf.sprintf
            "period of %d: zipf 5 txns x 6 entities theta 0.8 (%d deadlock-free, \
             %d in each of 8 state-count bins, %d deadlocking, %d certified by Theorem 3/4: \
             1, 8, 2 and 1 with at most 0, 1, 9 and any interaction cycles), philosophers 5 and 6, ring 6 \
             x 2 copies, tpcc 2 warehouses 4 txns, replicated 3 sites x 2 \
             replicas 4 txns; %d periods, cycled"
            period_len zipf_df zipf_df_per_bin zipf_dl zipf_cert periods );
        ("corpus_systems", string_of_int (Array.length c.items));
        ("ops", string_of_int ops);
        ( "host_speed",
          Printf.sprintf
            "scale %.4f to the reference speed; times, rates and set-up are \
             reported at it (raw = reported / scale)"
            scale );
        ( "passes",
          Printf.sprintf
            "%.2f (a system's time is the best of its timings; one under %.0f ms \
             is timed %d more times in each pass)"
            (float_of_int positions /. float_of_int (Array.length c.items))
            (ms quick_ns) quick_repeats );
      ];
  }
