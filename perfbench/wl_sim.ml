(* sim-recovery: one op is one simulated execution.  A period runs
   every default recovery scheme on each contended family, plus one
   wait-forever run (Sim.Runtime) and one shared/exclusive run
   (Rw.Rw_runtime) on the catalog-reader shape.  Every op draws a fresh
   seeded fault plan at intensity 0.4.  Neither the analysis engine nor
   the daemon runs here.  The same ops are timed in passes for the whole
   run; each op's time is its best, and every time is reported at the
   reference speed (Perfbench.Calib). *)

open Ddlock
open Common
module Spans = Perfbench.Spans
module Recovery = Sim.Recovery
module Runtime = Sim.Runtime
module Rw_runtime = Rw.Rw_runtime

let intensity = 0.4
let horizon = 40.
let variants = 32
let schemes = Array.of_list Sim.Chaos.default_schemes
let period_len = (3 * Array.length schemes) + 2
let warmup_ops = 3 * 4096

(* Ops in a traced run are sampled: one in [trace_every] gets spans. *)
let trace_every = 16

(* The ops form [units] units of [unit_len], each with its own seeded
   streams, so a unit runs the same executions on every pass.  Passes
   repeat until time is up; an op's time is the least of its timings
   and a unit's the least of its pass times, the ones a busy host
   slowed least. *)
let units = 64
let unit_len = 64 * period_len

(* A reference kernel run after every [calib_every] units gives the
   host-speed scale (Perfbench.Calib). *)
let calib_every = 8

(* Tail blocks, in op order. *)
let block_all, block_hit, block_miss = (2048, 1024, 1024)

type inputs = { families : (string * Model.System.t array) array; rw : Rw.Rw_system.t }

(* k readers: R(catalog) W(row_i) U(catalog) U(row_i). *)
let catalog_readers k =
  let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
  let db = Model.Db.one_site_per_entity names in
  let catalog = Model.Db.find_entity_exn db "catalog" in
  let step entity op = { Rw.Rw_txn.entity; op } in
  let txn i =
    let row = Model.Db.find_entity_exn db ("row" ^ string_of_int i) in
    Rw.Rw_txn.of_total_order db
      [
        step catalog (Rw.Rw_txn.Lock Rw.Rw_txn.Read);
        step row (Rw.Rw_txn.Lock Rw.Rw_txn.Write);
        step catalog Rw.Rw_txn.Unlock;
        step row Rw.Rw_txn.Unlock;
      ]
    |> Result.get_ok
  in
  Rw.Rw_system.create (List.init k txn)

type kind = Recovery_run of int * Recovery.scheme | Runtime_run of int | Rw_run

let kind_of op =
  let slot = op mod period_len and p = op / period_len in
  let ns = Array.length schemes in
  if slot < 3 * ns then Recovery_run (slot / ns, snd schemes.(slot mod ns))
  else if slot = 3 * ns then Runtime_run (p mod 3)
  else Rw_run

type outcome = { hit : bool; aborts : int; commits : int; steps : int }

let system inputs fam op =
  let _, systems = inputs.families.(fam) in
  systems.(op / period_len mod Array.length systems)

(* One op: draw its fault plan, run it; the check comes after. *)
let exec inputs ~srng ~prng ~traced op =
  let within name f = if traced then Spans.within ~op name f else f () in
  let plan db = within "sim.faults" (fun () -> Sim.Faults.random prng db ~intensity ~horizon) in
  match kind_of op with
  | Recovery_run (fam, scheme) ->
      let sys = system inputs fam op in
      let faults = plan (Model.System.db sys) in
      `Recovery (sys, within "sim.recovery" (fun () -> Recovery.run ~scheme ~faults srng sys))
  | Runtime_run fam ->
      let sys = system inputs fam op in
      let faults = plan (Model.System.db sys) in
      `Runtime (sys, within "sim.runtime" (fun () -> Runtime.run ~faults srng sys))
  | Rw_run ->
      let faults = plan (Rw.Rw_system.db inputs.rw) in
      `Rw (within "rw.runtime" (fun () -> Rw_runtime.run ~faults srng inputs.rw))

let outcome = function
  | `Recovery (_, (r : Recovery.run)) ->
      let st = r.Recovery.stats in
      {
        hit = st.Recovery.aborts > 0;
        aborts = st.Recovery.aborts;
        commits = st.Recovery.commits;
        steps = List.length r.Recovery.committed_trace;
      }
  | `Runtime _ | `Rw _ -> { hit = false; aborts = 0; commits = 0; steps = 0 }

let valid inputs = function
  | `Recovery (sys, r) -> Sim.Chaos.check_run sys r = []
  | `Runtime (sys, r) ->
      let s = Runtime.schedule_of_run r in
      Sched.Schedule.is_legal sys s && Sim.Chaos.double_grant sys s = None
  | `Rw (r : Rw_runtime.run) -> (
      match r.Rw_runtime.outcome with
      | Rw_runtime.Finished _ ->
          Rw.Rw_system.is_conflict_serializable inputs.rw r.Rw_runtime.trace
      | Rw_runtime.Deadlock _ -> false)

let rngs seed = (Random.State.make [| seed; 0x51 |], Random.State.make [| seed; 0xfa |])

let setup seed =
  let trng = Random.State.make [| seed; 0x7c1 |] in
  let zrng = Random.State.make [| seed; 0x2b1 |] in
  let inputs =
    {
      families =
        [|
          ("ring3x2", [| Gen.parse (Gen.ring_copies 3 2) |]);
          ("tpcc", Array.init variants (fun _ -> Gen.parse (Gen.tpcc trng)));
          ( "zipf-hotspot",
            Array.init variants (fun _ ->
                Gen.parse (Gen.zipf zrng ~txns:4 ~entities:4 ~theta:1.2)) );
        |];
      rw = catalog_readers 4;
    }
  in
  (* Warm-up on its own streams: the rate over the first few hundred
     runs is a fraction of the steady one. *)
  let srng, prng = rngs (seed + 0x3d7) in
  for op = 0 to warmup_ops - 1 do
    ignore (valid inputs (exec inputs ~srng ~prng ~traced:false op))
  done;
  inputs

let unit_rngs seed u = (Random.State.make [| seed; 0x51; u |], Random.State.make [| seed; 0xfa; u |])

(* One pass of unit [u]; returns its op time (ns). *)
let run_unit inputs ~seed ~traced ~on_op u =
  let srng, prng = unit_rngs seed u in
  let busy = ref 0 in
  for op = u * unit_len to ((u + 1) * unit_len) - 1 do
    let sampled = traced && op mod trace_every = 0 in
    let t0 = now () in
    let r =
      if sampled then Spans.within ~op "op" (fun () -> exec inputs ~srng ~prng ~traced:true op)
      else exec inputs ~srng ~prng ~traced:false op
    in
    let dt = now () - t0 in
    busy := !busy + dt;
    on_op ~sampled op dt r
  done;
  !busy

let run ~seed ~seconds ~trace =
  let setups, inputs = repeat_setup 3 ~setup:(fun () -> setup seed) ~discard:ignore in
  let n = units * unit_len in
  let best = Array.make n infinity and best_unit = Array.make units infinity in
  let first = Array.make n { hit = false; aborts = 0; commits = 0; steps = 0 } in
  let failed = ref 0 in
  (* The first pass is checked in full; later passes must repeat its
     outcomes exactly. *)
  let record ~pass ~sampled:_ op dt r =
    best.(op) <- Float.min best.(op) (ms dt);
    let o = outcome r in
    if pass = 0 then begin
      first.(op) <- o;
      if not (valid inputs r) then incr failed
    end
    else if o <> first.(op) then incr failed
  in
  let g0 = Gc.quick_stat () in
  let t_end = now () + int_of_float ((if trace then seconds /. 2. else seconds) *. 1e9) in
  let k = ref 0 and busy = ref 0 in
  let refs = Ref_slots.create ~units ~every:calib_every in
  while now () < t_end do
    let u = !k mod units in
    let t = run_unit inputs ~seed ~traced:false ~on_op:(record ~pass:(!k / units)) u in
    busy := !busy + t;
    best_unit.(u) <- Float.min best_unit.(u) (secs t);
    Ref_slots.after refs u;
    incr k
  done;
  let ops = !k * unit_len in
  let g1 = Gc.quick_stat () in
  let timed_units = List.filter Float.is_finite (Array.to_list best_unit) in
  let ops_per_s =
    float_of_int (List.length timed_units * unit_len) /. List.fold_left ( +. ) 0. timed_units
  in
  let scale = Ref_slots.scale refs in
  let lat f =
    Array.of_list
      (List.filter_map
         (fun op -> if Float.is_finite best.(op) && f first.(op) then Some best.(op) else None)
         (List.init n Fun.id))
  in
  let traced_failed, layers, trace_ok =
    if not trace then (0, [], true)
    else begin
      Spans.clear ();
      Spans.enabled := true;
      let aborts = ref 0 and commits = ref 0 and sampled_ops = ref 0 in
      let sampled_steps = ref 0 and tfailed = ref 0 in
      let on_op ~sampled op _ r =
        let o = outcome r in
        let ok = if Float.is_finite best.(op) then o = first.(op) else valid inputs r in
        if not ok then incr tfailed;
        aborts := !aborts + o.aborts;
        commits := !commits + o.commits;
        if sampled then begin
          incr sampled_ops;
          sampled_steps := !sampled_steps + o.steps
        end
      in
      let tbusy =
        List.fold_left ( + ) 0 (List.init units (run_unit inputs ~seed ~traced:true ~on_op))
      in
      Spans.enabled := false;
      let spans = Spans.recorded () in
      let stat name =
        List.fold_left
          (fun (n, t) s -> if s.Spans.name = name then (n + 1, t + (s.Spans.t1 - s.Spans.t0)) else (n, t))
          (0, 0) spans
      in
      let us_per name = let n, t = stat name in us t /. float_of_int (max 1 n) in
      let _, rec_ns = stat "sim.recovery" in
      let layers =
        [
          ("sim.recovery_us_per_run", us_per "sim.recovery");
          ("sim.runtime_us_per_run", us_per "sim.runtime");
          ("rw.runtime_us_per_run", us_per "rw.runtime");
          ("sim.faults_us_per_plan", us_per "sim.faults");
          ("sim.aborts_per_commit", float_of_int !aborts /. float_of_int (max 1 !commits));
          ("sim.committed_steps_per_s", float_of_int !sampled_steps /. secs (max 1 rec_ns));
        ]
        @ self_time_layers spans ~ops:!sampled_ops
        @ gc_per_op g0 g1 ops
        @ [
            ( "trace.overhead_pct",
              overhead_pct ~untraced:(float_of_int ops /. secs !busy) ~traced:(float_of_int n /. secs tbusy) );
          ]
      in
      let ok = write_trace ~workload:"sim-recovery" ~seed spans in
      (!tfailed, layers, ok)
    end
  in
  {
    attempted = (if trace then ops + n else ops);
    failed = !failed + traced_failed + (if trace_ok then 0 else 1);
    setups;
    ops_per_s;
    all = summarize ~block:block_all (lat (fun _ -> true));
    hit = summarize ~block:block_hit (lat (fun o -> o.hit));
    miss = summarize ~block:block_miss (lat (fun o -> not o.hit));
    hit_means = "the recovery scheme aborted at least once";
    scale;
    peak_rss_mb = peak_rss_mb "self";
    layers;
    notes =
      [
        ( "shape",
          Printf.sprintf
            "period of %d: %d schemes x {ring 3 x 2 copies, tpcc 2 warehouses 4 txns \
             theta 1.2 (%d variants), zipf 4 txns x 4 entities theta 1.2 (%d \
             variants)}, 1 wait-forever run, 1 rw run on 4 catalog readers; faults \
             intensity %.1f horizon %.0f; %d warm-up ops"
            period_len (Array.length schemes) variants variants intensity horizon warmup_ops );
        ("ops", string_of_int ops);
        ( "host_speed",
          Printf.sprintf
            "scale %.4f to the reference speed; times, rates and set-up are \
             reported at it (raw = reported / scale)"
            scale );
        ("passes", Printf.sprintf "%.2f" (float_of_int !k /. float_of_int units));
      ];
  }
