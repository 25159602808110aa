open Ddlock_model
open Ddlock_schedule
open Ddlock_sim

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (k, v) -> Pqueue.push q k v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  check int_t "size" 3 (Pqueue.size q);
  check (Alcotest.option Alcotest.(float 0.0)) "peek" (Some 1.0) (Pqueue.peek_key q);
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c" ] order;
  check bool_t "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  check (Alcotest.list Alcotest.string) "fifo" [ "first"; "second"; "third" ] order

let pqueue_sorted_prop =
  QCheck.Test.make ~name:"pqueue pops in key order" ~count:200
    QCheck.(small_list (pair (float_bound_inclusive 100.0) small_nat))
    (fun items ->
      let q = Pqueue.create () in
      List.iter (fun (k, v) -> Pqueue.push q k v) items;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      let keys = drain [] in
      keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let safe_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "a"; "b" ];
    ]

let test_run_completes () =
  let sys = safe_pair () in
  let rng = Fixtures.rng 1 in
  for _ = 1 to 50 do
    let r = Runtime.run rng sys in
    (match r.Runtime.outcome with
    | Runtime.Finished { makespan } ->
        check bool_t "positive makespan" true (makespan > 0.0)
    | Runtime.Deadlock _ -> Alcotest.fail "safe pair cannot deadlock");
    let s = Runtime.schedule_of_run r in
    check bool_t "trace legal" true (Schedule.is_legal sys s);
    check bool_t "trace complete" true (Schedule.is_complete sys s);
    check bool_t "trace serializable" true (Dgraph.is_serializable sys s)
  done

let test_philosophers_deadlock_observed () =
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let rng = Fixtures.rng 2 in
  let saw = ref false in
  for _ = 1 to 300 do
    if not !saw then
      match (Runtime.run rng sys).Runtime.outcome with
      | Runtime.Deadlock { waits_for; cycle; _ } ->
          saw := true;
          check bool_t "wait-for arcs present" true (waits_for <> []);
          check bool_t "cycle present" true (cycle <> []);
          (* Every wait-for arc must point at a real holder. *)
          List.iter
            (fun (w, _, h) ->
              check bool_t "w != h" true (w <> h))
            waits_for
      | Runtime.Finished _ -> ()
  done;
  check bool_t "deadlock observed" true !saw

let test_batch () =
  let rng = Fixtures.rng 3 in
  let stats = Runtime.batch rng (safe_pair ()) ~runs:40 in
  check int_t "runs" 40 stats.Runtime.runs;
  check int_t "no deadlocks" 0 stats.Runtime.deadlocks;
  check int_t "all serializable" 0 stats.Runtime.non_serializable;
  check bool_t "makespan finite" true (Float.is_finite stats.Runtime.mean_makespan);
  let stats = Runtime.batch rng (Ddlock_workload.Gentx.dining_philosophers 4) ~runs:200 in
  check bool_t "philosophers deadlock sometimes" true (stats.Runtime.deadlocks > 0)

(* E11 validation: a system certified safe∧DF by Theorem 4 never
   deadlocks nor produces a non-serializable trace under the simulator. *)
let certified_systems_clean_prop =
  QCheck.Test.make
    ~name:"simulator never refutes a Theorem-4 safe∧DF certificate"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      QCheck.assume (Ddlock_safety.Many.safe_and_deadlock_free sys);
      let stats = Runtime.batch st sys ~runs:20 in
      stats.Runtime.deadlocks = 0 && stats.Runtime.non_serializable = 0)

(* Conversely the simulator's traces are always legal schedules. *)
let trace_legal_prop =
  QCheck.Test.make ~name:"simulator traces are legal schedules" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let r = Runtime.run st sys in
      let s = Runtime.schedule_of_run r in
      Schedule.is_legal sys s
      &&
      match r.Runtime.outcome with
      | Runtime.Finished _ -> Schedule.is_complete sys s
      | Runtime.Deadlock { cycle; _ } ->
          (* Runtime deadlock states are deadlock states of the model. *)
          cycle <> []
          && State.is_deadlock sys (Schedule.to_state sys s))

(* ------------------------------------------------------------------ *)
(* Recovery schemes (wound-wait / wait-die / detect-and-abort)          *)
(* ------------------------------------------------------------------ *)

let schemes =
  [
    ("wait-die", Recovery.Wait_die);
    ("wound-wait", Recovery.Wound_wait);
    ("detect", Recovery.Detect { period = 5.0 });
    ("probabilistic", Recovery.Probabilistic);
  ]

let test_recovery_resolves_philosophers () =
  (* Under the plain runtime the philosophers deadlock; every recovery
     scheme must always drive them to completion, with legal serializable
     committed traces. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 4 in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 21 in
      let stats = Recovery.batch ~scheme rng sys ~runs:60 in
      check int_t (name ^ ": no timeouts") 0 stats.Recovery.timeouts;
      check int_t (name ^ ": traces legal") 0 stats.Recovery.illegal_traces;
      check int_t
        (name ^ ": traces serializable")
        0 stats.Recovery.non_serializable_traces)
    schemes

let test_recovery_aborts_happen () =
  (* On a contended deadlocking workload the schemes must actually abort
     sometimes (otherwise they are not being exercised). *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 4 in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 22 in
      let stats = Recovery.batch ~scheme rng sys ~runs:60 in
      check bool_t (name ^ ": some aborts") true (stats.Recovery.total_aborts > 0))
    schemes

let test_recovery_no_aborts_when_safe () =
  (* Wait-die may die spuriously on plain contention; wound-wait wounds
     only on conflict, detect aborts only on real cycles.  On a
     conflict-free system (disjoint entities) no scheme should abort. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let sys =
    System.create
      [
        Builder.two_phase_chain db [ "a" ];
        Builder.two_phase_chain db [ "b" ];
        Builder.two_phase_chain db [ "c" ];
      ]
  in
  List.iter
    (fun (name, scheme) ->
      let rng = Fixtures.rng 23 in
      let stats = Recovery.batch ~scheme rng sys ~runs:30 in
      check int_t (name ^ ": zero aborts") 0 stats.Recovery.total_aborts;
      check int_t (name ^ ": zero timeouts") 0 stats.Recovery.timeouts)
    schemes

let test_detect_only_aborts_on_cycles () =
  (* Ordered 2PL chains contend heavily but never deadlock: the detector
     must never fire. *)
  let db = Db.one_site_per_entity [ "a"; "b"; "c" ] in
  let sys =
    System.create
      (List.init 4 (fun _ -> Builder.two_phase_chain db [ "a"; "b"; "c" ]))
  in
  let rng = Fixtures.rng 24 in
  let stats =
    Recovery.batch ~scheme:(Recovery.Detect { period = 2.0 }) rng sys ~runs:40
  in
  check int_t "no aborts" 0 stats.Recovery.total_aborts;
  check int_t "no timeouts" 0 stats.Recovery.timeouts

(* ------------------------------------------------------------------ *)
(* Probabilistic scheme (random priorities, O&B arXiv:1010.4411)        *)
(* ------------------------------------------------------------------ *)

let test_probabilistic_no_deadlock () =
  (* Wait arcs ascend the random-priority order, so no run may ever get
     stuck — even on workloads that reliably deadlock without a scheme
     and under heavy ring contention. *)
  List.iter
    (fun sys ->
      let rng = Fixtures.rng 31 in
      let stats = Recovery.batch ~scheme:Recovery.Probabilistic rng sys ~runs:80 in
      check int_t "no timeouts" 0 stats.Recovery.timeouts;
      check int_t "traces legal" 0 stats.Recovery.illegal_traces;
      check int_t "traces serializable" 0 stats.Recovery.non_serializable_traces)
    [
      Ddlock_workload.Gentx.dining_philosophers 5;
      System.copies (Ddlock_workload.Gentx.guard_ring 4) 2;
    ]

let test_probabilistic_bounded_starvation () =
  (* Redraw-on-abort: no single transaction may be wounded unboundedly
     often.  80 contended runs with a generous per-transaction ceiling —
     a starving scheme blows through it (wound-wait's fixed-priority
     analogue with inverted priorities would). *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 5 in
  let rng = Fixtures.rng 32 in
  let stats = Recovery.batch ~scheme:Recovery.Probabilistic rng sys ~runs:80 in
  check bool_t "some aborts (scheme exercised)" true
    (stats.Recovery.total_aborts > 0);
  check bool_t
    (Printf.sprintf "per-txn aborts bounded (max %d)"
       stats.Recovery.max_aborts_single_txn)
    true
    (stats.Recovery.max_aborts_single_txn <= 12)

(* ------------------------------------------------------------------ *)
(* Zipfian hotspot generator                                           *)
(* ------------------------------------------------------------------ *)

let zipf_well_formed_prop =
  QCheck.Test.make ~name:"zipf_system generates valid hotspot systems"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sites = 1 + Random.State.int st 3 in
      let entities = 2 + Random.State.int st 4 in
      let txns = 1 + Random.State.int st 4 in
      let theta = Random.State.float st 2.0 in
      let sys =
        Ddlock_workload.Gentx.zipf_system st ~sites ~entities ~txns ~theta
      in
      (* Construction already validates via Transaction.make_exn; check
         the advertised shape on top. *)
      System.size sys = txns
      && Db.entity_count (System.db sys) = entities
      && Db.site_count (System.db sys) = sites
      && Array.for_all
           (fun t -> List.length (Transaction.entities t) = 2)
           (System.txns sys))

let test_zipf_skews_hot_entities () =
  (* At theta = 1.5 entity e0 must be touched far more often than the
     tail entity; at theta = 0 the draw is uniform.  Count over many
     systems with a fixed seed. *)
  let count_uses ~theta =
    let st = Fixtures.rng 33 in
    let uses = Array.make 8 0 in
    for _ = 1 to 60 do
      let sys =
        Ddlock_workload.Gentx.zipf_system st ~sites:2 ~entities:8 ~txns:3
          ~theta
      in
      Array.iter
        (fun t ->
          List.iter (fun e -> uses.(e) <- uses.(e) + 1) (Transaction.entities t))
        (System.txns sys)
    done;
    uses
  in
  let hot = count_uses ~theta:1.5 in
  check bool_t
    (Printf.sprintf "theta=1.5 skews to e0 (%d vs %d)" hot.(0) hot.(7))
    true
    (hot.(0) > 3 * hot.(7))

let recovery_always_commits_prop =
  QCheck.Test.make
    ~name:"recovery schemes always commit random deadlocking systems"
    ~count:30
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      List.for_all
        (fun (_, scheme) ->
          let r = Recovery.run ~scheme st sys in
          (not r.Recovery.stats.Recovery.timed_out)
          && r.Recovery.stats.Recovery.commits = System.size sys
          && Schedule.is_complete sys r.Recovery.committed_trace)
        schemes)

(* ------------------------------------------------------------------ *)
(* Scenario-matrix chaos: seeded metamorphic sweep over the TPC-C and  *)
(* partial-replication scenarios across all five schemes               *)
(* ------------------------------------------------------------------ *)

let matrix_scenarios () =
  [
    {
      Chaos.label = "tpcc";
      system =
        Ddlock_workload.Gentx.tpcc_system
          (Fixtures.rng 0x7cc1)
          ~warehouses:2 ~txns:4 ~theta:1.2;
    };
    {
      Chaos.label = "partial-replication";
      system =
        (let rep =
           Ddlock_workload.Gentx.replicated_db ~sites:3 ~entities:4
             ~replication:2
         in
         Ddlock_workload.Gentx.replicated_system
           (Fixtures.rng 0x9e9c)
           rep ~txns:3 ~entities_per_txn:2);
    };
  ]

let test_matrix_scenarios_chaos_clean () =
  (* 2 scenarios x (5 schemes + 1 runtime probe) x 40 seeds, full fault
     intensity envelope: liveness, legality, mutual exclusion and
     serializability must survive every plan. *)
  let r =
    Chaos.sweep ~seeds:40 ~schemes:Chaos.default_schemes
      ~cases:(matrix_scenarios ()) 0x3a70
  in
  check int_t "runs" (2 * 6 * 40) r.Chaos.runs;
  List.iter
    (fun (seed, where, _) ->
      Alcotest.failf "matrix chaos violation in %s at seed %d" where seed)
    r.Chaos.violations;
  check int_t "all clean" r.Chaos.runs r.Chaos.clean_runs;
  (* Metamorphic: the sweep is a pure function of the base seed. *)
  let r' =
    Chaos.sweep ~seeds:40 ~schemes:Chaos.default_schemes
      ~cases:(matrix_scenarios ()) 0x3a70
  in
  check int_t "reproducible aborts" r.Chaos.total_aborts r'.Chaos.total_aborts;
  check (Alcotest.float 1e-9) "reproducible makespan" r.Chaos.mean_makespan
    r'.Chaos.mean_makespan

let matrix_zero_intensity_prop =
  (* Metamorphic: a random fault plan at intensity 0 is the empty plan —
     every scheme's run on the new scenarios is bit-identical to the
     fault-free run from the same simulator seed. *)
  QCheck.Test.make
    ~name:"matrix scenarios: intensity-0 plans behave like no faults"
    ~count:30
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      List.for_all
        (fun { Chaos.system = sys; _ } ->
          let plan =
            Faults.random (Fixtures.rng seed) (System.db sys) ~intensity:0.0
              ~horizon:40.0
          in
          List.for_all
            (fun (_, scheme) ->
              let faulted =
                Recovery.run ~scheme ~faults:plan (Fixtures.rng (seed + 1)) sys
              in
              let plain =
                Recovery.run ~scheme ~faults:Faults.none
                  (Fixtures.rng (seed + 1))
                  sys
              in
              faulted.Recovery.stats = plain.Recovery.stats
              && faulted.Recovery.committed_trace
                 = plain.Recovery.committed_trace)
            Chaos.default_schemes)
        (matrix_scenarios ()))

(* ------------------------------------------------------------------ *)
(* Refactor oracle: golden digests of seeded runs                       *)
(* ------------------------------------------------------------------ *)

(* Every entry digests [golden_seeds] seeded runs of one simulator on
   one workload: the full trace and outcome, floats in exact hex.  The
   digests were recorded before the three event loops were folded into
   [Engine]; a changed digest means a changed execution. *)

let golden_seeds = 25

let digest_seeds f =
  let b = Buffer.create 4096 in
  for seed = 1 to golden_seeds do
    Printf.bprintf b "#%d " seed;
    f b seed
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_step b (s : Step.t) = Printf.bprintf b "%d.%d " s.txn s.node
let add_float b x = Printf.bprintf b "%h " x

let golden_plan db seed ~intensity =
  Faults.random (Fixtures.rng (1000 + seed)) db ~intensity ~horizon:40.0

let runtime_digest ~faulted sys =
  digest_seeds (fun b seed ->
      let faults =
        if faulted then golden_plan (System.db sys) seed ~intensity:0.8
        else Faults.none
      in
      let r = Runtime.run ~faults (Fixtures.rng seed) sys in
      List.iter
        (fun (e : Runtime.trace_entry) ->
          add_float b e.Runtime.time;
          add_step b e.Runtime.step)
        r.Runtime.trace;
      match r.Runtime.outcome with
      | Runtime.Finished { makespan } ->
          Buffer.add_string b "F ";
          add_float b makespan
      | Runtime.Deadlock { time; waits_for; cycle } ->
          Buffer.add_string b "D ";
          add_float b time;
          List.iter
            (fun (w, e, h) -> Printf.bprintf b "%d>%d>%d " w e h)
            waits_for;
          List.iter (Printf.bprintf b "c%d ") cycle)

(* Recovery runs cycle through fault intensities 0.0, 0.4 and 0.8. *)
let recovery_digest scheme sys =
  digest_seeds (fun b seed ->
      let faults =
        golden_plan (System.db sys) seed
          ~intensity:(0.4 *. float_of_int (seed mod 3))
      in
      let r = Recovery.run ~scheme ~faults (Fixtures.rng seed) sys in
      List.iter (add_step b) r.Recovery.committed_trace;
      let s = r.Recovery.stats in
      Printf.bprintf b "c%d a%d t%b " s.Recovery.commits s.Recovery.aborts
        s.Recovery.timed_out;
      add_float b s.Recovery.makespan;
      Array.iter (Printf.bprintf b "x%d ") r.Recovery.aborts_by_txn)

(* The catalog-reader shape: R(catalog) W(row_i) U(catalog) U(row_i);
   [~mode:Write] makes every lock exclusive. *)
let catalog_readers ?(mode = Ddlock_rw.Rw_txn.Read) k =
  let module Rw_txn = Ddlock_rw.Rw_txn in
  let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
  let db = Db.one_site_per_entity names in
  let catalog = Db.find_entity_exn db "catalog" in
  let mk i =
    let row = Db.find_entity_exn db ("row" ^ string_of_int i) in
    Result.get_ok
      (Rw_txn.of_total_order db
         [
           { Rw_txn.entity = catalog; op = Rw_txn.Lock mode };
           { Rw_txn.entity = row; op = Rw_txn.Lock Rw_txn.Write };
           { Rw_txn.entity = catalog; op = Rw_txn.Unlock };
           { Rw_txn.entity = row; op = Rw_txn.Unlock };
         ])
  in
  Ddlock_rw.Rw_system.create (List.init k mk)

let rw_digest ~faulted sys =
  let module Rw = Ddlock_rw.Rw_runtime in
  digest_seeds (fun b seed ->
      let faults =
        if faulted then
          golden_plan (Ddlock_rw.Rw_system.db sys) seed ~intensity:0.8
        else Faults.none
      in
      let r = Rw.run ~faults (Fixtures.rng seed) sys in
      List.iter
        (fun (s : Ddlock_rw.Rw_system.step) ->
          Printf.bprintf b "%d.%d " s.Ddlock_rw.Rw_system.txn
            s.Ddlock_rw.Rw_system.node)
        r.Rw.trace;
      match r.Rw.outcome with
      | Rw.Finished { makespan } ->
          Buffer.add_string b "F ";
          add_float b makespan
      | Rw.Deadlock { time; waits_for } ->
          Buffer.add_string b "D ";
          add_float b time;
          List.iter
            (fun (w, e, h) -> Printf.bprintf b "%d>%d>%d " w e h)
            waits_for)

let golden_digests () =
  List.concat_map
    (fun { Chaos.label; system } ->
      ("runtime/" ^ label, runtime_digest ~faulted:false system)
      :: ("runtime+faults/" ^ label, runtime_digest ~faulted:true system)
      :: List.map
           (fun (sname, scheme) ->
             (sname ^ "/" ^ label, recovery_digest scheme system))
           Chaos.default_schemes)
    (Chaos.default_cases ())
  @ [
      ("rw/catalog4", rw_digest ~faulted:false (catalog_readers 4));
      ("rw+faults/catalog4", rw_digest ~faulted:true (catalog_readers 4));
    ]

let golden =
  [
    ("runtime/philosophers4", "2e47b8e0f5fa98142ff7f26ff4ce899c");
    ("runtime+faults/philosophers4", "42f7d70951716e5dbb0e041aaa62aa06");
    ("wait-die/philosophers4", "2d3c073d4755e57f6b38899bb14e536f");
    ("wound-wait/philosophers4", "651ec05c36a9b705b0a031c65360d74d");
    ("detect/philosophers4", "8aa9cd936937abdeeb080df57b53ff27");
    ("timeout/philosophers4", "f33b18ae7de15cbec53619d5ffe60482");
    ("probabilistic/philosophers4", "7a037f8721b74172edc0992c7061065a");
    ("runtime/ring3x2", "06d59df517426bf150451265c23b0783");
    ("runtime+faults/ring3x2", "ee44545a9b5ef25729d2a4b6962dc856");
    ("wait-die/ring3x2", "97313764a50c4c3f1dcfad9d9e4f08ea");
    ("wound-wait/ring3x2", "6ae8f4c70863ba0673c233df004ab073");
    ("detect/ring3x2", "699b83dcd4c788a006d2a0b7d1666536");
    ("timeout/ring3x2", "b874d3135d768a388ffa63b6b16c9cd7");
    ("probabilistic/ring3x2", "2fc8e37d8e3cdc56bfb9713aa27e3516");
    ("runtime/ordered2pl", "272e49f6a7beb3f8d2476002fd18136d");
    ("runtime+faults/ordered2pl", "143006202d0f7f02be596bd2b4e91b53");
    ("wait-die/ordered2pl", "2db35f156d08b1723cf30380cc1b0c8e");
    ("wound-wait/ordered2pl", "11d28adea6d511467f3dc7e0bc9e1488");
    ("detect/ordered2pl", "a392ba67ebe935eb26a5bb672b26f6b1");
    ("timeout/ordered2pl", "bcf741e2eb9321a331528058c985dee3");
    ("probabilistic/ordered2pl", "96ea3594b8846b41ee7c6bc21814089c");
    ("runtime/zipf-hotspot", "b19c42345b9f0862c9b41e3ce4317aea");
    ("runtime+faults/zipf-hotspot", "d07abeff6dcc9e34f9aa3831ecf9a53f");
    ("wait-die/zipf-hotspot", "9be06f8e05d68eefd19c4b788f9fc404");
    ("wound-wait/zipf-hotspot", "299d5d607e8ee9749a030bc6a64ea963");
    ("detect/zipf-hotspot", "084ac15a801c0f9fc851b286bd15cd52");
    ("timeout/zipf-hotspot", "cb4ec8fa6174b4508f71e3be3cdb4fcb");
    ("probabilistic/zipf-hotspot", "731b6a946b76a7ad91c3786d0c98f7e7");
    ("runtime/tpcc2w", "b6b281a90e119cd3499461b40a462e19");
    ("runtime+faults/tpcc2w", "a8f59555f8f77c8fecda8d3588a31774");
    ("wait-die/tpcc2w", "d7c0acef7ac17aef6d3911fde9f65655");
    ("wound-wait/tpcc2w", "f95ed18651afb1402bc52b9984763961");
    ("detect/tpcc2w", "bc98ace278c970ee06cabe29a894b9b6");
    ("timeout/tpcc2w", "e6a95dde04026cc96acab746166c8073");
    ("probabilistic/tpcc2w", "b464892a3c11f5a47ea1a6f95aedc6b5");
    ("runtime/partrep3s", "bc52849e11df34da78d8abfee36b7e6a");
    ("runtime+faults/partrep3s", "b0f5a93c4c52f53dc3ba30afccc1d4de");
    ("wait-die/partrep3s", "72e279152719e4779a5aa5a76c6d0216");
    ("wound-wait/partrep3s", "cabcfbf69d123be73bfe9eab08d187cf");
    ("detect/partrep3s", "5d4cafb8bdcd1ea91fd249bf50b97359");
    ("timeout/partrep3s", "e0dd383282a3401518877da8dd1a7735");
    ("probabilistic/partrep3s", "eb43a07198236f6254aaad0e8a0364f4");
    ("rw/catalog4", "b50f509609f7742645929842defba6da");
    ("rw+faults/catalog4", "ca2356765293362bc6142c69802ec8a4");
  ]

let test_golden_digests () =
  let got = golden_digests () in
  check
    (Alcotest.list Alcotest.string)
    "entries" (List.map fst golden) (List.map fst got);
  List.iter2
    (fun (label, want) (_, digest) -> check Alcotest.string label want digest)
    golden got

(* ------------------------------------------------------------------ *)
(* Makespan ignores stale duplicate deliveries                          *)
(* ------------------------------------------------------------------ *)

(* Heavy duplication and loss, no crash or stall windows: a duplicated
   lock request can reach its manager after the last step completed.
   The dedup ignores it, and it must not stretch the makespan either. *)
let dup_plan seed =
  {
    Faults.none with
    Faults.dup = 0.9;
    loss = 0.6;
    retransmit = 8.0;
    horizon = 60.0;
    seed;
  }

let test_makespan_is_last_step () =
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let finished = ref 0 in
  for seed = 1 to 400 do
    let r = Runtime.run ~faults:(dup_plan seed) (Fixtures.rng seed) sys in
    match r.Runtime.outcome with
    | Runtime.Finished { makespan } ->
        incr finished;
        let last = (List.hd (List.rev r.Runtime.trace)).Runtime.time in
        check (Alcotest.float 0.0)
          (Printf.sprintf "runtime seed %d: makespan = last step" seed)
          last makespan
    | Runtime.Deadlock _ -> ()
  done;
  check bool_t "some runs finished" true (!finished > 50);
  (* A shared/exclusive system with only Write locks runs exactly as
     its exclusive abstraction, whose trace carries the times. *)
  let rw = catalog_readers ~mode:Ddlock_rw.Rw_txn.Write 3 in
  let excl = Ddlock_rw.Rw_system.to_exclusive rw in
  for seed = 1 to 400 do
    let r =
      Ddlock_rw.Rw_runtime.run ~faults:(dup_plan seed) (Fixtures.rng seed) rw
    in
    let x = Runtime.run ~faults:(dup_plan seed) (Fixtures.rng seed) excl in
    match (r.Ddlock_rw.Rw_runtime.outcome, x.Runtime.outcome) with
    | Ddlock_rw.Rw_runtime.Finished { makespan }, Runtime.Finished _ ->
        let last = (List.hd (List.rev x.Runtime.trace)).Runtime.time in
        check (Alcotest.float 0.0)
          (Printf.sprintf "rw seed %d: makespan = last step" seed)
          last makespan
    | Ddlock_rw.Rw_runtime.Deadlock _, Runtime.Deadlock _ -> ()
    | _ -> Alcotest.failf "rw seed %d: outcome differs from exclusive run" seed
  done

(* ------------------------------------------------------------------ *)
(* Wait-for arcs of a run cut off by max_time                           *)
(* ------------------------------------------------------------------ *)

let test_stuck_waits_name_entities () =
  (* Detect with a period longer than [max_time] never aborts, so the
     run executes exactly as the wait-forever runtime from the same seed
     and is cut off in the same deadlock. *)
  let sys = Ddlock_workload.Gentx.dining_philosophers 3 in
  let scheme = Recovery.Detect { period = 1e6 } in
  let cut = ref 0 in
  for seed = 1 to 30 do
    let r = Recovery.run ~scheme (Fixtures.rng seed) sys in
    let rt = Runtime.run (Fixtures.rng seed) sys in
    match rt.Runtime.outcome with
    | Runtime.Finished _ ->
        check bool_t "finished alike" false r.Recovery.stats.Recovery.timed_out
    | Runtime.Deadlock { waits_for; _ } ->
        incr cut;
        check bool_t "cut off" true r.Recovery.stats.Recovery.timed_out;
        let arcs = r.Recovery.stuck_waits in
        check bool_t "arcs reported" true (arcs <> []);
        check
          (Alcotest.list (Alcotest.triple int_t int_t int_t))
          "the runtime's wait-for arcs"
          (List.sort compare waits_for)
          (List.sort compare arcs);
        let done_ = Runtime.schedule_of_run rt in
        let executed t op e =
          List.exists
            (fun (s : Step.t) ->
              s.txn = t
              &&
              let nd = Transaction.node (System.txn sys t) s.node in
              nd.Node.entity = e && nd.Node.op = op)
            done_
        in
        List.iter
          (fun (w, e, h) ->
            check bool_t "valid entity" true
              (e >= 0 && e < Db.entity_count (System.db sys));
            check bool_t "waiter requests it" true
              (Transaction.accesses (System.txn sys w) e
              && not (executed w Node.Lock e));
            check bool_t "holder holds it" true
              (w <> h && executed h Node.Lock e
              && not (executed h Node.Unlock e)))
          arcs
  done;
  check bool_t "some runs cut off" true (!cut > 20)

(* ------------------------------------------------------------------ *)
(* Wound re-grant: a wounding requester re-applies the rule             *)
(* ------------------------------------------------------------------ *)

(* When a wound releases the entity and the release re-grants it to a
   queued waiter, the wounding requester must be judged against the new
   holder.  Queueing it unconditionally lets an older transaction wait
   behind a younger one, and that descending arc closes a wait-for
   cycle: the run starves.  These seeded partial-replication runs starve
   without the re-application (found by fuzzing). *)
let test_wound_regrant_pinned () =
  List.iter
    (fun (name, scheme, sites, entities, a, intensity) ->
      let rep =
        Ddlock_workload.Gentx.replicated_db ~sites ~entities ~replication:2
      in
      let sys =
        Ddlock_workload.Gentx.replicated_system
          (Random.State.make [| a |])
          rep ~txns:3 ~entities_per_txn:2
      in
      let faults =
        Faults.random
          (Random.State.make [| a; 1 |])
          (System.db sys) ~intensity ~horizon:30.0
      in
      let vs, _ =
        Chaos.run_case ~scheme ~faults (Random.State.make [| a; 2 |]) sys
      in
      check int_t (Printf.sprintf "%s a=%d: no violation" name a) 0
        (List.length vs))
    [
      ("probabilistic", Recovery.Probabilistic, 3, 3, 52, 0.0);
      ("probabilistic", Recovery.Probabilistic, 3, 3, 39, 0.8);
      ("wound-wait", Recovery.Wound_wait, 2, 2, 3091, 0.8);
      ("wound-wait", Recovery.Wound_wait, 2, 3, 18683, 0.8);
    ]

(* A transaction with no nodes has nothing to wait for: it counts as
   committed from the start under every policy. *)
let test_empty_transaction_commits () =
  let db = Db.one_site_per_entity [ "a" ] in
  let sys =
    System.create
      [ Builder.two_phase_chain db [ "a" ]; Transaction.make_exn db [||] [] ]
  in
  (match (Runtime.run (Fixtures.rng 1) sys).Runtime.outcome with
  | Runtime.Finished _ -> ()
  | Runtime.Deadlock _ -> Alcotest.fail "runtime: deadlock reported");
  List.iter
    (fun (name, scheme) ->
      let r = Recovery.run ~scheme (Fixtures.rng 1) sys in
      check int_t (name ^ ": commits") 2 r.Recovery.stats.Recovery.commits;
      check bool_t (name ^ ": not cut off") false
        r.Recovery.stats.Recovery.timed_out)
    Chaos.default_schemes

let qtests =
  List.map Fixtures.to_alcotest
    [
      pqueue_sorted_prop;
      certified_systems_clean_prop;
      trace_legal_prop;
      recovery_always_commits_prop;
      zipf_well_formed_prop;
      matrix_zero_intensity_prop;
    ]

let suite =
  [
    Alcotest.test_case "pqueue order" `Quick test_pqueue_order;
    Alcotest.test_case "pqueue fifo ties" `Quick test_pqueue_fifo_ties;
    Alcotest.test_case "runs complete" `Quick test_run_completes;
    Alcotest.test_case "philosophers deadlock observed" `Quick
      test_philosophers_deadlock_observed;
    Alcotest.test_case "batch stats" `Quick test_batch;
    Alcotest.test_case "recovery resolves philosophers" `Quick
      test_recovery_resolves_philosophers;
    Alcotest.test_case "recovery aborts happen" `Quick
      test_recovery_aborts_happen;
    Alcotest.test_case "recovery quiet when conflict-free" `Quick
      test_recovery_no_aborts_when_safe;
    Alcotest.test_case "detect fires only on cycles" `Quick
      test_detect_only_aborts_on_cycles;
    Alcotest.test_case "probabilistic never deadlocks" `Quick
      test_probabilistic_no_deadlock;
    Alcotest.test_case "probabilistic bounded starvation" `Quick
      test_probabilistic_bounded_starvation;
    Alcotest.test_case "zipf skews hot entities" `Quick
      test_zipf_skews_hot_entities;
    Alcotest.test_case "matrix scenarios survive chaos sweep" `Quick
      test_matrix_scenarios_chaos_clean;
    Alcotest.test_case "golden digests of seeded runs" `Quick
      test_golden_digests;
    Alcotest.test_case "makespan is the last step" `Quick
      test_makespan_is_last_step;
    Alcotest.test_case "stuck waits name entities" `Quick
      test_stuck_waits_name_entities;
    Alcotest.test_case "wound re-grant pinned" `Quick
      test_wound_regrant_pinned;
    Alcotest.test_case "empty transaction commits" `Quick
      test_empty_transaction_commits;
  ]
  @ qtests
