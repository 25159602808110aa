(* Benchmark & experiment harness.

   The paper (PODS'85/JCSS'86) is a theory paper with no measured tables;
   EXPERIMENTS.md defines experiments E1-E11 that operationalize its
   figures, theorems and complexity claims.  This executable regenerates
   every series:

   - agreement tables (polynomial algorithms vs exhaustive ground truth);
   - Bechamel micro-benchmarks for the polynomial kernels (Theorem 3,
     the O(n³) minimal-prefix ablation, Corollary 3, reduction graphs,
     DPLL, the Theorem-2 gadget construction);
   - wall-clock macro series for Theorem 4 (interaction-graph cycles),
     the exponential exhaustive searches, and the simulator.

   Run with:  dune exec bench/main.exe                 (everything)
              dune exec bench/main.exe -- SECTION...   (a subset)
   Sections: agreement micro theorem4 exhaustive sim crossover recovery
             faults sm geometry rw par obs sym serve matrix
*)

open Bechamel
open Toolkit
open Ddlock
module System = Model.System
module Transaction = Model.Transaction

let rng seed = Random.State.make [| seed; 0xbe7c4 |]

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                   *)
(* ------------------------------------------------------------------ *)

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let benchmark_and_print tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  List.iter
    (fun (name, v) ->
      let est =
        match Analyze.OLS.estimates v with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let unit, scale =
        if est > 1e9 then ("s ", 1e9)
        else if est > 1e6 then ("ms", 1e6)
        else if est > 1e3 then ("us", 1e3)
        else ("ns", 1.0)
      in
      Format.printf "  %-42s %10.2f %s/run%s@." name (est /. scale) unit
        (match Analyze.OLS.r_square v with
        | Some r when r < 0.9 -> Printf.sprintf "   (r²=%.2f)" r
        | _ -> ""))
    (List.sort compare rows)

let wall f =
  let t0 = Sys.time () in
  let r = f () in
  (r, (Sys.time () -. t0) *. 1000.0)

let header title = Format.printf "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* Agreement tables (E5-E10 correctness side)                          *)
(* ------------------------------------------------------------------ *)

let random_pair st = Workload.Gentx.small_random_pair st

let agreement () =
  header "E6/E7/E8 agreement: pair deciders vs exhaustive (500 random pairs)";
  let st = rng 1 in
  let n = 500 in
  let agree_t3 = ref 0 and agree_mp = ref 0 and positives = ref 0 in
  for _ = 1 to n do
    let sys = random_pair st in
    let t1 = System.txn sys 0 and t2 = System.txn sys 1 in
    let exh = Result.is_ok (Sched.Explore.safe_and_deadlock_free sys) in
    if exh then incr positives;
    if Safety.Pair.safe_and_deadlock_free t1 t2 = exh then incr agree_t3;
    if Safety.Minimal_prefix.safe_and_deadlock_free t1 t2 = exh then
      incr agree_mp
  done;
  Format.printf "  %-36s %4d/%d@." "Theorem 3 = exhaustive" !agree_t3 n;
  Format.printf "  %-36s %4d/%d@." "minimal-prefix = exhaustive" !agree_mp n;
  Format.printf "  %-36s %4d/%d@." "safe&DF systems in sample" !positives n;

  header "E10 agreement: Theorem 4 vs exhaustive (200 random 3-txn systems)";
  let st = rng 2 in
  let n = 200 in
  let agree = ref 0 in
  for _ = 1 to n do
    let sites = 1 + Random.State.int st 2 in
    let entities = 2 + Random.State.int st 2 in
    let db = Workload.Gentx.random_db ~sites ~entities in
    let density = Random.State.float st 0.5 in
    let sys =
      System.create
        (List.init 3 (fun _ ->
             Workload.Gentx.random_transaction st db
               ~entities:
                 (Workload.Gentx.random_entity_subset st db
                    ~k:(1 + Random.State.int st entities))
               ~density))
    in
    if
      Safety.Many.safe_and_deadlock_free sys
      = Result.is_ok (Sched.Explore.safe_and_deadlock_free sys)
    then incr agree
  done;
  Format.printf "  %-36s %4d/%d@." "Theorem 4 = exhaustive" !agree n;

  header "E1 agreement: Theorem 1 (deadlock ⇔ deadlock prefix, 200 pairs)";
  let st = rng 3 in
  let n = 200 in
  let agree = ref 0 and deadlocking = ref 0 in
  for _ = 1 to n do
    let sys = random_pair st in
    let a, b = Deadlock.Theorem1.verdicts sys in
    if a = b then incr agree;
    if not a then incr deadlocking
  done;
  Format.printf "  %-36s %4d/%d@." "schedule-search = prefix-search" !agree n;
  Format.printf "  %-36s %4d/%d@." "deadlocking systems in sample" !deadlocking
    n;

  header "E4 agreement: Theorem 2 reduction vs DPLL (100 random 3SAT')";
  let st = rng 4 in
  let n = 100 in
  let ok = ref 0 and sat = ref 0 in
  for _ = 1 to n do
    let f = Conp.Gen3sat.generate st ~n_vars:(3 + Random.State.int st 5) in
    match Conp.Dpll.solve f with
    | None -> incr ok (* nothing to verify constructively *)
    | Some model -> (
        incr sat;
        let r = Conp.Reduction_sat.build f in
        match Conp.Reduction_sat.deadlock_witness r model with
        | Some (_, cycle)
          when Conp.Formula.satisfies
                 (Conp.Reduction_sat.assignment_of_cycle r cycle)
                 f ->
            incr ok
        | _ -> ())
  done;
  Format.printf "  %-36s %4d/%d@." "model ⇒ deadlock prefix ⇒ model" !ok n;
  Format.printf "  %-36s %4d/%d@." "satisfiable in sample" !sat n

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "E7 Theorem 3 pair test — O(n²) scaling (n = entities)";
  let tests =
    List.map
      (fun n ->
        let t1, t2 = Workload.Gentx.chain_pair n in
        Test.make
          ~name:(Printf.sprintf "pair/theorem3/n=%d" n)
          (Staged.stage (fun () ->
               ignore (Safety.Pair.safe_and_deadlock_free t1 t2))))
      [ 32; 64; 128; 256 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"theorem3" tests);

  header "E8 ablation: O(n³) minimal-prefix algorithm on the same inputs";
  let tests =
    List.map
      (fun n ->
        let t1, t2 = Workload.Gentx.chain_pair n in
        Test.make
          ~name:(Printf.sprintf "pair/minimal-prefix/n=%d" n)
          (Staged.stage (fun () ->
               ignore (Safety.Minimal_prefix.safe_and_deadlock_free t1 t2))))
      [ 32; 64; 128 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"minimal-prefix" tests);

  header "E9 Corollary 3 copies test";
  let tests =
    List.map
      (fun n ->
        let t = Workload.Gentx.guard_ring n in
        Test.make
          ~name:(Printf.sprintf "copies/corollary3/k=%d" n)
          (Staged.stage (fun () ->
               ignore (Safety.Copies.safe_and_deadlock_free t))))
      [ 32; 128; 512 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"copies" tests);

  header "E1 reduction-graph construction + cycle check (k-ring, 3 copies)";
  let tests =
    List.map
      (fun k ->
        let t = Workload.Gentx.guard_ring k in
        let sys = System.copies t 3 in
        (* Prefix: copy i holds entity i. *)
        let p = Sched.State.initial sys in
        for i = 0 to 2 do
          Ddlock_graph.Bitset.set p.(i) (Transaction.lock_node_exn t i)
        done;
        Test.make
          ~name:(Printf.sprintf "reduction-graph/k=%d" k)
          (Staged.stage (fun () ->
               ignore
                 (Deadlock.Reduction.has_cycle (Deadlock.Reduction.make sys p)))))
      [ 8; 32; 128 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"reduction" tests);

  header "E4 DPLL and Theorem-2 gadget construction (random 3SAT', n vars)";
  let st = rng 5 in
  let dpll_tests =
    List.map
      (fun n ->
        let f = Conp.Gen3sat.generate st ~n_vars:n in
        Test.make
          ~name:(Printf.sprintf "dpll/n=%d" n)
          (Staged.stage (fun () -> ignore (Conp.Dpll.satisfiable f))))
      [ 10; 20; 40 ]
  in
  let build_tests =
    List.map
      (fun n ->
        let f = Conp.Gen3sat.generate st ~n_vars:n in
        Test.make
          ~name:(Printf.sprintf "reduction-build/n=%d" n)
          (Staged.stage (fun () -> ignore (Conp.Reduction_sat.build f))))
      [ 5; 10; 20 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"conp" (dpll_tests @ build_tests));

  header "substrate: transitive closure (random DAG, n nodes)";
  let st = rng 6 in
  let tests =
    List.map
      (fun n ->
        let edges = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Random.State.float st 1.0 < 0.05 then edges := (u, v) :: !edges
          done
        done;
        let g = Ddlock_graph.Digraph.create n !edges in
        Test.make
          ~name:(Printf.sprintf "closure/n=%d" n)
          (Staged.stage (fun () -> ignore (Ddlock_graph.Closure.closure g))))
      [ 64; 256; 1024 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"closure" tests)

(* ------------------------------------------------------------------ *)
(* Theorem 4 macro series                                              *)
(* ------------------------------------------------------------------ *)

let theorem4 () =
  header "E10 Theorem 4 vs interaction-graph cycles (philosopher rings)";
  Format.printf "  %-10s %-12s %-12s %-12s@." "k" "candidates" "verdict"
    "time (ms)";
  List.iter
    (fun k ->
      let sys = Workload.Gentx.dining_philosophers k in
      let candidates = Safety.Many.candidate_count sys in
      let verdict, ms =
        wall (fun () -> Safety.Many.safe_and_deadlock_free sys)
      in
      Format.printf "  %-10d %-12d %-12s %-12.2f@." k candidates
        (if verdict then "safe&DF" else "violation")
        ms)
    [ 3; 4; 5; 6; 8; 10; 12 ];

  Format.printf
    "@.  dense interaction graphs (philosophers + one hot transaction):@.";
  Format.printf "  %-10s %-12s %-12s@." "k" "cycles" "time (ms)";
  List.iter
    (fun k ->
      let base = Workload.Gentx.dining_philosophers k in
      let db = System.db base in
      let all_forks = List.init k (fun i -> "f" ^ string_of_int i) in
      let hot = Model.Builder.two_phase_chain db all_forks in
      let sys = System.create (Array.to_list (System.txns base) @ [ hot ]) in
      let cycles =
        Seq.length (Ddlock_graph.Ungraph.cycles (System.interaction_graph sys))
      in
      let _, ms = wall (fun () -> Safety.Many.safe_and_deadlock_free sys) in
      Format.printf "  %-10d %-12d %-12.2f@." k cycles ms)
    [ 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Exhaustive-search scaling (the coNP-hardness shape)                 *)
(* ------------------------------------------------------------------ *)

let exhaustive () =
  header "E2/E4 exhaustive search blow-up (reachable states)";
  Format.printf "  %-26s %-12s %-12s@." "system" "states" "time (ms)";
  List.iter
    (fun k ->
      let sys = Workload.Gentx.dining_philosophers k in
      let sp, ms = wall (fun () -> Sched.Explore.explore sys) in
      Format.printf "  %-26s %-12d %-12.2f@."
        (Printf.sprintf "philosophers k=%d" k)
        (Sched.Explore.state_count sp)
        ms)
    [ 2; 3; 4; 5; 6 ];
  List.iter
    (fun k ->
      let t = Workload.Gentx.guard_ring k in
      let sys = System.copies t 2 in
      let sp, ms = wall (fun () -> Sched.Explore.explore sys) in
      Format.printf "  %-26s %-12d %-12.2f@."
        (Printf.sprintf "2 copies of %d-ring" k)
        (Sched.Explore.state_count sp)
        ms)
    [ 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Crossover: polynomial vs exhaustive on the same instances           *)
(* ------------------------------------------------------------------ *)

let crossover () =
  header "E7 crossover: Theorem 3 vs exhaustive on growing chain pairs";
  Format.printf "  %-8s %-16s %-16s@." "n" "theorem3 (ms)" "exhaustive (ms)";
  List.iter
    (fun n ->
      let t1, t2 = Workload.Gentx.chain_pair n in
      let sys = System.create [ t1; t2 ] in
      let _, fast =
        wall (fun () -> Safety.Pair.safe_and_deadlock_free t1 t2)
      in
      let _, slow = wall (fun () -> Sched.Explore.safe_and_deadlock_free sys) in
      Format.printf "  %-8d %-16.3f %-16.3f@." n fast slow)
    [ 2; 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* Simulator                                                           *)
(* ------------------------------------------------------------------ *)

let sim () =
  header "E11 simulator: certified vs deadlocking workloads (200 runs each)";
  Format.printf "  %-26s %-12s %-16s %-12s@." "workload" "deadlocks"
    "non-serializable" "time (ms)";
  let bench name sys =
    let st = rng 7 in
    let stats, ms = wall (fun () -> Sim.Runtime.batch st sys ~runs:200) in
    Format.printf "  %-26s %-12d %-16d %-12.2f@." name
      stats.Sim.Runtime.deadlocks stats.Sim.Runtime.non_serializable ms
  in
  let db = Model.Db.one_site_per_entity [ "a"; "b"; "c"; "d" ] in
  let ordered =
    System.create
      (List.init 4 (fun _ ->
           Model.Builder.two_phase_chain db [ "a"; "b"; "c"; "d" ]))
  in
  bench "ordered 2PL x4 (safe&DF)" ordered;
  bench "philosophers k=5" (Workload.Gentx.dining_philosophers 5);
  bench "3 copies of 3-ring" (System.copies (Workload.Gentx.guard_ring 3) 3);
  bench "2 copies of 4-ring (Fig2)" (System.copies (Workload.Gentx.guard_ring 4) 2)

(* ------------------------------------------------------------------ *)
(* [SM] fixed transactions + fixed sites: polynomial exhaustive method *)
(* ------------------------------------------------------------------ *)

let sm_fixed () =
  header
    "E15 [SM]: exhaustive deadlock test is polynomial for fixed (txns, sites)";
  Format.printf
    "  2 transactions over s sites, n entities each (states ~ n^(2s)):@.";
  Format.printf "  %-8s %-8s %-12s %-12s %-10s@." "s" "n" "states" "time (ms)"
    "growth";
  let prev = ref 0.0 in
  List.iter
    (fun (s, n) ->
      let db = Workload.Gentx.random_db ~sites:s ~entities:n in
      let st = rng 9 in
      let all = List.init n Fun.id in
      let mk () =
        Workload.Gentx.random_transaction st db ~entities:all ~density:0.0
      in
      let sys = System.create [ mk (); mk () ] in
      let sp, ms = wall (fun () -> Sched.Explore.explore sys) in
      let states = float_of_int (Sched.Explore.state_count sp) in
      Format.printf "  %-8d %-8d %-12.0f %-12.2f %-10s@." s n states ms
        (if !prev > 0.0 then Printf.sprintf "%.1fx" (states /. !prev) else "-");
      prev := states)
    [ (1, 4); (1, 8); (1, 16); (2, 4); (2, 8); (2, 16); (3, 6); (3, 12) ]

(* ------------------------------------------------------------------ *)
(* Geometry ([LP]/[SW]) micro benchmarks                               *)
(* ------------------------------------------------------------------ *)

let geometry () =
  header "E16 geometric deciders for centralized pairs ([LP]/[SW])";
  let centralized_chain_pair n =
    let db =
      Model.Db.single_site (List.init n (fun i -> "e" ^ string_of_int i))
    in
    let names = List.init n (fun i -> "e" ^ string_of_int i) in
    ( Model.Builder.two_phase_chain db names,
      Model.Builder.two_phase_chain db (List.rev names) )
  in
  let tests =
    List.concat_map
      (fun n ->
        let t1, t2 = centralized_chain_pair n in
        [
          Test.make
            ~name:(Printf.sprintf "geometry/deadlock/n=%d" n)
            (Staged.stage (fun () -> ignore (Safety.Geometry.deadlock_free t1 t2)));
          Test.make
            ~name:(Printf.sprintf "geometry/safe/n=%d" n)
            (Staged.stage (fun () -> ignore (Safety.Geometry.safe t1 t2)));
        ])
      [ 16; 32; 64 ]
  in
  benchmark_and_print (Test.make_grouped ~name:"geometry" tests)

(* ------------------------------------------------------------------ *)
(* Recovery schemes                                                    *)
(* ------------------------------------------------------------------ *)

let recovery () =
  header
    "E12 runtime deadlock handling: wound-wait / wait-die / detect (RSL'78)";
  Format.printf "  %-26s %-12s %-10s %-10s %-12s@." "workload" "scheme"
    "aborts" "timeouts" "makespan";
  let schemes =
    [
      ("wait-die", Sim.Recovery.Wait_die);
      ("wound-wait", Sim.Recovery.Wound_wait);
      ("detect(5)", Sim.Recovery.Detect { period = 5.0 });
    ]
  in
  let bench name sys =
    List.iter
      (fun (sname, scheme) ->
        let st = rng 8 in
        let stats = Sim.Recovery.batch ~scheme st sys ~runs:100 in
        Format.printf "  %-26s %-12s %-10d %-10d %-12.2f@." name sname
          stats.Sim.Recovery.total_aborts stats.Sim.Recovery.timeouts
          stats.Sim.Recovery.mean_makespan)
      schemes
  in
  bench "philosophers k=5" (Workload.Gentx.dining_philosophers 5);
  bench "3 copies of 3-ring" (System.copies (Workload.Gentx.guard_ring 3) 3);
  let db = Model.Db.one_site_per_entity [ "a"; "b"; "c"; "d" ] in
  bench "ordered 2PL x4 (safe&DF)"
    (System.create
       (List.init 4 (fun _ ->
            Model.Builder.two_phase_chain db [ "a"; "b"; "c"; "d" ])))

(* ------------------------------------------------------------------ *)
(* Fault injection: recovery schemes under increasing fault rates      *)
(* ------------------------------------------------------------------ *)

let faults () =
  header
    "E19 fault injection: scheme robustness vs fault-plan severity \
     (philosophers k=5, 100 runs per cell)";
  Format.printf "  %-10s %-12s %-10s %-8s %-10s %-12s@." "intensity" "scheme"
    "commit%" "aborts" "max/txn" "makespan";
  let sys = Workload.Gentx.dining_philosophers 5 in
  let schemes =
    [
      ("wait-die", Sim.Recovery.Wait_die);
      ("wound-wait", Sim.Recovery.Wound_wait);
      ("detect(5)", Sim.Recovery.Detect { period = 5.0 });
      ("timeout", Sim.Recovery.default_timeout);
    ]
  in
  List.iter
    (fun intensity ->
      let plan =
        Sim.Faults.random (rng 11) (System.db sys) ~intensity ~horizon:40.0
      in
      List.iter
        (fun (sname, scheme) ->
          let st = rng 12 in
          let stats = Sim.Recovery.batch ~scheme ~faults:plan st sys ~runs:100 in
          let commits =
            100.0
            *. float_of_int (stats.Sim.Recovery.runs - stats.Sim.Recovery.timeouts)
            /. float_of_int stats.Sim.Recovery.runs
          in
          Format.printf "  %-10.2f %-12s %-10.0f %-8d %-10d %-12.2f@." intensity
            sname commits stats.Sim.Recovery.total_aborts
            stats.Sim.Recovery.max_aborts_single_txn
            stats.Sim.Recovery.mean_makespan)
        schemes)
    [ 0.0; 0.2; 0.4; 0.6; 0.8 ]

(* ------------------------------------------------------------------ *)
(* Parallel exploration: jobs sweep on the biggest state spaces        *)
(* ------------------------------------------------------------------ *)

(* [Sys.time] measures CPU time summed over domains, which makes a
   parallel run look slower the better it scales; the jobs sweep needs
   wall clock. *)
let wall_clock f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let par () =
  header "E20 parallel exploration: work-stealing jobs sweep vs sequential FIFO";
  (* The physical parallelism actually available to the run: speedups in
     BENCH_par.json are only meaningful relative to this. *)
  let cores = Domain.recommended_domain_count () in
  Format.printf "  recommended domain count on this machine: %d@." cores;
  let jobs_list = [ 1; 2; 4; 8 ] in
  let workloads =
    [
      ("philosophers k=5", Workload.Gentx.dining_philosophers 5);
      ("philosophers k=6", Workload.Gentx.dining_philosophers 6);
      ("2 copies of 6-ring", System.copies (Workload.Gentx.guard_ring 6) 2);
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"bench\": \"par\",\n  \"cores\": %d,\n  \"series\": [" cores);
  Format.printf "  %-22s %-10s %-6s %-10s %-8s@." "workload" "states" "jobs"
    "ms" "vs seq";
  List.iteri
    (fun wi (name, sys) ->
      (* Sequential reference (the FIFO policy, which is also what
         [`Deterministic] runs at every jobs): states and wall time. *)
      let seq_space, seq_ms = wall_clock (fun () -> Sched.Explore.explore sys) in
      let seq_states = Sched.Explore.state_count seq_space in
      Format.printf "  %-22s %-10d %-6s %-10.1f %-8s@." name seq_states "seq"
        seq_ms "1.00x";
      if wi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"workload\": %S, \"states\": %d, \"seq_ms\": %.2f, \"runs\": ["
           name seq_states seq_ms);
      List.iteri
        (fun ji jobs ->
          (* Same space on the work-stealing policy: identical state
             count, different (unordered) discovery. *)
          let fspace, fast_ms =
            wall_clock (fun () ->
                Par.Par_explore.explore ~mode:`Fast ~jobs sys)
          in
          let states = Par.Par_explore.state_count fspace in
          assert (states = seq_states);
          let fast_speedup = seq_ms /. fast_ms in
          Format.printf "  %-22s %-10d %-6d %-10.1f %-8s@." "" states jobs
            fast_ms
            (Printf.sprintf "%.2fx" fast_speedup);
          if ji > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf
               "\n      { \"jobs\": %d, \"fast_ms\": %.2f, \"fast_speedup\": %.2f }"
               jobs fast_ms fast_speedup))
        jobs_list;
      Buffer.add_string buf "\n    ] }")
    workloads;
  (* Theorem-1 prefix search with the predicate evaluated in parallel. *)
  (match Analysis.repair_with_global_order (Workload.Gentx.dining_philosophers 6) with
  | None -> ()
  | Some repaired ->
      Format.printf "@.  prefix search (repaired philosophers k=6, deadlock-free):@.";
      let df, ms =
        wall_clock (fun () -> Deadlock.Prefix_search.deadlock_free repaired)
      in
      assert df;
      Format.printf "  %-22s %-10s %-6s %-10.1f@." "prefix-search" "-" "seq" ms;
      List.iter
        (fun jobs ->
          let fdf, fms =
            wall_clock (fun () ->
                Deadlock.Prefix_search.deadlock_free ~fast:true ~jobs repaired)
          in
          assert fdf;
          Format.printf "  %-22s %-10s %-6d %-10.1f@." "prefix-search" "-" jobs
            fms)
        jobs_list);
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_par.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "  wrote BENCH_par.json@."

(* ------------------------------------------------------------------ *)
(* Observability overhead: telemetry on vs off on the same search      *)
(* ------------------------------------------------------------------ *)

let obs () =
  header "E21 observability overhead: telemetry on vs off (jobs=1)";
  let workloads =
    [
      ("philosophers k=5", Workload.Gentx.dining_philosophers 5);
      ("philosophers k=6", Workload.Gentx.dining_philosophers 6);
      ("2 copies of 5-ring", System.copies (Workload.Gentx.guard_ring 5) 2);
    ]
  in
  (* Best-of-k wall clock: the quantity of interest is the cost the
     instrumentation adds to the hot path, so take the minimum, which
     strips scheduler noise. *)
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let _, ms = wall_clock f in
      if ms < !best then best := ms
    done;
    !best
  in
  Format.printf "  %-22s %-12s %-12s %-10s@." "workload" "off (ms)" "on (ms)"
    "overhead";
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"bench\": \"obs\",\n  \"series\": [";
  List.iteri
    (fun i (name, sys) ->
      let body () = ignore (Sched.Explore.explore sys) in
      Obs.Control.off ();
      body ();
      (* warm-up *)
      let off_ms = best_of 5 body in
      Obs.Metrics.reset ();
      Obs.Trace.clear ();
      Obs.Control.on ();
      let on_ms = best_of 5 body in
      Obs.Control.off ();
      Obs.Metrics.reset ();
      Obs.Trace.clear ();
      let overhead = 100.0 *. (on_ms -. off_ms) /. off_ms in
      Format.printf "  %-22s %-12.2f %-12.2f %+.1f%%@." name off_ms on_ms
        overhead;
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"workload\": %S, \"off_ms\": %.3f, \"on_ms\": %.3f, \
            \"overhead_pct\": %.2f }"
           name off_ms on_ms overhead))
    workloads;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "  wrote BENCH_obs.json@."

(* ------------------------------------------------------------------ *)
(* Symmetry reduction: orbit-quotient state counts vs copies           *)
(* ------------------------------------------------------------------ *)

let sym () =
  header "E22 symmetry reduction: states visited, plain vs orbit quotient";
  (* Copies of a guard ring are the worst case the paper's counterexample
     figures are built from, and the best case for symmetry: the whole
     automorphism group is the symmetric group on the copies, so the
     quotient approaches raw/c! as the copies stop interacting. *)
  let workloads =
    List.map
      (fun c -> (Printf.sprintf "%d copies of 3-ring" c, System.copies (Workload.Gentx.guard_ring 3) c, c))
      [ 2; 3; 4 ]
    @ List.map
        (fun c -> (Printf.sprintf "%d copies of 2-ring" c, System.copies (Workload.Gentx.guard_ring 2) c, c))
        [ 2; 3; 4; 5; 6 ]
    (* Philosophers have pairwise-distinct transactions: the group is
       trivial and --symmetry must degrade to a no-op (factor 1.0). *)
    @ [ ("philosophers k=4 (no-op)", Workload.Gentx.dining_philosophers 4, 1) ]
  in
  Format.printf "  %-26s %-8s %-10s %-10s %-8s %-12s %-12s@." "workload"
    "copies" "raw" "reduced" "factor" "raw (ms)" "sym (ms)";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"sym\",\n  \"series\": [";
  List.iteri
    (fun i (name, sys, copies) ->
      let raw_space, raw_ms = wall_clock (fun () -> Sched.Explore.explore sys) in
      let raw = Sched.Explore.state_count raw_space in
      let sym_space, sym_ms =
        wall_clock (fun () -> Sched.Explore.explore ~symmetry:true sys)
      in
      let reduced = Sched.Explore.state_count sym_space in
      let orbit = Sched.Canon.orbit_size (Sched.Canon.detect sys) in
      assert (reduced <= raw && raw <= reduced * orbit);
      let factor = float_of_int raw /. float_of_int reduced in
      Format.printf "  %-26s %-8d %-10d %-10d %-8.2f %-12.2f %-12.2f@." name
        copies raw reduced factor raw_ms sym_ms;
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"workload\": %S, \"copies\": %d, \"orbit\": %d, \
            \"raw_states\": %d, \"sym_states\": %d, \"factor\": %.2f, \
            \"raw_ms\": %.2f, \"sym_ms\": %.2f }"
           name copies orbit raw reduced factor raw_ms sym_ms))
    workloads;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_sym.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "  wrote BENCH_sym.json@."

(* ------------------------------------------------------------------ *)
(* Partial-order reduction: persistent/sleep-set state counts          *)
(* ------------------------------------------------------------------ *)

let por () =
  header
    "E24 partial-order reduction: states visited, plain vs persistent/sleep \
     sets";
  (* Asymmetric workloads are where POR earns its keep: philosophers are
     pairwise distinct (trivial automorphism group, so --symmetry is a
     no-op, factor 1.0 in BENCH_sym.json) yet almost all interleavings
     of far-apart philosophers commute.  Single guard-ring transactions
     have wide diamonds and no copies at all.  The copies workload shows
     the reduction composing with a nontrivial group. *)
  let workloads =
    List.map
      (fun k ->
        ( Printf.sprintf "philosophers k=%d" k,
          Workload.Gentx.dining_philosophers k ))
      [ 4; 5; 6 ]
    @ [
        ("single 6-ring txn", System.create [ Workload.Gentx.guard_ring 6 ]);
        ("single 8-ring txn", System.create [ Workload.Gentx.guard_ring 8 ]);
        ("2 copies of 4-ring", System.copies (Workload.Gentx.guard_ring 4) 2);
      ]
  in
  Format.printf "  %-22s %-10s %-10s %-8s %-10s %-12s %-12s@." "workload"
    "plain" "reduced" "factor" "sym-fact" "plain (ms)" "por (ms)";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"bench\": \"por\",\n  \"series\": [";
  List.iteri
    (fun i (name, sys) ->
      let plain_space, plain_ms =
        wall_clock (fun () -> Sched.Explore.explore sys)
      in
      let plain = Sched.Explore.state_count plain_space in
      let por_space, por_ms =
        wall_clock (fun () -> Sched.Explore.explore ~por:true sys)
      in
      let reduced = Sched.Explore.state_count por_space in
      let sym_states =
        Sched.Explore.state_count (Sched.Explore.explore ~symmetry:true sys)
      in
      assert (reduced <= plain);
      assert (
        Sched.Explore.deadlock_free ~por:true sys
        = Sched.Explore.deadlock_free sys);
      let factor = float_of_int plain /. float_of_int reduced in
      let sym_factor = float_of_int plain /. float_of_int sym_states in
      Format.printf "  %-22s %-10d %-10d %-8.2f %-10.2f %-12.2f %-12.2f@."
        name plain reduced factor sym_factor plain_ms por_ms;
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"workload\": %S, \"plain_states\": %d, \
            \"por_states\": %d, \"factor\": %.2f, \"sym_factor\": %.2f, \
            \"plain_ms\": %.2f, \"por_ms\": %.2f }"
           name plain reduced factor sym_factor plain_ms por_ms))
    workloads;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_por.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "  wrote BENCH_por.json@."

(* ------------------------------------------------------------------ *)
(* Analysis daemon: served latency and verdict-cache collapse          *)
(* ------------------------------------------------------------------ *)

let json_counter key s =
  (* Extract ["key": N] from the daemon's one-line stats JSON. *)
  let needle = Printf.sprintf "\"%s\": " key in
  let nl = String.length needle and n = String.length s in
  let rec find i =
    if i + nl > n then None
    else if String.sub s i nl = needle then Some (i + nl)
    else find (i + 1)
  in
  match find 0 with
  | None -> 0
  | Some i ->
      let j = ref i in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub s i (!j - i))

let serve_bench () =
  header "E23 analysis daemon: served latency, cache collapse, zipf workload";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddlock-bench-%d.sock" (Unix.getpid ()))
  in
  let t =
    Ddlock_serve.Server.start
      { (Ddlock_serve.Server.default_config ~socket_path:socket) with
        Ddlock_serve.Server.cache_cap = 256 }
  in
  Fun.protect
    ~finally:(fun () ->
      Ddlock_serve.Server.request_stop t;
      Ddlock_serve.Server.wait t)
  @@ fun () ->
  let analyze source =
    let t0 = Unix.gettimeofday () in
    match Ddlock_serve.Client.analyze ~socket source with
    | Ok (Ddlock_serve.Client.Verdict _) -> (Unix.gettimeofday () -. t0) *. 1000.0
    | _ -> failwith "bench serve: daemon did not return a verdict"
  in
  (* K-copies workload: many clients submitting permuted renderings of
     the same few copies-of-a-ring systems.  Canon.system_key collapses
     the permutations, so everything after the first sighting of each
     shape must be a cache hit (the ISSUE floor is a 90% hit rate). *)
  let st = rng 23 in
  let bases =
    [
      System.copies (Workload.Gentx.guard_ring 3) 2;
      System.copies (Workload.Gentx.guard_ring 3) 3;
      System.copies (Workload.Gentx.guard_ring 4) 2;
    ]
  in
  let permuted_source sys =
    let named =
      Array.of_list
        (List.mapi
           (fun i txn -> (Printf.sprintf "T%d" (i + 1), txn))
           (Array.to_list (System.txns sys)))
    in
    (* Shuffle which copy gets which name: a different source text with
       the same structural key. *)
    let txns = Array.map snd named in
    for i = Array.length txns - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let tmp = txns.(i) in
      txns.(i) <- txns.(j);
      txns.(j) <- tmp
    done;
    Model.Parser.to_source (System.db sys)
      (Array.to_list (Array.mapi (fun i txn -> (fst named.(i), txn)) txns))
  in
  let requests = 48 in
  let lat = Array.make requests 0.0 in
  for i = 0 to requests - 1 do
    lat.(i) <- analyze (permuted_source (List.nth bases (i mod List.length bases)))
  done;
  let stats = Ddlock_serve.Server.stats_json t in
  let hits = json_counter "cache_hits" stats in
  let misses = json_counter "cache_misses" stats in
  let hit_rate = float_of_int hits /. float_of_int (hits + misses) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
  let miss_lat = Array.sub lat 0 (List.length bases) in
  let hit_lat = Array.sub lat (List.length bases) (requests - List.length bases) in
  Format.printf
    "  k-copies stream: %d requests over %d shapes: %d hits / %d misses \
     (%.0f%% hit rate)@."
    requests (List.length bases) hits misses (100.0 *. hit_rate);
  Format.printf "  mean served latency: %.2f ms cold, %.3f ms cached@."
    (mean miss_lat) (mean hit_lat);
  assert (hit_rate >= 0.9);
  (* Zipf hotspot workload: fresh systems (all cache misses) across the
     contention spectrum, uniform to heavily skewed. *)
  let zipf_rows =
    List.map
      (fun theta ->
        let sys =
          Workload.Gentx.zipf_system st ~sites:2 ~entities:5 ~txns:4 ~theta
        in
        let ms = analyze (Model.Parser.to_source (System.db sys)
                            (List.mapi (fun i txn -> (Printf.sprintf "T%d" (i + 1), txn))
                               (Array.to_list (System.txns sys))))
        in
        Format.printf "  zipf theta=%-4.1f served in %.2f ms@." theta ms;
        (theta, ms))
      [ 0.0; 0.8; 1.5 ]
  in
  (* Tracing overhead on the served path: the same cached request with
     the Obs switch off vs on.  With tracing on every request records a
     span tree and retires it into the rings, so this measures the whole
     per-request observability cost (ISSUE 9 budget: <= 5%). *)
  let overhead_src =
    Model.Parser.to_source
      (System.db (List.hd bases))
      (List.mapi
         (fun i txn -> (Printf.sprintf "T%d" (i + 1), txn))
         (Array.to_list (System.txns (List.hd bases))))
  in
  ignore (analyze overhead_src);
  (* primed *)
  let timed_cached n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (analyze overhead_src)
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int n
  in
  Obs.Control.off ();
  ignore (timed_cached 50);
  (* warm-up *)
  let off_ms = timed_cached 200 in
  Obs.Metrics.reset ();
  Obs.Trace.clear ();
  Obs.Control.on ();
  let on_ms = timed_cached 200 in
  Obs.Control.off ();
  Obs.Metrics.reset ();
  Obs.Trace.clear ();
  let overhead_pct = 100.0 *. (on_ms -. off_ms) /. off_ms in
  Format.printf
    "  tracing overhead (cached request): %.3f ms off, %.3f ms on \
     (%+.1f%%)@."
    off_ms on_ms overhead_pct;
  (* Saturation sweep: fresh systems (all cache misses) offered at an
     increasing open-loop rate until the bounded admission queue starts
     rejecting.  Sources are pre-generated so the submitter threads only
     pace and send. *)
  let fresh_sources n =
    Array.init n (fun _ ->
        let sys =
          Workload.Gentx.zipf_system st ~sites:2 ~entities:6 ~txns:5
            ~theta:0.8
        in
        Model.Parser.to_source (System.db sys)
          (List.mapi
             (fun i txn -> (Printf.sprintf "T%d" (i + 1), txn))
             (Array.to_list (System.txns sys))))
  in
  let saturation_point rate =
    let window = 0.6 in
    let n = max 1 (int_of_float (rate *. window)) in
    let sources = fresh_sources n in
    let results = Array.make n `Pending in
    let threads =
      List.init n (fun i ->
          Thread.create
            (fun () ->
              Thread.delay (float_of_int i /. rate);
              let t0 = Unix.gettimeofday () in
              results.(i) <-
                (match Ddlock_serve.Client.analyze ~socket sources.(i) with
                | Ok (Ddlock_serve.Client.Verdict _) ->
                    `Ok ((Unix.gettimeofday () -. t0) *. 1000.0)
                | Ok (Ddlock_serve.Client.Busy _) -> `Busy
                | Ok Ddlock_serve.Client.Timeout -> `Timeout
                | _ -> `Err))
            ())
    in
    let t0 = Unix.gettimeofday () in
    List.iter Thread.join threads;
    let elapsed = Unix.gettimeofday () -. t0 in
    let oks =
      Array.to_list results
      |> List.filter_map (function `Ok ms -> Some ms | _ -> None)
      |> List.sort compare |> Array.of_list
    in
    let count p = Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 results in
    let busy = count (function `Busy -> true | _ -> false) in
    let quant q =
      if Array.length oks = 0 then 0.0
      else oks.(min (Array.length oks - 1)
                  (int_of_float (q *. float_of_int (Array.length oks))))
    in
    ( n,
      float_of_int (Array.length oks) /. elapsed,
      float_of_int busy /. float_of_int n,
      quant 0.5,
      quant 0.99 )
  in
  Format.printf "  %-14s %-14s %-10s %-10s %-10s@." "offered req/s"
    "served req/s" "busy" "p50 ms" "p99 ms";
  let saturation_rows =
    let rec sweep acc = function
      | [] -> List.rev acc
      | rate :: rest ->
          let n, achieved, busy_rate, p50, p99 = saturation_point rate in
          Format.printf "  %-14.0f %-14.1f %-10.2f %-10.2f %-10.2f@." rate
            achieved busy_rate p50 p99;
          let acc = (rate, n, achieved, busy_rate, p50, p99) :: acc in
          (* Past busy onset the queue is already the bottleneck; higher
             offered rates only add rejected requests. *)
          if busy_rate > 0.2 then List.rev acc else sweep acc rest
    in
    sweep [] [ 25.0; 50.0; 100.0; 200.0; 400.0 ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"bench\": \"serve\",\n  \"kcopies\": { \"requests\": %d, \
        \"shapes\": %d, \"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f, \
        \"cold_ms\": %.3f, \"cached_ms\": %.4f },\n  \"zipf\": ["
       requests (List.length bases) hits misses hit_rate (mean miss_lat)
       (mean hit_lat));
  List.iteri
    (fun i (theta, ms) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"theta\": %.1f, \"ms\": %.3f }" theta ms))
    zipf_rows;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"tracing_overhead\": { \"off_ms\": %.4f, \"on_ms\": \
        %.4f, \"overhead_pct\": %.2f },\n  \"saturation\": ["
       off_ms on_ms overhead_pct);
  List.iteri
    (fun i (rate, n, achieved, busy_rate, p50, p99) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n    { \"offered_rps\": %.0f, \"requests\": %d, \
            \"served_rps\": %.1f, \"busy_rate\": %.3f, \"p50_ms\": %.3f, \
            \"p99_ms\": %.3f }"
           rate n achieved busy_rate p50 p99))
    saturation_rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Format.printf "  wrote BENCH_serve.json@."

(* ------------------------------------------------------------------ *)
(* Read/write modes: readers-share speedup                             *)
(* ------------------------------------------------------------------ *)

let rw_modes () =
  header "E17 read/write modes: catalog-reader workload, rw vs exclusive";
  Format.printf "  %-6s %-18s %-18s %-10s@." "k" "exclusive makespan"
    "rw makespan" "speedup";
  List.iter
    (fun k ->
      let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
      let db = Model.Db.one_site_per_entity names in
      let catalog = Model.Db.find_entity_exn db "catalog" in
      let mk i =
        let row = Model.Db.find_entity_exn db ("row" ^ string_of_int i) in
        match
          Rw.Rw_txn.of_total_order db
            [
              { Rw.Rw_txn.entity = catalog; op = Rw.Rw_txn.Lock Rw.Rw_txn.Read };
              { Rw.Rw_txn.entity = row; op = Rw.Rw_txn.Lock Rw.Rw_txn.Write };
              { Rw.Rw_txn.entity = catalog; op = Rw.Rw_txn.Unlock };
              { Rw.Rw_txn.entity = row; op = Rw.Rw_txn.Unlock };
            ]
        with
        | Ok t -> t
        | Error _ -> assert false
      in
      let rw_sys = Rw.Rw_system.create (List.init k mk) in
      let excl_sys = Rw.Rw_system.to_exclusive rw_sys in
      let st = rng 10 in
      let excl = Sim.Runtime.batch st excl_sys ~runs:100 in
      let st = rng 10 in
      let rwb = Rw.Rw_runtime.batch st rw_sys ~runs:100 in
      Format.printf "  %-6d %-18.2f %-18.2f %-10.2fx@." k
        excl.Sim.Runtime.mean_makespan rwb.Rw.Rw_runtime.mean_makespan
        (excl.Sim.Runtime.mean_makespan /. rwb.Rw.Rw_runtime.mean_makespan))
    [ 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* Scenario matrix: schemes x workload families x fault intensity      *)
(* ------------------------------------------------------------------ *)

let matrix () =
  header "E27 scenario matrix: 5 schemes x 4 families x fault intensity";
  (* Runs per (family, scheme, intensity) cell; DDLOCK_MATRIX_RUNS
     shrinks it for the cram/CI smoke sweeps. *)
  let runs =
    match Sys.getenv_opt "DDLOCK_MATRIX_RUNS" with
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 -> n
        | _ ->
            Format.eprintf "bench: bad DDLOCK_MATRIX_RUNS %S@." s;
            exit 2)
    | None -> 30
  in
  let horizon = 40.0 in
  let intensities = [ 0.0; 0.4; 0.8 ] in
  (* A finite commit budget (vs the near-unbounded chaos default) so a
     scheme that thrashes under faults shows up as commit-rate loss
     rather than an ever-longer run. *)
  let config =
    { Sim.Recovery.default_config with Sim.Recovery.max_time = 240.0 }
  in
  let families =
    [
      ("ring", System.copies (Workload.Gentx.guard_ring 3) 2);
      ("tpcc", Workload.Gentx.tpcc_system (rng 271) ~warehouses:2 ~txns:4 ~theta:1.2);
      ( "partial-replication",
        let rep =
          Workload.Gentx.replicated_db ~sites:3 ~entities:4 ~replication:2
        in
        Workload.Gentx.replicated_system (rng 272) rep ~txns:3
          ~entities_per_txn:2 );
      ( "zipf-hotspot",
        Workload.Gentx.zipf_system (rng 273) ~sites:2 ~entities:4 ~txns:4
          ~theta:1.2 );
    ]
  in
  let schemes = Sim.Chaos.default_schemes in
  let violations_total = ref 0 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"bench\": \"matrix\",\n  \"runs_per_cell\": %d,\n  \
        \"horizon\": %.1f,\n  \"max_time\": %.1f,\n  \"schemes\": [%s],\n  \
        \"intensities\": [%s],\n  \"families\": ["
       runs horizon config.Sim.Recovery.max_time
       (String.concat ", "
          (List.map (fun (n, _) -> Printf.sprintf "\"%s\"" n) schemes))
       (String.concat ", " (List.map (Printf.sprintf "%.1f") intensities)));
  Format.printf "  %-20s %-14s %-10s %-8s %-8s %-8s %-8s@." "family" "scheme"
    "intensity" "commit" "aborts" "p50" "p99";
  List.iteri
    (fun fi (fname, sys) ->
      let n = System.size sys in
      if fi > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\n    { \"family\": \"%s\", \"txns\": %d, \"cells\": ["
           fname n);
      let first_cell = ref true in
      List.iteri
        (fun si (sname, scheme) ->
          List.iteri
            (fun ii intensity ->
              let commits = ref 0 and aborts = ref 0 and timeouts = ref 0 in
              let total_makespan = ref 0.0 and completed = ref 0 in
              let buckets =
                Array.make (Obs.Metrics.Histogram.max_bucket + 1) 0
              in
              let sum_ms = ref 0 in
              for seed = 0 to runs - 1 do
                (* The fault plan is keyed by (family, intensity, seed)
                   only, so all five schemes face the same plans
                   head-to-head; the simulator rng is per-scheme. *)
                let plan_rng = Random.State.make [| 0x3a7c; fi; ii; seed |] in
                let plan =
                  Sim.Faults.random plan_rng (System.db sys) ~intensity
                    ~horizon
                in
                let sim_rng =
                  Random.State.make [| 0x3a7d; fi; si; ii; seed |]
                in
                let r = Sim.Recovery.run ~scheme ~config ~faults:plan sim_rng sys in
                commits := !commits + r.Sim.Recovery.stats.Sim.Recovery.commits;
                aborts := !aborts + r.Sim.Recovery.stats.Sim.Recovery.aborts;
                if r.Sim.Recovery.stats.Sim.Recovery.timed_out then
                  incr timeouts
                else begin
                  incr completed;
                  let mk = r.Sim.Recovery.stats.Sim.Recovery.makespan in
                  total_makespan := !total_makespan +. mk;
                  let ms = int_of_float (mk *. 1000.0) in
                  sum_ms := !sum_ms + ms;
                  buckets.(Obs.Metrics.Histogram.bucket_of ms) <-
                    buckets.(Obs.Metrics.Histogram.bucket_of ms) + 1;
                  (* Legality/mutex/serializability on every committed
                     trace; timeouts are commit-rate data, not
                     violations, under the finite budget. *)
                  violations_total :=
                    !violations_total
                    + List.length (Sim.Chaos.check_run sys r)
                end
              done;
              let offered = runs * n in
              let commit_rate = float_of_int !commits /. float_of_int offered in
              let abort_rate = float_of_int !aborts /. float_of_int offered in
              let timeout_rate =
                float_of_int !timeouts /. float_of_int runs
              in
              let mean_makespan =
                if !completed = 0 then 0.0
                else !total_makespan /. float_of_int !completed
              in
              let hist =
                {
                  Obs.Metrics.count = !completed;
                  sum = !sum_ms;
                  buckets =
                    List.filter
                      (fun (_, c) -> c > 0)
                      (List.init (Array.length buckets) (fun i ->
                           (i, buckets.(i))));
                }
              in
              let p50 = Obs.Metrics.quantile hist 0.5 in
              let p99 = Obs.Metrics.quantile hist 0.99 in
              Format.printf "  %-20s %-14s %-10.1f %-8.2f %-8.2f %-8.0f %-8.0f@."
                fname sname intensity commit_rate abort_rate p50 p99;
              if not !first_cell then Buffer.add_char buf ',';
              first_cell := false;
              Buffer.add_string buf
                (Printf.sprintf
                   "\n      { \"scheme\": \"%s\", \"intensity\": %.1f, \
                    \"runs\": %d, \"commit_rate\": %.4f, \"abort_rate\": \
                    %.4f, \"timeout_rate\": %.4f, \"mean_makespan\": %.3f, \
                    \"p50_ms\": %.1f, \"p99_ms\": %.1f, \"latency_ms\": [%s] }"
                   sname intensity runs commit_rate abort_rate timeout_rate
                   mean_makespan p50 p99
                   (String.concat ", "
                      (List.map
                         (fun (i, c) ->
                           Printf.sprintf
                             "{ \"lo\": %d, \"count\": %d }"
                             (Obs.Metrics.Histogram.bucket_lower i)
                             c)
                         hist.Obs.Metrics.buckets))))
            intensities)
        schemes;
      Buffer.add_string buf "\n    ] }")
    families;
  Buffer.add_string buf
    (Printf.sprintf "\n  ],\n  \"violations\": %d\n}\n" !violations_total);
  let json = Buffer.contents buf in
  (match Obs.Json.validate json with
  | Ok () -> ()
  | Error msg ->
      Format.eprintf "bench: BENCH_matrix.json invalid: %s@." msg;
      exit 1);
  if !violations_total > 0 then begin
    Format.eprintf "bench: %d invariant violations in the matrix sweep@."
      !violations_total;
    exit 1
  end;
  let oc = open_out "BENCH_matrix.json" in
  output_string oc json;
  close_out oc;
  Format.printf
    "  wrote BENCH_matrix.json (validated, %d cells, 0 violations)@."
    (List.length families * List.length schemes * List.length intensities)

let () =
  let sections =
    [
      ("agreement", agreement);
      ("micro", micro);
      ("theorem4", theorem4);
      ("exhaustive", exhaustive);
      ("crossover", crossover);
      ("sim", sim);
      ("recovery", recovery);
      ("faults", faults);
      ("sm", sm_fixed);
      ("geometry", geometry);
      ("rw", rw_modes);
      ("par", par);
      ("obs", obs);
      ("sym", sym);
      ("por", por);
      ("serve", serve_bench);
      ("matrix", matrix);
    ]
  in
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Format.eprintf "unknown section %S (have: %s)@." name
            (String.concat ", " (List.map fst sections));
          exit 2)
    requested;
  Format.printf "@.done.@."
