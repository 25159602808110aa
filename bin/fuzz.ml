(* Differential soak tester: run the polynomial deciders against the
   exhaustive ground truth on endless random systems, printing any
   disagreement with its seed (none are known).

     dune exec bin/fuzz.exe -- [--rounds N] [--seed S] [--txns K]

   Checks per round:
   - Theorem 3 and the O(n³) minimal-prefix decider vs the exhaustive
     Lemma-1 search (pairs);
   - the [LP]/[SW] geometric deciders vs the exhaustive safety and
     deadlock searches (centralized pairs);
   - Theorem 4 vs exhaustive (k-transaction systems);
   - Theorem 1: deadlock-schedule search vs deadlock-prefix search;
   - Corollary 3 vs the pair test on two copies;
   - recovery-scheme invariants: wound-wait always commits with a legal
     committed trace, which is serializable whenever the system is safe
     (on unsafe systems non-serializable committed traces are expected);
   - chaos invariants: a random fault plan (site crashes, message
     loss/duplication, manager stalls) over wound-wait and the timeout
     scheme never breaks the committed-trace invariants of Sim.Chaos;
   - scenario-matrix shapes: small TPC-C-style and partial-replication
     systems (Workload.Gentx.tpcc_system / replicated_system) get the
     Theorem-4-vs-exhaustive cross-check and the chaos invariants under
     wound-wait and the probabilistic scheme every round;
   - rw invariants: exclusive-abstraction deadlock-freedom implies rw
     deadlock-freedom (2 transactions);
   - with [--jobs n], n > 1: Par.Par_explore at 2..n jobs (the
     kernel's FIFO policy behind the jobs interface) vs the sequential
     explorer — identical state
     counts, identical deadlock witnesses, identical Lemma-1
     counterexamples, identical Theorem-1 prefix verdicts;
   - with [--symmetry]: the orbit-canonicalized engines (Sched.Canon)
     vs the plain ones — identical deadlock verdicts on both generic
     and identical-copy systems, witness legality, canonical state
     counts within [raw/orbit_size, raw], Theorem-1 prefix verdicts,
     and (under --jobs) par-vs-seq symmetric equality plus identical
     explore.states_visited / canon.hits counter totals;
   - with [--por]: the persistent/sleep-set reduced engines
     (Sched.Indep) vs the plain ones — byte-identical deadlock
     witnesses, reduced state counts never above plain, Theorem-1
     prefix verdicts, composition with --symmetry on copies systems,
     and (under --jobs) par-vs-seq reduced equality plus identical
     por.pruned / por.persistent_size counter totals;
   - with [--fast] (requires --jobs >= 2): the relaxed work-stealing
     engine (Par_explore ~mode:`Fast) vs the sequential ground truth —
     byte-identical find_deadlock results (fast re-canonicalizes its
     witness exactly like --por), identical state counts, identical
     Lemma-1 counterexamples, Theorem-1 prefix verdicts, legality /
     endpoint / deadlock of the raw (un-canonicalized) bfs witness via
     Schedule replay, and composition with --symmetry / --por.  The
     par.steals / par.intern_hits / par.arena_reuse counters are
     intentionally NOT cross-checked: they are racy by design and the
     jobs-invariance contract exempts them.

   The every-100-rounds summary line also reports cumulative per-engine
   wall-clock, so long soaks double as a coarse perf regression check.
*)

open Ddlock
module System = Model.System

let () =
  let rounds = ref 500 and seed = ref 1 and txns = ref 3 and jobs = ref 1 in
  let symmetry = ref false in
  let por = ref false in
  let fast = ref false in
  let args =
    [
      ("--rounds", Arg.Set_int rounds, "number of rounds (default 500)");
      ("--seed", Arg.Set_int seed, "base seed (default 1)");
      ("--txns", Arg.Set_int txns, "transactions per system (default 3)");
      ( "--jobs",
        Arg.Set_int jobs,
        "also cross-check Par_explore at 2..jobs jobs \
         (default 1 = off)" );
      ( "--symmetry",
        Arg.Set symmetry,
        "also cross-check the symmetry-reduced engines against the plain \
         ones every round" );
      ( "--por",
        Arg.Set por,
        "also cross-check the persistent/sleep-set reduced engines against \
         the plain ones every round" );
      ( "--fast",
        Arg.Set fast,
        "also cross-check the relaxed work-stealing engine against the \
         sequential ground truth every round (requires --jobs >= 2)" );
    ]
  in
  Arg.parse args (fun _ -> ()) "fuzz [options]";
  if !jobs < 1 then begin
    prerr_endline "fuzz: --jobs must be >= 1";
    exit 2
  end;
  if !fast && !jobs < 2 then begin
    prerr_endline "fuzz: --fast requires --jobs N with N >= 2";
    exit 2
  end;
  (* Cumulative wall-clock per engine family, reported every 100 rounds. *)
  let timers = Hashtbl.create 8 in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    Hashtbl.replace timers name
      ((try Hashtbl.find timers name with Not_found -> 0.) +. dt);
    r
  in
  let timer_summary () =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) timers []
    |> List.sort compare
    |> List.map (fun (k, v) -> Printf.sprintf "%s %.2fs" k v)
    |> String.concat " "
  in
  let failures = ref 0 in
  let report name round =
    incr failures;
    Format.printf "DISAGREEMENT in %s at round %d (seed %d)@." name round !seed
  in
  for round = 1 to !rounds do
    let st = Random.State.make [| !seed; round |] in
    (* --- pairs --- *)
    let pair_sys = Workload.Gentx.small_random_pair st in
    let t1 = System.txn pair_sys 0 and t2 = System.txn pair_sys 1 in
    let exh =
      timed "seq" (fun () ->
          Result.is_ok (Sched.Explore.safe_and_deadlock_free pair_sys))
    in
    if Safety.Pair.safe_and_deadlock_free t1 t2 <> exh then
      report "Theorem 3" round;
    if Safety.Minimal_prefix.safe_and_deadlock_free t1 t2 <> exh then
      report "minimal-prefix" round;
    let df1, df2 = Deadlock.Theorem1.verdicts pair_sys in
    if df1 <> df2 then report "Theorem 1" round;
    if
      Safety.Copies.safe_and_deadlock_free t1
      <> Safety.Pair.safe_and_deadlock_free t1 t1
    then report "Corollary 3" round;
    (* --- centralized geometry --- *)
    let csys =
      Workload.Gentx.small_random_pair ~sites:1 ~entities:4 ~density:0.2 st
    in
    let c1 = System.txn csys 0 and c2 = System.txn csys 1 in
    if Safety.Geometry.deadlock_free c1 c2 <> Sched.Explore.deadlock_free csys
    then report "geometry deadlock" round;
    if Safety.Geometry.safe c1 c2 <> Result.is_ok (Sched.Explore.safe csys)
    then report "geometry safety" round;
    (* --- k transactions --- *)
    let sys = Workload.Gentx.small_random_system ~sites:2 ~entities:3 st ~txns:!txns in
    let sys_safe_df =
      timed "seq" (fun () ->
          Result.is_ok (Sched.Explore.safe_and_deadlock_free sys))
    in
    if Safety.Many.safe_and_deadlock_free sys <> sys_safe_df then
      report "Theorem 4" round;
    (* --- recovery invariants --- *)
    let r =
      timed "sim" (fun () ->
          Sim.Recovery.run ~scheme:Sim.Recovery.Wound_wait st sys)
    in
    if r.Sim.Recovery.stats.Sim.Recovery.timed_out then
      report "wound-wait timeout" round
    else if
      not (Sched.Schedule.is_complete sys r.Sim.Recovery.committed_trace)
    then report "wound-wait trace legality" round
    else if
      sys_safe_df
      && not (Sched.Dgraph.is_serializable sys r.Sim.Recovery.committed_trace)
    then report "wound-wait serializability" round;
    (* --- chaos invariants under a random fault plan --- *)
    let plan =
      Sim.Faults.random st (System.db sys)
        ~intensity:(Random.State.float st 0.8)
        ~horizon:30.0
    in
    List.iter
      (fun (sname, scheme) ->
        match Sim.Chaos.run_case ~scheme ~faults:plan st sys with
        | [], _ -> ()
        | vs, _ ->
            List.iter
              (fun v ->
                Format.printf "  %s: %a@." sname
                  (Sim.Chaos.pp_violation (System.db sys))
                  v)
              vs;
            report ("chaos/" ^ sname) round)
      [
        ("wound-wait", Sim.Recovery.Wound_wait);
        ("timeout", Sim.Recovery.default_timeout);
      ];
    (* --- scenario-matrix shapes: TPC-C and partial replication --- *)
    let tpcc_sys =
      Workload.Gentx.tpcc_system st
        ~warehouses:(1 + Random.State.int st 2)
        ~districts:2 ~items:3 ~customers:2
        ~items_per_order:(1 + Random.State.int st 2)
        ~txns:(2 + Random.State.int st 2)
        ~theta:(Random.State.float st 1.5)
    in
    let rep =
      Workload.Gentx.replicated_db
        ~sites:(2 + Random.State.int st 2)
        ~entities:(2 + Random.State.int st 2)
        ~replication:2
    in
    let rep_sys =
      Workload.Gentx.replicated_system st rep
        ~txns:(2 + Random.State.int st 2)
        ~entities_per_txn:(1 + Random.State.int st 2)
    in
    List.iter
      (fun (shape, ssys) ->
        (* 2PL chains keep the state spaces tiny, so the Theorem-4
           polynomial verdict is cross-checked exhaustively too. *)
        if
          Safety.Many.safe_and_deadlock_free ssys
          <> timed "seq" (fun () ->
                 Result.is_ok (Sched.Explore.safe_and_deadlock_free ssys))
        then report ("Theorem 4 (" ^ shape ^ ")") round;
        let splan =
          Sim.Faults.random st (System.db ssys)
            ~intensity:(Random.State.float st 0.8)
            ~horizon:30.0
        in
        List.iter
          (fun (sname, scheme) ->
            match Sim.Chaos.run_case ~scheme ~faults:splan st ssys with
            | [], _ -> ()
            | vs, r ->
                List.iter
                  (fun v ->
                    Format.printf "  %s: %a@." sname
                      (Sim.Chaos.pp_violation (System.db ssys))
                      v)
                  vs;
                List.iter
                  (fun (w, e, h) ->
                    Format.printf "  stuck: T%d waits for %s held by T%d@."
                      (w + 1)
                      (Model.Db.entity_name (System.db ssys) e)
                      (h + 1))
                  r.Sim.Recovery.stuck_waits;
                print_string
                  (Model.Parser.to_source (System.db ssys)
                     (List.mapi
                        (fun i t -> (Printf.sprintf "T%d" (i + 1), t))
                        (Array.to_list (System.txns ssys))));
                report (Printf.sprintf "chaos/%s/%s" shape sname) round)
          [
            ("wound-wait", Sim.Recovery.Wound_wait);
            ("probabilistic", Sim.Recovery.Probabilistic);
          ])
      [ ("tpcc", tpcc_sys); ("replicated", rep_sys) ];
    (* --- Par_explore at jobs > 1 vs sequential ground truth --- *)
    if !jobs > 1 then begin
      timed "par" @@ fun () ->
      let j = 2 + (round mod (!jobs - 1)) in
      if
        Par.Par_explore.find_deadlock ~jobs:j sys
        <> Sched.Explore.find_deadlock sys
      then report "par find_deadlock" round;
      if
        Par.Par_explore.state_count (Par.Par_explore.explore ~jobs:j sys)
        <> Sched.Explore.state_count (Sched.Explore.explore sys)
      then report "par state count" round;
      if
        Par.Par_explore.safe_and_deadlock_free ~jobs:j pair_sys
        <> Sched.Explore.safe_and_deadlock_free pair_sys
      then report "par lemma1" round;
      if
        Deadlock.Prefix_search.find ~jobs:j sys = None
        <> (Deadlock.Prefix_search.find sys = None)
      then report "par prefix search" round;
      (* Telemetry cross-check: both must report the same counter
         totals — [`Deterministic] runs the FIFO policy at every jobs,
         so the counts are jobs-invariant. *)
      let counters_after f =
        Obs.Metrics.reset ();
        ignore (f ());
        ( Obs.Metrics.counter_value "explore.states_visited",
          Obs.Metrics.counter_value "explore.deadlock_witnesses" )
      in
      Obs.Control.on ();
      let seq_counts = counters_after (fun () -> Sched.Explore.find_deadlock sys) in
      let par_counts =
        counters_after (fun () -> Par.Par_explore.find_deadlock ~jobs:j sys)
      in
      Obs.Control.off ();
      Obs.Metrics.reset ();
      if seq_counts <> par_counts then report "obs counter determinism" round
    end;
    (* --- symmetry-reduced engines vs plain ground truth --- *)
    if !symmetry then begin
      timed "sym" @@ fun () ->
      (* Generic k-transaction system: same verdict, legal witness. *)
      (match
         ( Sched.Explore.find_deadlock sys,
           Sched.Explore.find_deadlock ~symmetry:true sys )
       with
      | None, None -> ()
      | None, Some _ | Some _, None -> report "sym verdict" round
      | Some _, Some (sched, stf) ->
          if not (Sched.Schedule.is_legal sys sched) then
            report "sym witness legality" round
          else if not (Sched.State.equal (Sched.Schedule.prefix_vector sys sched) stf)
          then report "sym witness endpoint" round
          else if not (Sched.State.is_deadlock sys stf) then
            report "sym witness deadlock" round);
      if
        Deadlock.Prefix_search.deadlock_free ~symmetry:true sys
        <> Deadlock.Prefix_search.deadlock_free sys
      then report "sym prefix verdict" round;
      (* Identical copies: counts bounded by the orbit size, same verdict. *)
      let copies = 2 + (round mod 2) in
      let ksys = Workload.Gentx.random_copies_system st ~copies in
      let canon = Sched.Canon.detect ksys in
      let raw = Sched.Explore.state_count (Sched.Explore.explore ksys) in
      let reduced =
        Sched.Explore.state_count (Sched.Explore.explore ~symmetry:true ksys)
      in
      if reduced > raw || raw > reduced * Sched.Canon.orbit_size canon then
        report "sym state-count bound" round;
      if
        (Sched.Explore.find_deadlock ksys = None)
        <> (Sched.Explore.find_deadlock ~symmetry:true ksys = None)
      then report "sym copies verdict" round;
      if !jobs > 1 then begin
        let j = 2 + (round mod (!jobs - 1)) in
        if
          Par.Par_explore.find_deadlock ~symmetry:true ~jobs:j ksys
          <> Sched.Explore.find_deadlock ~symmetry:true ksys
        then report "sym par witness" round;
        if
          Par.Par_explore.state_count
            (Par.Par_explore.explore ~symmetry:true ~jobs:j ksys)
          <> reduced
        then report "sym par state count" round;
        (* Counter totals must be jobs-invariant under symmetry too. *)
        let counters_after f =
          Obs.Metrics.reset ();
          ignore (f ());
          ( Obs.Metrics.counter_value "explore.states_visited",
            Obs.Metrics.counter_value "canon.hits" )
        in
        Obs.Control.on ();
        let seq_counts =
          counters_after (fun () ->
              Sched.Explore.find_deadlock ~symmetry:true ksys)
        in
        let par_counts =
          counters_after (fun () ->
              Par.Par_explore.find_deadlock ~symmetry:true ~jobs:j ksys)
        in
        Obs.Control.off ();
        Obs.Metrics.reset ();
        if seq_counts <> par_counts then
          report "sym counter determinism" round
      end
    end;
    (* --- partial-order-reduced engines vs plain ground truth --- *)
    if !por then begin
      timed "por" @@ fun () ->
      (* Verdict AND witness are byte-identical: the reduced search
         decides, a plain re-search canonicalizes the witness. *)
      let plain = Sched.Explore.find_deadlock sys in
      if Sched.Explore.find_deadlock ~por:true sys <> plain then
        report "por find_deadlock" round;
      if
        Sched.Explore.state_count (Sched.Explore.explore ~por:true sys)
        > Sched.Explore.state_count (Sched.Explore.explore sys)
      then report "por state-count bound" round;
      if
        Deadlock.Prefix_search.deadlock_free ~por:true sys
        <> Deadlock.Prefix_search.deadlock_free sys
      then report "por prefix verdict" round;
      (* Composition with the orbit quotient on an identical-copies
         system: the canonicalized witness is still the plain one. *)
      let copies = 2 + (round mod 2) in
      let ksys = Workload.Gentx.random_copies_system st ~copies in
      if
        Sched.Explore.find_deadlock ~por:true ~symmetry:true ksys
        <> Sched.Explore.find_deadlock ksys
      then report "por+sym verdict" round;
      if !jobs > 1 then begin
        let j = 2 + (round mod (!jobs - 1)) in
        if Par.Par_explore.find_deadlock ~por:true ~jobs:j sys <> plain then
          report "por par witness" round;
        if
          Par.Par_explore.state_count
            (Par.Par_explore.explore ~por:true ~jobs:j sys)
          <> Sched.Explore.state_count (Sched.Explore.explore ~por:true sys)
        then report "por par state count" round;
        (* POR telemetry totals are jobs-invariant: the work-item
           multiset is the same whichever engine expands it. *)
        let counters_after f =
          Obs.Metrics.reset ();
          ignore (f ());
          ( Obs.Metrics.counter_value "explore.states_visited",
            Obs.Metrics.counter_value "por.pruned",
            Obs.Metrics.counter_value "por.persistent_size" )
        in
        Obs.Control.on ();
        let seq_counts =
          counters_after (fun () -> Sched.Explore.explore ~por:true sys)
        in
        let par_counts =
          counters_after (fun () ->
              Par.Par_explore.explore ~por:true ~jobs:j sys)
        in
        Obs.Control.off ();
        Obs.Metrics.reset ();
        if seq_counts <> par_counts then
          report "por counter determinism" round
      end
    end;
    (* --- relaxed work-stealing engine vs sequential ground truth --- *)
    if !fast then begin
      timed "fast" @@ fun () ->
      let j = 2 + (round mod (!jobs - 1)) in
      let plain = Sched.Explore.find_deadlock sys in
      (* find_deadlock re-canonicalizes (same contract as --por), so the
         result is byte-identical to the sequential engine's. *)
      if Par.Par_explore.find_deadlock ~mode:`Fast ~jobs:j sys <> plain then
        report "fast find_deadlock" round;
      if
        Par.Par_explore.state_count
          (Par.Par_explore.explore ~mode:`Fast ~jobs:j sys)
        <> Sched.Explore.state_count (Sched.Explore.explore sys)
      then report "fast state count" round;
      if
        Par.Par_explore.safe_and_deadlock_free ~mode:`Fast ~jobs:j pair_sys
        <> Sched.Explore.safe_and_deadlock_free pair_sys
      then report "fast lemma1" round;
      if
        Deadlock.Prefix_search.find ~fast:true ~jobs:j sys = None
        <> (Deadlock.Prefix_search.find sys = None)
      then report "fast prefix verdict" round;
      (* The raw relaxed witness (before canonicalization) is whichever
         deadlock a worker reached first: not deterministic, but always a
         legal schedule whose replay ends in its deadlocked endpoint. *)
      (match
         Par.Par_explore.bfs ~mode:`Fast ~jobs:j sys
           ~found:(Sched.State.is_deadlock sys)
       with
      | None -> if plain <> None then report "fast bfs verdict" round
      | Some (sched, stf) ->
          if plain = None then report "fast bfs verdict" round
          else if not (Sched.Schedule.is_legal sys sched) then
            report "fast witness legality" round
          else if
            not (Sched.State.equal (Sched.Schedule.prefix_vector sys sched) stf)
          then report "fast witness endpoint" round
          else if not (Sched.State.is_deadlock sys stf) then
            report "fast witness deadlock" round);
      (* Composition: re-canonicalization makes fast+sym / fast+por land
         on the plain sequential result too. *)
      if !symmetry then
        if
          Par.Par_explore.find_deadlock ~mode:`Fast ~symmetry:true ~jobs:j sys
          <> plain
        then report "fast+sym verdict" round;
      if !por then begin
        if
          Par.Par_explore.find_deadlock ~mode:`Fast ~por:true ~jobs:j sys
          <> plain
        then report "fast+por verdict" round;
        if
          Par.Par_explore.state_count
            (Par.Par_explore.explore ~mode:`Fast ~por:true ~jobs:j sys)
          > Sched.Explore.state_count (Sched.Explore.explore sys)
        then report "fast por state-count bound" round
      end
    end;
    (* --- rw invariants --- *)
    let rwdb = Workload.Gentx.random_db ~sites:1 ~entities:3 in
    let rwmk () =
      let k = 1 + Random.State.int st 3 in
      let ents = Workload.Gentx.random_entity_subset st rwdb ~k in
      let nodes =
        List.map
          (fun e ->
            let m = if Random.State.bool st then Rw.Rw_txn.Read else Rw.Rw_txn.Write in
            { Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Lock m })
          ents
        @ List.map (fun e -> { Rw.Rw_txn.entity = e; op = Rw.Rw_txn.Unlock }) ents
      in
      match Rw.Rw_txn.of_total_order rwdb nodes with
      | Ok t -> t
      | Error _ -> assert false
    in
    let rwsys = Rw.Rw_system.create [ rwmk (); rwmk () ] in
    if
      Sched.Explore.deadlock_free (Rw.Rw_system.to_exclusive rwsys)
      && not (Rw.Rw_system.deadlock_free rwsys)
    then report "rw abstraction soundness" round;
    if round mod 100 = 0 then
      Format.printf "round %d/%d: %d disagreements [%s]@." round !rounds
        !failures (timer_summary ())
  done;
  Format.printf "done: %d rounds, %d disagreements@." !rounds !failures;
  exit (if !failures = 0 then 0 else 1)
