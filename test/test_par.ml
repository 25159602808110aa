(* Differential battery for Ddlock_par.Par_explore in its default
   [`Deterministic] mode: every observable must be bit-identical to the
   sequential Explore / Prefix_search ground truth, for every jobs. *)

open Ddlock_model
open Ddlock_schedule
module Par = Ddlock_par.Par_explore
module Prefix_search = Ddlock_deadlock.Prefix_search
module Reduction = Ddlock_deadlock.Reduction
module Gentx = Ddlock_workload.Gentx

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let jobs_sweep = [ 1; 2; 3; 4; 8 ]

let fig2ish () = System.copies (Gentx.guard_ring 4) 2
let phil3 () = Gentx.dining_philosophers 3

let opposed_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "b"; "a" ];
    ]

let eight_state_sys () =
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  System.create [ t; Builder.two_phase_chain db [ "a" ] ]

(* ------------------------------------------------------------------ *)
(* Unit: counts, witnesses, spaces                                     *)
(* ------------------------------------------------------------------ *)

let test_counts_match () =
  List.iter
    (fun sys ->
      let seq = Explore.state_count (Explore.explore sys) in
      List.iter
        (fun jobs ->
          check int_t
            (Printf.sprintf "state_count jobs=%d" jobs)
            seq
            (Par.state_count (Par.explore ~jobs sys)))
        jobs_sweep)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_witness_identical () =
  List.iter
    (fun sys ->
      let seq = Explore.find_deadlock sys in
      List.iter
        (fun jobs ->
          let par = Par.find_deadlock ~jobs sys in
          check bool_t
            (Printf.sprintf "find_deadlock jobs=%d identical" jobs)
            true (par = seq))
        jobs_sweep)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_states_in_rank_order () =
  (* The parallel space enumerates states in the sequential BFS
     insertion order: keys must line up position by position with a
     sequential re-exploration that records insertion order. *)
  let sys = phil3 () in
  let order = ref [] in
  (match
     Explore.bfs sys ~found:(fun st ->
         order := State.key st :: !order;
         false)
   with
  | Some _ -> Alcotest.fail "predicate never holds"
  | None -> ());
  let seq_keys = List.rev !order in
  let par_keys =
    List.of_seq (Seq.map State.key (Par.states (Par.explore ~jobs:3 sys)))
  in
  (* Explore.bfs applies [found] to every discovered state including the
     initial one, in insertion order. *)
  check int_t "same length" (List.length seq_keys) (List.length par_keys);
  check bool_t "same order" true (seq_keys = par_keys);
  (* The sequential space enumerates in the same insertion order. *)
  check bool_t "sequential states in insertion order" true
    (seq_keys = List.of_seq (Seq.map State.key (Explore.states (Explore.explore sys))))

let test_schedules_identical () =
  let sys = fig2ish () in
  let seq = Explore.explore sys in
  let par = Par.explore ~jobs:4 sys in
  check int_t "jobs recorded" 4 (Par.jobs par);
  Seq.iter
    (fun st ->
      check bool_t "reachable in par" true (Par.is_reachable par st);
      check bool_t "same schedule" true
        (Par.schedule_to par st = Explore.schedule_to seq st))
    (Explore.states seq);
  let unreachable = State.final (opposed_pair ()) in
  check bool_t "foreign state unreachable" false
    (Par.is_reachable par unreachable)

let test_lemma1_identical () =
  List.iter
    (fun sys ->
      List.iter
        (fun jobs ->
          check bool_t
            (Printf.sprintf "safe_and_deadlock_free jobs=%d" jobs)
            true
            (Par.safe_and_deadlock_free ~jobs sys
            = Explore.safe_and_deadlock_free sys);
          check bool_t
            (Printf.sprintf "safe jobs=%d" jobs)
            true
            (Par.safe ~jobs sys = Explore.safe sys))
        [ 1; 2; 3; 4 ])
    [ opposed_pair (); fig2ish () ]

let test_invalid_jobs () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let sys = opposed_pair () in
  List.iter
    (fun jobs ->
      expect_invalid "explore" (fun () -> Par.explore ~jobs sys);
      expect_invalid "find_deadlock" (fun () -> Par.find_deadlock ~jobs sys);
      expect_invalid "prefix_search" (fun () ->
          Prefix_search.find ~jobs sys);
      expect_invalid "analysis" (fun () ->
          Ddlock.Analysis.deadlock_free ~jobs sys))
    [ 0; -1 ]

let test_par_exact_cap () =
  (* Same exact budget semantics as the sequential engine, at any jobs. *)
  let sys = eight_state_sys () in
  List.iter
    (fun jobs ->
      check int_t "exact budget fits" 8
        (Par.state_count (Par.explore ~max_states:8 ~jobs sys));
      (match Par.explore ~max_states:7 ~jobs sys with
      | exception Explore.Too_large n -> check int_t "held at raise" 7 n
      | _ -> Alcotest.fail "expected Too_large");
      match Par.explore ~max_states:0 ~jobs sys with
      | exception Explore.Too_large n -> check int_t "no room for init" 0 n
      | _ -> Alcotest.fail "expected Too_large 0")
    [ 2; 3; 4 ];
  let opp = opposed_pair () in
  List.iter
    (fun jobs ->
      check bool_t "witness at the cap" true
        (Par.find_deadlock ~max_states:5 ~jobs opp
        = Explore.find_deadlock ~max_states:5 opp);
      match Par.find_deadlock ~max_states:4 ~jobs opp with
      | exception Explore.Too_large n -> check int_t "held at raise" 4 n
      | _ -> Alcotest.fail "expected Too_large")
    [ 2; 3; 4 ]

let test_prefix_search_jobs () =
  let sys = fig2ish () in
  check bool_t "deadlock_free agrees" true
    (Prefix_search.deadlock_free ~jobs:3 sys = Prefix_search.deadlock_free sys);
  check bool_t "same witness for every jobs" true
    (Prefix_search.find sys = Prefix_search.find ~jobs:3 sys);
  (match Prefix_search.find ~jobs:3 sys with
  | None -> Alcotest.fail "fig2ish must have a deadlock prefix"
  | Some w ->
      check bool_t "schedule legal" true (Schedule.is_legal sys w.Prefix_search.schedule);
      check bool_t "prefix realized" true
        (State.equal
           (Schedule.prefix_vector sys w.Prefix_search.schedule)
           w.Prefix_search.prefix);
      check bool_t "reduction graph cyclic" true
        (Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix));
      (* The parallel witness is the first in BFS order, hence of minimal
         depth among all deadlock prefixes. *)
      (match Prefix_search.find sys with
      | None -> Alcotest.fail "sequential must agree"
      | Some ws ->
          check bool_t "minimal depth" true
            (List.length w.Prefix_search.schedule
            <= List.length ws.Prefix_search.schedule)));
  let safe_sys =
    let db = Db.one_site_per_entity [ "a"; "b" ] in
    let t = Builder.two_phase_chain db [ "a"; "b" ] in
    System.create [ t; Builder.two_phase_chain db [ "a"; "b" ] ]
  in
  check bool_t "safe system has no prefix" true
    (Prefix_search.find ~jobs:4 safe_sys = None);
  check bool_t "all ~jobs finds the same set" true
    (List.sort compare
       (List.map State.key (List.of_seq (Prefix_search.all ~jobs:3 sys)))
    = List.sort compare
        (List.map State.key (List.of_seq (Prefix_search.all sys))))

let test_minimize_jobs () =
  let sys = fig2ish () in
  match
    (Ddlock.Minimize.deadlock_core sys, Ddlock.Minimize.deadlock_core ~jobs:2 sys)
  with
  | Some a, Some b ->
      check bool_t "same core" true
        (a.Ddlock.Minimize.kept_txns = b.Ddlock.Minimize.kept_txns
        && a.Ddlock.Minimize.dropped_entities = b.Ddlock.Minimize.dropped_entities)
  | _ -> Alcotest.fail "fig2ish must minimize"

(* ------------------------------------------------------------------ *)
(* Properties: differential vs the sequential engine                   *)
(* ------------------------------------------------------------------ *)

let seed_and_jobs = QCheck.(pair (int_bound 1_000_000) (int_range 2 4))

let par_explore_prop =
  QCheck.Test.make ~name:"par explore ≡ sequential (count + witness)" ~count:40
    seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Par.state_count (Par.explore ~jobs sys)
      = Explore.state_count (Explore.explore sys)
      && Par.find_deadlock ~jobs sys = Explore.find_deadlock sys)

let par_lemma1_prop =
  QCheck.Test.make ~name:"par Lemma-1 ≡ sequential (exact counterexample)"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      Par.safe_and_deadlock_free ~jobs sys = Explore.safe_and_deadlock_free sys
      && Par.safe ~jobs sys = Explore.safe sys)

let par_prefix_prop =
  QCheck.Test.make ~name:"par prefix search ≡ sequential (Theorem 1)" ~count:30
    seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let seq = Prefix_search.find sys and par = Prefix_search.find ~jobs sys in
      Option.is_none seq = Option.is_none par
      && (match (seq, par) with
         | Some ws, Some wp ->
             (* Both witnesses are genuine deadlock prefixes; the
                parallel one is canonical, hence no deeper. *)
             Reduction.has_cycle (Reduction.make sys wp.Prefix_search.prefix)
             && Reduction.has_cycle (Reduction.make sys ws.Prefix_search.prefix)
             && List.length wp.Prefix_search.schedule
                <= List.length ws.Prefix_search.schedule
         | _ -> true)
      && Prefix_search.deadlock_free ~jobs sys = Prefix_search.deadlock_free sys)

let par_cap_prop =
  (* Budget exhaustion is part of the observable behaviour: for any small
     cap, sequential and parallel agree on witness / verdict / Too_large,
     including the exact count the exception carries. *)
  QCheck.Test.make ~name:"par cap outcome ≡ sequential (exact Too_large)"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let probe f =
        match f () with
        | Some w -> `Witness w
        | None -> `Deadlock_free
        | exception Explore.Too_large n -> `Too_large n
      in
      probe (fun () -> Explore.find_deadlock ~max_states sys)
      = probe (fun () -> Par.find_deadlock ~max_states ~jobs sys))

(* ------------------------------------------------------------------ *)
(* Properties: the purity contracts the engine relies on               *)
(* ------------------------------------------------------------------ *)

let states_of_run st sys =
  (* A bag of distinct reachable states sampled along one random run. *)
  let steps =
    match Explore.random_run st sys with
    | Explore.Completed s | Explore.Deadlocked (s, _) -> s
  in
  let sts, _ =
    List.fold_left
      (fun (acc, cur) step ->
        let nxt = State.apply cur step in
        (nxt :: acc, nxt))
      ([ State.initial sys ], State.initial sys)
      steps
  in
  sts

let key_injective_prop =
  (* Sharding correctness rests on State.key being a perfect proxy for
     State.equal: equal states collide, distinct states never do. *)
  QCheck.Test.make ~name:"State.key injective on reachable states" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let sts = states_of_run st sys in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> State.equal a b = (State.key a = State.key b))
            sts)
        sts)

let commutation_prop =
  (* Independent enabled steps commute: both orders survive and land in
     the same state, or neither order survives.  This is what makes
     cross-shard handoff order irrelevant; the oracle now lives in
     Sched.Indep, shared with the partial-order reduction. *)
  QCheck.Test.make ~name:"enabled/apply commute on independent steps"
    ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      List.for_all
        (fun cur ->
          let en = State.enabled sys cur in
          List.for_all
            (fun s ->
              List.for_all
                (fun t -> Step.equal s t || Indep.commutes sys cur s t)
                en)
            en)
        (states_of_run st sys))

let qtests =
  List.map Fixtures.to_alcotest
    [
      par_explore_prop;
      par_lemma1_prop;
      par_prefix_prop;
      par_cap_prop;
      key_injective_prop;
      commutation_prop;
    ]

let suite =
  [
    Alcotest.test_case "counts match across jobs" `Quick test_counts_match;
    Alcotest.test_case "witness identical" `Quick test_witness_identical;
    Alcotest.test_case "states in rank order" `Quick test_states_in_rank_order;
    Alcotest.test_case "schedules identical" `Quick test_schedules_identical;
    Alcotest.test_case "lemma1 identical" `Quick test_lemma1_identical;
    Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
    Alcotest.test_case "exact cap" `Quick test_par_exact_cap;
    Alcotest.test_case "prefix search with jobs" `Quick test_prefix_search_jobs;
    Alcotest.test_case "minimize with jobs" `Quick test_minimize_jobs;
  ]
  @ qtests
