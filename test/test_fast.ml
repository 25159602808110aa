(* Differential battery for the relaxed work-stealing engine
   ([~mode:`Fast] of Ddlock_par.Par_explore) and its hash-consing
   substrate (Ddlock_schedule.Intern).

   The fast engine trades the deterministic engine's bit-identical
   discovery order for throughput; what it keeps — and what this suite
   pins — is the contract of Par_explore.mli:
   - verdicts equal the sequential ground truth (same dedup relation);
   - [find_deadlock]/[safe]/[safe_and_deadlock_free] re-canonicalize,
     so their output is byte-identical to the sequential engines, for
     any combination of [?symmetry]/[?por];
   - raw [bfs] witnesses are valid: a legal schedule whose replay ends
     in its goal-satisfying endpoint;
   - the cap never undercounts: [Too_large n] is raised iff the space
     exceeds [max_states], with [n >= max_states] (overshoot bounded
     by work in flight, undershoot impossible);
   - the intern table is injective and idempotent. *)

open Ddlock_model
open Ddlock_schedule
module Par = Ddlock_par.Par_explore
module Prefix_search = Ddlock_deadlock.Prefix_search
module Reduction = Ddlock_deadlock.Reduction
module Gentx = Ddlock_workload.Gentx

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let fast_jobs = [ 1; 2; 4 ]

let fig2ish () = System.copies (Gentx.guard_ring 4) 2
let phil3 () = Gentx.dining_philosophers 3

let opposed_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "b"; "a" ];
    ]

let safe_pair () =
  let db = Db.one_site_per_entity [ "a"; "b" ] in
  System.create
    [
      Builder.two_phase_chain db [ "a"; "b" ];
      Builder.two_phase_chain db [ "a"; "b" ];
    ]

let eight_state_sys () =
  let db = Db.one_site_per_entity [ "a" ] in
  let t = Builder.two_phase_chain db [ "a" ] in
  System.create [ t; Builder.two_phase_chain db [ "a" ] ]

(* ------------------------------------------------------------------ *)
(* Unit: the intern table                                              *)
(* ------------------------------------------------------------------ *)

let test_intern_basics () =
  let t = Intern.create ~equal:String.equal ~hash:Hashtbl.hash () in
  let a, new_a = Intern.intern t "a" in
  check bool_t "first intern is new" true new_a;
  let a', again = Intern.intern t "a" in
  check int_t "idempotent id" a a';
  check bool_t "re-intern not new" false again;
  let b, new_b = Intern.intern t "b" in
  check bool_t "distinct value is new" true new_b;
  check bool_t "distinct ids" true (a <> b);
  check int_t "count" 2 (Intern.count t);
  check int_t "hits" 1 (Intern.hits t);
  check bool_t "find hit" true (Intern.find t "a" = Some a);
  check bool_t "find miss" true (Intern.find t "zzz" = None);
  check bool_t "get roundtrip" true (String.equal (Intern.get t b) "b");
  match Intern.get t 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get out of range must raise"

let test_intern_growth () =
  (* Push the arena through several doublings; ids stay dense and
     stable, every value reads back, re-interning is pure hit. *)
  let t = Intern.create ~capacity:4 ~equal:Int.equal ~hash:Hashtbl.hash () in
  let n = 1000 in
  for i = 0 to n - 1 do
    let id, was_new = Intern.intern t (i * 7) in
    check int_t "dense id" i id;
    check bool_t "new" true was_new
  done;
  check int_t "count after growth" n (Intern.count t);
  for i = 0 to n - 1 do
    check int_t "readback" (i * 7) (Intern.get t i);
    let id, was_new = Intern.intern t (i * 7) in
    check int_t "stable id" i id;
    check bool_t "hit" false was_new
  done;
  check int_t "hits counted" n (Intern.hits t);
  let seen = ref 0 in
  Intern.iter
    (fun v ->
      check int_t "iter in id order" (!seen * 7) v;
      incr seen)
    t;
  check int_t "iter covers all" n !seen

(* ------------------------------------------------------------------ *)
(* Unit: verdicts and counts vs the sequential ground truth            *)
(* ------------------------------------------------------------------ *)

let test_fast_counts () =
  List.iter
    (fun sys ->
      let seq = Explore.state_count (Explore.explore sys) in
      let seq_sym =
        Explore.state_count (Explore.explore ~symmetry:true sys)
      in
      List.iter
        (fun jobs ->
          check int_t
            (Printf.sprintf "fast count jobs=%d" jobs)
            seq
            (Par.state_count (Par.explore ~mode:`Fast ~jobs sys));
          (* Canonical dedup keeps the representative set deterministic,
             so even the relaxed engine lands on the same orbit count. *)
          check int_t
            (Printf.sprintf "fast+sym count jobs=%d" jobs)
            seq_sym
            (Par.state_count
               (Par.explore ~mode:`Fast ~symmetry:true ~jobs sys));
          (* The reduced set depends on arrival order, but it is always
             a sound reduction: never above plain. *)
          check bool_t
            (Printf.sprintf "fast+por count bound jobs=%d" jobs)
            true
            (Par.state_count (Par.explore ~mode:`Fast ~por:true ~jobs sys)
            <= seq))
        fast_jobs)
    [ fig2ish (); phil3 (); opposed_pair () ]

let test_fast_find_deadlock_identical () =
  (* Re-canonicalization makes the output byte-identical to the plain
     sequential engine, whatever reductions the fast search used. *)
  List.iter
    (fun sys ->
      let seq = Explore.find_deadlock sys in
      List.iter
        (fun jobs ->
          List.iter
            (fun (symmetry, por) ->
              check bool_t
                (Printf.sprintf "find_deadlock jobs=%d sym=%b por=%b" jobs
                   symmetry por)
                true
                (Par.find_deadlock ~mode:`Fast ~symmetry ~por ~jobs sys = seq))
            [ (false, false); (true, false); (false, true); (true, true) ])
        fast_jobs)
    [ fig2ish (); phil3 (); opposed_pair (); safe_pair () ]

let test_fast_lemma1_identical () =
  List.iter
    (fun sys ->
      List.iter
        (fun jobs ->
          check bool_t
            (Printf.sprintf "safe_and_deadlock_free jobs=%d" jobs)
            true
            (Par.safe_and_deadlock_free ~mode:`Fast ~jobs sys
            = Explore.safe_and_deadlock_free sys);
          check bool_t
            (Printf.sprintf "safe jobs=%d" jobs)
            true
            (Par.safe ~mode:`Fast ~jobs sys = Explore.safe sys))
        fast_jobs)
    [ opposed_pair (); safe_pair (); fig2ish () ]

let test_fast_witness_valid () =
  (* The raw relaxed witness (no re-canonicalization) is whichever
     deadlock a worker reached first: any such schedule must be legal
     and replay to its deadlocked endpoint. *)
  let sys = fig2ish () in
  (match Par.bfs ~mode:`Fast ~jobs:4 sys ~found:(State.is_deadlock sys) with
  | None -> Alcotest.fail "fig2ish deadlocks"
  | Some (sched, stf) ->
      check bool_t "legal" true (Schedule.is_legal sys sched);
      check bool_t "endpoint" true
        (State.equal (Schedule.prefix_vector sys sched) stf);
      check bool_t "deadlocked" true (State.is_deadlock sys stf));
  let safe = safe_pair () in
  check bool_t "safe system: no witness" true
    (Par.bfs ~mode:`Fast ~jobs:4 safe ~found:(State.is_deadlock safe) = None)

let test_fast_cap_never_undercounts () =
  (* Exact-fit budgets succeed (the cap can never fire on a space that
     fits); a cap below the space always raises, carrying n >= cap. *)
  let sys = eight_state_sys () in
  List.iter
    (fun jobs ->
      check int_t "exact budget fits" 8
        (Par.state_count (Par.explore ~mode:`Fast ~max_states:8 ~jobs sys));
      (match Par.explore ~mode:`Fast ~max_states:7 ~jobs sys with
      | exception Explore.Too_large n ->
          check bool_t "overshoot only" true (n >= 7)
      | _ -> Alcotest.fail "expected Too_large");
      match Par.explore ~mode:`Fast ~max_states:0 ~jobs sys with
      | exception Explore.Too_large _ -> ()
      | _ -> Alcotest.fail "expected Too_large 0")
    fast_jobs

let test_fast_prefix_and_minimize () =
  let sys = fig2ish () in
  check bool_t "prefix verdict" true
    (Prefix_search.deadlock_free ~jobs:2 sys
    = Prefix_search.deadlock_free sys);
  (match Prefix_search.find ~jobs:2 sys with
  | None -> Alcotest.fail "fig2ish must have a deadlock prefix"
  | Some w ->
      check bool_t "schedule legal" true
        (Schedule.is_legal sys w.Prefix_search.schedule);
      check bool_t "prefix realized" true
        (State.equal
           (Schedule.prefix_vector sys w.Prefix_search.schedule)
           w.Prefix_search.prefix);
      check bool_t "reduction graph cyclic" true
        (Reduction.has_cycle (Reduction.make sys w.Prefix_search.prefix)));
  check bool_t "all ~fast finds the same set" true
    (List.sort compare
       (List.map State.key
          (List.of_seq (Prefix_search.all ~jobs:2 sys)))
    = List.sort compare
        (List.map State.key (List.of_seq (Prefix_search.all sys))));
  match
    ( Ddlock.Minimize.deadlock_core sys,
      Ddlock.Minimize.deadlock_core ~jobs:2 sys )
  with
  | Some a, Some b ->
      check bool_t "same minimized core" true
        (a.Ddlock.Minimize.kept_txns = b.Ddlock.Minimize.kept_txns
        && a.Ddlock.Minimize.dropped_entities
           = b.Ddlock.Minimize.dropped_entities)
  | _ -> Alcotest.fail "fig2ish must minimize"

(* ------------------------------------------------------------------ *)
(* Properties: differential vs the sequential engine                   *)
(* ------------------------------------------------------------------ *)

let seed_and_jobs = QCheck.(pair (int_bound 1_000_000) (int_range 2 4))

let fast_verdict_prop =
  QCheck.Test.make
    ~name:"fast find_deadlock ≡ sequential (any sym/por combination)"
    ~count:30
    QCheck.(
      triple (int_bound 1_000_000) (int_range 2 4) (pair bool bool))
    (fun (seed, jobs, (symmetry, por)) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Par.find_deadlock ~mode:`Fast ~symmetry ~por ~jobs sys
      = Explore.find_deadlock sys)

let fast_count_prop =
  QCheck.Test.make ~name:"fast explore ≡ sequential (state set size)"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      Par.state_count (Par.explore ~mode:`Fast ~jobs sys)
      = Explore.state_count (Explore.explore sys))

let fast_lemma1_prop =
  QCheck.Test.make ~name:"fast Lemma-1 ≡ sequential (exact counterexample)"
    ~count:25 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_pair st in
      Par.safe_and_deadlock_free ~mode:`Fast ~jobs sys
      = Explore.safe_and_deadlock_free sys
      && Par.safe ~mode:`Fast ~jobs sys = Explore.safe sys)

let fast_witness_valid_prop =
  QCheck.Test.make ~name:"fast raw witness is a legal deadlock replay"
    ~count:30 seed_and_jobs
    (fun (seed, jobs) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:3 in
      let seq_deadlocks = Explore.find_deadlock sys <> None in
      match Par.bfs ~mode:`Fast ~jobs sys ~found:(State.is_deadlock sys) with
      | None -> not seq_deadlocks
      | Some (sched, stf) ->
          seq_deadlocks
          && Schedule.is_legal sys sched
          && State.equal (Schedule.prefix_vector sys sched) stf
          && State.is_deadlock sys stf)

let fast_cap_prop =
  (* The relaxed cap may overshoot (bounded by work in flight) but can
     never undercount: it raises iff the space exceeds the budget, and
     the carried total is never below the budget. *)
  QCheck.Test.make ~name:"fast cap raises iff space exceeds it, n >= cap"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 1 40))
    (fun (seed, jobs, max_states) ->
      let st = Fixtures.rng seed in
      let sys = Fixtures.small_random_system st ~txns:2 in
      let true_count = Explore.state_count (Explore.explore sys) in
      match Par.explore ~mode:`Fast ~max_states ~jobs sys with
      | sp -> true_count <= max_states && Par.state_count sp = true_count
      | exception Explore.Too_large n ->
          true_count > max_states && n >= max_states)

let intern_prop =
  QCheck.Test.make ~name:"intern injective + idempotent on random keys"
    ~count:50
    QCheck.(small_list small_int)
    (fun xs ->
      let t = Intern.create ~capacity:2 ~equal:Int.equal ~hash:Hashtbl.hash () in
      let ids = List.map (fun x -> fst (Intern.intern t x)) xs in
      List.for_all2
        (fun x id ->
          (* idempotent: re-interning returns the same id, no growth *)
          fst (Intern.intern t x) = id && Int.equal (Intern.get t id) x)
        xs ids
      && List.for_all2
           (fun x id ->
             List.for_all2
               (fun y id' -> Int.equal x y = (id = id'))
               xs ids)
           xs ids
      && Intern.count t = List.length (List.sort_uniq compare xs))

let qtests =
  List.map Fixtures.to_alcotest
    [
      fast_verdict_prop;
      fast_count_prop;
      fast_lemma1_prop;
      fast_witness_valid_prop;
      fast_cap_prop;
      intern_prop;
    ]

let suite =
  [
    Alcotest.test_case "intern basics" `Quick test_intern_basics;
    Alcotest.test_case "intern growth" `Quick test_intern_growth;
    Alcotest.test_case "counts match" `Quick test_fast_counts;
    Alcotest.test_case "find_deadlock byte-identical" `Quick
      test_fast_find_deadlock_identical;
    Alcotest.test_case "lemma1 identical" `Quick test_fast_lemma1_identical;
    Alcotest.test_case "raw witness valid" `Quick test_fast_witness_valid;
    Alcotest.test_case "cap never undercounts" `Quick
      test_fast_cap_never_undercounts;
    Alcotest.test_case "prefix search and minimize" `Quick
      test_fast_prefix_and_minimize;
  ]
  @ qtests
