open Ddlock_model
open Ddlock_rw

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* Small helper: build a total-order rw transaction from a spec. *)
let rw db spec =
  match
    Rw_txn.of_total_order db
      (List.map
         (fun (op, name) ->
           let e = Db.find_entity_exn db name in
           match op with
           | `R -> { Rw_txn.entity = e; op = Rw_txn.Lock Rw_txn.Read }
           | `W -> { Rw_txn.entity = e; op = Rw_txn.Lock Rw_txn.Write }
           | `U -> { Rw_txn.entity = e; op = Rw_txn.Unlock })
         spec)
  with
  | Ok t -> t
  | Error es ->
      Alcotest.failf "invalid rw txn: %s"
        (String.concat "; "
           (List.map (fun e -> Format.asprintf "%a" (Rw_txn.pp_error db) e) es))

let db2 () = Db.one_site_per_entity [ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Validation and basics                                               *)
(* ------------------------------------------------------------------ *)

let test_validation () =
  let db = db2 () in
  let t = rw db [ (`R, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  check int_t "nodes" 4 (Rw_txn.node_count t);
  let a = Db.find_entity_exn db "a" and b = Db.find_entity_exn db "b" in
  check bool_t "mode a" true (Rw_txn.mode_of t a = Rw_txn.Read);
  check bool_t "mode b" true (Rw_txn.mode_of t b = Rw_txn.Write);
  check bool_t "2PL" true (Rw_txn.is_two_phase t);
  (* Double lock rejected. *)
  (match
     Rw_txn.of_total_order db
       [
         { Rw_txn.entity = a; op = Rw_txn.Lock Rw_txn.Read };
         { Rw_txn.entity = a; op = Rw_txn.Lock Rw_txn.Write };
         { Rw_txn.entity = a; op = Rw_txn.Unlock };
       ]
   with
  | Error es ->
      check bool_t "bad ops" true
        (List.exists (function Rw_txn.Bad_entity_ops _ -> true | _ -> false) es)
  | Ok _ -> Alcotest.fail "expected error")

let test_to_exclusive () =
  let db = db2 () in
  let t = rw db [ (`R, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let x = Rw_txn.to_exclusive t in
  check int_t "same node count" 4 (Transaction.node_count x);
  check bool_t "same entities" true
    (Transaction.entities x = Rw_txn.entities t)

(* ------------------------------------------------------------------ *)
(* Shared-lock semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_readers_share () =
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`U, "a") ] in
  let t2 = rw db [ (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  (* Both can hold a simultaneously. *)
  let st = Rw_system.initial sys in
  let st = Rw_system.apply st { Rw_system.txn = 0; node = 0 } in
  let st = Rw_system.apply st { Rw_system.txn = 1; node = 0 } in
  let a = Db.find_entity_exn db "a" in
  let hs, mode = Rw_system.holders sys st a in
  check (Alcotest.list int_t) "two holders" [ 0; 1 ] hs;
  check bool_t "read mode" true (mode = Some Rw_txn.Read);
  (* Under the exclusive abstraction this state is unreachable. *)
  check bool_t "rw df" true (Rw_system.deadlock_free sys);
  check bool_t "exclusive df too" true
    (Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys))

let test_writer_excludes () =
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`U, "a") ] in
  let t2 = rw db [ (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  let st = Rw_system.initial sys in
  let st = Rw_system.apply st { Rw_system.txn = 0; node = 0 } in
  (* T2's read lock is not enabled while the writer holds. *)
  let en = Rw_system.enabled sys st in
  check bool_t "reader blocked" false
    (List.exists (fun (s : Rw_system.step) -> s.txn = 1 && s.node = 0) en)

let test_rw_deadlock () =
  (* Classic upgrade-free write-write cycle. *)
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`W, "b"); (`W, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "deadlocks" false (Rw_system.deadlock_free sys);
  match Rw_system.find_deadlock sys with
  | Some (steps, st) ->
      check bool_t "deadlock state" true (Rw_system.is_deadlock sys st);
      check int_t "two steps in" 2 (List.length steps)
  | None -> Alcotest.fail "expected deadlock"

let test_readers_never_deadlock () =
  (* Read-read on the same entities in opposite orders: compatible, no
     deadlock — unlike the exclusive abstraction. *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`R, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`R, "b"); (`R, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "rw deadlock-free" true (Rw_system.deadlock_free sys);
  check bool_t "exclusive abstraction deadlocks" false
    (Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys));
  check bool_t "rw safe" true (Result.is_ok (Rw_system.safe sys))

(* ------------------------------------------------------------------ *)
(* Conflict-serializability                                            *)
(* ------------------------------------------------------------------ *)

let test_unsafe_rw () =
  (* T1 reads a, then writes b after releasing a; T2 writes a and b 2PL:
     non-2PL T1 lets T2 slip in between: r1(a) w2(a) w2(b) w1(b) has
     conflicts T1->T2 (a) and T2->T1 (b). *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`U, "a"); (`W, "b"); (`U, "b") ] in
  let t2 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  match Rw_system.safe sys with
  | Error steps ->
      check bool_t "witness complete & non-serializable" false
        (Rw_system.is_conflict_serializable sys steps)
  | Ok () -> Alcotest.fail "expected unsafe"

let test_read_only_conflictless () =
  (* Read-only transactions never conflict: conflict graph empty. *)
  let db = db2 () in
  let t1 = rw db [ (`R, "a"); (`R, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`R, "b"); (`U, "b"); (`R, "a"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  check bool_t "safe" true (Result.is_ok (Rw_system.safe sys));
  check bool_t "deadlock-free" true (Rw_system.deadlock_free sys)

(* Random RW generator for properties. *)
let random_rw_txn ?(write_only = false) st db ~k =
  let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
  (* random 2-phase or not, random modes, random positions: build a random
     total order with L before U per entity. *)
  let nodes =
    List.concat_map
      (fun e ->
        let m =
          if Random.State.bool st && not write_only then Rw_txn.Read
          else Rw_txn.Write
        in
        [ { Rw_txn.entity = e; op = Rw_txn.Lock m };
          { Rw_txn.entity = e; op = Rw_txn.Unlock } ])
      ents
  in
  (* Random shuffle then stable fix: move each Unlock after its Lock. *)
  let arr = Array.of_list nodes in
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let seen = Hashtbl.create 7 in
  let ordered =
    Array.to_list arr
    |> List.concat_map (fun (nd : Rw_txn.node) ->
           match nd.op with
           | Rw_txn.Lock _ ->
               Hashtbl.replace seen nd.entity ();
               [ nd ]
           | Rw_txn.Unlock ->
               if Hashtbl.mem seen nd.entity then [ nd ] else [])
  in
  (* Append missing unlocks. *)
  let have_unlock = Hashtbl.create 7 in
  List.iter
    (fun (nd : Rw_txn.node) ->
      if nd.op = Rw_txn.Unlock then Hashtbl.replace have_unlock nd.entity ())
    ordered;
  let missing =
    List.filter_map
      (fun e ->
        if Hashtbl.mem have_unlock e then None
        else Some { Rw_txn.entity = e; op = Rw_txn.Unlock })
      ents
  in
  match Rw_txn.of_total_order db (ordered @ missing) with
  | Ok t -> t
  | Error _ -> assert false

let rw_2pl_safe_prop =
  QCheck.Test.make ~name:"2PL rw-systems are conflict-serializable" ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      (* Force 2PL: locks then unlocks. *)
      let mk () =
        let k = 1 + Random.State.int st 3 in
        let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
        let locks =
          List.map
            (fun e ->
              let m = if Random.State.bool st then Rw_txn.Read else Rw_txn.Write in
              { Rw_txn.entity = e; op = Rw_txn.Lock m })
            ents
        in
        let unlocks =
          List.map (fun e -> { Rw_txn.entity = e; op = Rw_txn.Unlock }) ents
        in
        match Rw_txn.of_total_order db (locks @ unlocks) with
        | Ok t -> t
        | Error _ -> assert false
      in
      let sys = Rw_system.create [ mk (); mk () ] in
      Result.is_ok (Rw_system.safe sys))

(* E17: how conservative is the exclusive abstraction?  Sound directions
   validated as hard properties; the interesting gap (exclusive-unsafe
   but rw-safe, e.g. read-read "conflicts") is shown by example above. *)
let exclusive_df_implies_rw_df_prop =
  QCheck.Test.make
    ~name:"exclusive-abstraction deadlock-freedom ⇒ rw deadlock-freedom"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () = random_rw_txn st db ~k:(1 + Random.State.int st 3) in
      let sys = Rw_system.create [ mk (); mk () ] in
      let excl_df =
        Ddlock_schedule.Explore.deadlock_free (Rw_system.to_exclusive sys)
      in
      QCheck.assume excl_df;
      (* Every rw deadlock state embeds an exclusive one?  Not in general
         — readers reorder differently — but on 2-txn systems a rw
         deadlock needs two incompatible (write-involving) locks, which
         deadlock the exclusive system too. *)
      Rw_system.deadlock_free sys)

(* With every lock a Write, the rw model is the exclusive model, so the
   rw searches must agree with the exclusive ones on [to_exclusive]. *)
let all_write_matches_exclusive_prop =
  QCheck.Test.make
    ~name:"all-Write rw searches ≡ exclusive searches (deadlock, safety)"
    ~count:60
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () = random_rw_txn ~write_only:true st db ~k:(1 + Random.State.int st 3) in
      let sys = Rw_system.create (List.init (2 + Random.State.int st 2) (fun _ -> mk ())) in
      let x = Rw_system.to_exclusive sys in
      Rw_system.deadlock_free sys = Ddlock_schedule.Explore.deadlock_free x
      && Result.is_ok (Rw_system.safe sys)
         = Result.is_ok (Ddlock_schedule.Explore.safe x))

(* Reachable rw states, counted by a search independent of the kernel. *)
let rw_state_count sys =
  let seen = Hashtbl.create 64 in
  let rec go st =
    let k = Array.map Ddlock_graph.Bitset.to_list st in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      List.iter (fun s -> go (Rw_system.apply st s)) (Rw_system.enabled sys st)
    end
  in
  go (Rw_system.initial sys);
  Hashtbl.length seen

let rw_exact_cap_prop =
  QCheck.Test.make
    ~name:"rw find_deadlock ~max_states:k raises Too_large k iff > k states"
    ~count:60
    QCheck.(pair (int_bound 10_000_000) (int_range 1 60))
    (fun (seed, k) ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () = random_rw_txn st db ~k:(1 + Random.State.int st 3) in
      let sys = Rw_system.create [ mk (); mk () ] in
      (* A deadlock stops the search early; without one it holds every
         reachable state. *)
      QCheck.assume (Rw_system.deadlock_free sys);
      let n = rw_state_count sys in
      match Rw_system.find_deadlock ~max_states:k sys with
      | exception Rw_system.Too_large m -> n > k && m = k
      | r -> r = None && n <= k)

(* ------------------------------------------------------------------ *)
(* RW runtime                                                          *)
(* ------------------------------------------------------------------ *)

let catalog_system k =
  let names = "catalog" :: List.init k (fun i -> "row" ^ string_of_int i) in
  let db = Db.one_site_per_entity names in
  let catalog = Db.find_entity_exn db "catalog" in
  let mk i =
    let row = Db.find_entity_exn db ("row" ^ string_of_int i) in
    match
      Rw_txn.of_total_order db
        [
          { Rw_txn.entity = catalog; op = Rw_txn.Lock Rw_txn.Read };
          { Rw_txn.entity = row; op = Rw_txn.Lock Rw_txn.Write };
          { Rw_txn.entity = catalog; op = Rw_txn.Unlock };
          { Rw_txn.entity = row; op = Rw_txn.Unlock };
        ]
    with
    | Ok t -> t
    | Error _ -> assert false
  in
  Rw_system.create (List.init k mk)

let test_runtime_completes () =
  let sys = catalog_system 4 in
  let rng = Fixtures.rng 31 in
  let stats = Rw_runtime.batch rng sys ~runs:50 in
  check int_t "no deadlocks" 0 stats.Rw_runtime.deadlocks;
  check int_t "all serializable" 0 stats.Rw_runtime.non_serializable;
  check bool_t "makespan finite" true (Float.is_finite stats.Rw_runtime.mean_makespan)

let test_runtime_readers_overlap () =
  (* Readers-share speedup must be visible: rw makespan < exclusive. *)
  let sys = catalog_system 8 in
  let rng = Fixtures.rng 32 in
  let rw = Rw_runtime.batch rng sys ~runs:50 in
  let rng = Fixtures.rng 32 in
  let excl =
    Ddlock_sim.Runtime.batch rng (Rw_system.to_exclusive sys) ~runs:50
  in
  check bool_t "rw faster" true
    (rw.Rw_runtime.mean_makespan
    < excl.Ddlock_sim.Runtime.mean_makespan)

let test_runtime_write_deadlock_detected () =
  let db = db2 () in
  let t1 = rw db [ (`W, "a"); (`W, "b"); (`U, "a"); (`U, "b") ] in
  let t2 = rw db [ (`W, "b"); (`W, "a"); (`U, "b"); (`U, "a") ] in
  let sys = Rw_system.create [ t1; t2 ] in
  let rng = Fixtures.rng 33 in
  let saw = ref false in
  for _ = 1 to 200 do
    match (Rw_runtime.run rng sys).Rw_runtime.outcome with
    | Rw_runtime.Deadlock { waits_for; _ } ->
        saw := true;
        check bool_t "waits recorded" true (waits_for <> [])
    | Rw_runtime.Finished _ -> ()
  done;
  check bool_t "runtime deadlock observed" true !saw

let runtime_trace_serializable_prop =
  QCheck.Test.make
    ~name:"rw runtime completed traces are conflict-serializable (2PL)"
    ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let st = Fixtures.rng seed in
      let db = Ddlock_workload.Gentx.random_db ~sites:1 ~entities:3 in
      let mk () =
        let k = 1 + Random.State.int st 3 in
        let ents = Ddlock_workload.Gentx.random_entity_subset st db ~k in
        let locks =
          List.map
            (fun e ->
              let m = if Random.State.bool st then Rw_txn.Read else Rw_txn.Write in
              { Rw_txn.entity = e; op = Rw_txn.Lock m })
            ents
        in
        let unlocks =
          List.map (fun e -> { Rw_txn.entity = e; op = Rw_txn.Unlock }) ents
        in
        match Rw_txn.of_total_order db (locks @ unlocks) with
        | Ok t -> t
        | Error _ -> assert false
      in
      let sys = Rw_system.create [ mk (); mk (); mk () ] in
      let r = Rw_runtime.run st sys in
      match r.Rw_runtime.outcome with
      | Rw_runtime.Finished _ -> Rw_system.is_conflict_serializable sys r.Rw_runtime.trace
      | Rw_runtime.Deadlock _ -> true)

let qtests =
  List.map Fixtures.to_alcotest
    [
      rw_2pl_safe_prop;
      exclusive_df_implies_rw_df_prop;
      runtime_trace_serializable_prop;
      all_write_matches_exclusive_prop;
      rw_exact_cap_prop;
    ]

let suite =
  [
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "to_exclusive" `Quick test_to_exclusive;
    Alcotest.test_case "readers share" `Quick test_readers_share;
    Alcotest.test_case "writer excludes" `Quick test_writer_excludes;
    Alcotest.test_case "write-write deadlock" `Quick test_rw_deadlock;
    Alcotest.test_case "readers never deadlock" `Quick
      test_readers_never_deadlock;
    Alcotest.test_case "unsafe rw pair" `Quick test_unsafe_rw;
    Alcotest.test_case "read-only conflictless" `Quick
      test_read_only_conflictless;
    Alcotest.test_case "runtime completes" `Quick test_runtime_completes;
    Alcotest.test_case "runtime readers overlap" `Quick
      test_runtime_readers_overlap;
    Alcotest.test_case "runtime write deadlock" `Quick
      test_runtime_write_deadlock_detected;
  ]
  @ qtests
