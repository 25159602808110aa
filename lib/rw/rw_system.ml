open Ddlock_graph
open Ddlock_model

type t = { db : Db.t; txns : Rw_txn.t array }

let create = function
  | [] -> invalid_arg "Rw_system.create: empty"
  | t0 :: _ as l ->
      let db = Rw_txn.db t0 in
      List.iter
        (fun t ->
          if Rw_txn.db t != db then
            invalid_arg "Rw_system.create: different schemas")
        l;
      { db; txns = Array.of_list l }

let size t = Array.length t.txns
let txn t i = t.txns.(i)
let txns t = t.txns
let db t = t.db

let to_exclusive t =
  System.create (List.map Rw_txn.to_exclusive (Array.to_list t.txns))

type step = Ddlock_schedule.Step.t = { txn : int; node : int }

let step_to_string sys s =
  Printf.sprintf "%s^%d"
    (Rw_txn.node_to_string sys.db (Rw_txn.node sys.txns.(s.txn) s.node))
    (s.txn + 1)

type state = Bitset.t array

let initial sys = Array.map Rw_txn.empty_prefix sys.txns

let apply st (s : step) =
  let st' = Array.map Bitset.copy st in
  Bitset.set st'.(s.txn) s.node;
  st'

let holders sys st e =
  let hs = ref [] and mode = ref None in
  Array.iteri
    (fun i tx ->
      if Rw_txn.accesses tx e then begin
        let l = Rw_txn.lock_node_exn tx e and u = Rw_txn.unlock_node_exn tx e in
        if Bitset.mem st.(i) l && not (Bitset.mem st.(i) u) then begin
          hs := i :: !hs;
          mode := Some (Rw_txn.mode_of tx e)
        end
      end)
    sys.txns;
  (List.rev !hs, !mode)

let lock_compatible sys st i e =
  let hs, mode = holders sys st e in
  let others = List.filter (fun j -> j <> i) hs in
  match (others, mode) with
  | [], _ -> true
  | _ :: _, Some Rw_txn.Read -> Rw_txn.mode_of sys.txns.(i) e = Rw_txn.Read
  | _ :: _, Some Rw_txn.Write -> false
  | _ :: _, None -> assert false

let enabled sys st =
  let steps = ref [] in
  for i = size sys - 1 downto 0 do
    let tx = sys.txns.(i) in
    List.iter
      (fun v ->
        let nd = Rw_txn.node tx v in
        let ok =
          match nd.Rw_txn.op with
          | Rw_txn.Unlock -> true
          | Rw_txn.Lock _ -> lock_compatible sys st i nd.Rw_txn.entity
        in
        if ok then steps := { txn = i; node = v } :: !steps)
      (Rw_txn.minimal_remaining tx st.(i))
  done;
  !steps

let finished sys st i =
  Bitset.cardinal st.(i) = Rw_txn.node_count sys.txns.(i)

let all_finished sys st =
  let rec go i = i >= size sys || (finished sys st i && go (i + 1)) in
  go 0

let is_deadlock sys st =
  let some_unfinished = ref false and ok = ref true in
  Array.iteri
    (fun i tx ->
      if not (finished sys st i) then begin
        some_unfinished := true;
        List.iter
          (fun v ->
            let nd = Rw_txn.node tx v in
            match nd.Rw_txn.op with
            | Rw_txn.Unlock -> ok := false
            | Rw_txn.Lock _ ->
                if lock_compatible sys st i nd.Rw_txn.entity then ok := false)
          (Rw_txn.minimal_remaining tx st.(i))
      end)
    sys.txns;
  !some_unfinished && !ok

exception Too_large of int

let key st =
  let buf = Buffer.create 64 in
  Array.iter
    (fun s ->
      Bitset.iter (fun i -> Buffer.add_string buf (string_of_int i ^ ",")) s;
      Buffer.add_char buf '|')
    st;
  Buffer.contents buf

let bfs ?(max_states = 2_000_000) sys ~found =
  let table = Hashtbl.create 1024 in
  let q = Queue.create () in
  let init = initial sys in
  Hashtbl.replace table (key init) ();
  Queue.push (init, []) q;
  let result = ref None in
  (try
     if found init then begin
       result := Some ([], init);
       raise Exit
     end;
     while not (Queue.is_empty q) do
       let st, rev = Queue.pop q in
       List.iter
         (fun s ->
           let st' = apply st s in
           let k = key st' in
           if not (Hashtbl.mem table k) then begin
             if Hashtbl.length table >= max_states then
               raise (Too_large (Hashtbl.length table));
             Hashtbl.replace table k ();
             let rev' = s :: rev in
             if found st' then begin
               result := Some (List.rev rev', st');
               raise Exit
             end;
             Queue.push (st', rev') q
           end)
         (enabled sys st)
     done
   with Exit -> ());
  !result

let find_deadlock ?max_states sys =
  bfs ?max_states sys ~found:(fun st -> is_deadlock sys st)

let deadlock_free ?max_states sys = find_deadlock ?max_states sys = None

let conflicting sys i k e =
  Rw_txn.mode_of sys.txns.(i) e = Rw_txn.Write
  || Rw_txn.mode_of sys.txns.(k) e = Rw_txn.Write

let conflict_graph sys steps =
  let ne = Db.entity_count sys.db in
  let lock_order = Array.make ne [] in
  List.iter
    (fun (s : step) ->
      let nd = Rw_txn.node sys.txns.(s.txn) s.node in
      match nd.Rw_txn.op with
      | Rw_txn.Lock _ ->
          lock_order.(nd.Rw_txn.entity) <-
            s.txn :: lock_order.(nd.Rw_txn.entity)
      | Rw_txn.Unlock -> ())
    steps;
  let es = ref [] in
  for e = 0 to ne - 1 do
    let rec pairs = function
      | [] -> ()
      | i :: rest ->
          List.iter
            (fun j -> if j <> i && conflicting sys i j e then es := (i, j) :: !es)
            rest;
          pairs rest
    in
    pairs (List.rev lock_order.(e))
  done;
  Digraph.create (size sys) !es

let is_conflict_serializable sys steps =
  Topo.is_acyclic (conflict_graph sys steps)

(* Exhaustive safety: explore (state, accumulated conflict arcs); judge
   acyclicity at complete states.  Arcs are added when a Lock executes:
   one arc i -> k for every conflicting accessor k that has not locked
   the entity yet (on complete schedules this is exactly the conflict
   graph). *)
module Edge_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let safe ?(max_states = 2_000_000) sys =
  let table = Hashtbl.create 1024 in
  let q = Queue.create () in
  let init = initial sys in
  let ekey es =
    String.concat ";"
      (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) (Edge_set.elements es))
  in
  let kk st es = key st ^ "#" ^ ekey es in
  Hashtbl.replace table (kk init Edge_set.empty) ();
  Queue.push (init, Edge_set.empty, []) q;
  let result = ref (Ok ()) in
  (try
     while not (Queue.is_empty q) do
       let st, es, rev = Queue.pop q in
       List.iter
         (fun (s : step) ->
           let nd = Rw_txn.node sys.txns.(s.txn) s.node in
           let es' =
             match nd.Rw_txn.op with
             | Rw_txn.Unlock -> es
             | Rw_txn.Lock _ ->
                 let e = nd.Rw_txn.entity in
                 let acc = ref es in
                 for k = 0 to size sys - 1 do
                   if
                     k <> s.txn
                     && Rw_txn.accesses sys.txns.(k) e
                     && conflicting sys s.txn k e
                     && not
                          (Bitset.mem st.(k) (Rw_txn.lock_node_exn sys.txns.(k) e))
                   then acc := Edge_set.add (s.txn, k) !acc
                 done;
                 !acc
           in
           let st' = apply st s in
           let k' = kk st' es' in
           if not (Hashtbl.mem table k') then begin
             if Hashtbl.length table >= max_states then
               raise (Too_large (Hashtbl.length table));
             Hashtbl.replace table k' ();
             let rev' = s :: rev in
             if
               all_finished sys st'
               && not
                    (Topo.is_acyclic
                       (Digraph.create (size sys) (Edge_set.elements es')))
             then begin
               result := Error (List.rev rev');
               raise Exit
             end;
             Queue.push (st', es', rev') q
           end)
         (enabled sys st)
     done
   with Exit -> ());
  !result

type run = Completed of step list | Deadlocked of step list

let random_run rng sys =
  let rec go st rev =
    if all_finished sys st then Completed (List.rev rev)
    else
      match enabled sys st with
      | [] -> Deadlocked (List.rev rev)
      | steps ->
          let s = List.nth steps (Random.State.int rng (List.length steps)) in
          go (apply st s) (s :: rev)
  in
  go (initial sys) []
