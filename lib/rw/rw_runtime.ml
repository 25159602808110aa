open Ddlock_model
module Engine = Ddlock_sim.Engine
module Runtime = Ddlock_sim.Runtime

type outcome =
  | Finished of { makespan : float }
  | Deadlock of { time : float; waits_for : (int * Db.entity * int) list }

type run = { outcome : outcome; trace : Rw_system.step list }

let shape sys =
  let txns = Rw_system.txns sys in
  let nodes f =
    Array.map
      (fun t -> Array.init (Rw_txn.node_count t) (fun v -> f (Rw_txn.node t v)))
      txns
  in
  {
    Engine.db = Rw_system.db sys;
    entity = nodes (fun nd -> nd.Rw_txn.entity);
    access =
      nodes (fun nd ->
          match nd.Rw_txn.op with
          | Rw_txn.Lock Rw_txn.Read -> Engine.Shared
          | Rw_txn.Lock Rw_txn.Write -> Engine.Exclusive
          | Rw_txn.Unlock -> Engine.Release);
    minimal_remaining = (fun i p -> Rw_txn.minimal_remaining txns.(i) p);
  }

let run ?(config = Runtime.default_config) ?faults rng sys =
  let r = Engine.run Engine.Wait ?faults config rng (shape sys) in
  {
    outcome =
      (if r.Engine.commits = Rw_system.size sys then
         Finished { makespan = r.Engine.makespan }
       else Deadlock { time = r.Engine.time; waits_for = r.Engine.waits });
    trace = List.map (fun (e : Engine.entry) -> e.step) r.Engine.trace;
  }

type batch_stats = Runtime.batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
  mean_makespan : float;
}

let batch ?config ?faults rng sys ~runs =
  let deadlocks = ref 0 and bad = ref 0 in
  let total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ?config ?faults rng sys in
    match r.outcome with
    | Deadlock _ -> incr deadlocks
    | Finished { makespan } ->
        incr completed;
        total := !total +. makespan;
        if not (Rw_system.is_conflict_serializable sys r.trace) then incr bad
  done;
  {
    runs;
    deadlocks = !deadlocks;
    non_serializable = !bad;
    mean_makespan =
      (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_batch = Runtime.pp_batch
