open Ddlock_model
open Ddlock_schedule

type scheme = Engine.scheme =
  | Wait_die
  | Wound_wait
  | Detect of { period : float }
  | Timeout of { base : float; cap : float; max_retries : int }
  | Probabilistic

type config = {
  base : Runtime.config;
  restart_delay : float;
  max_time : float;
}

let default_config =
  { base = Runtime.default_config; restart_delay = 3.0; max_time = 100_000.0 }

let default_timeout = Timeout { base = 6.0; cap = 60.0; max_retries = 6 }

type stats = {
  commits : int;
  aborts : int;
  makespan : float;
  timed_out : bool;
}

type run = {
  stats : stats;
  aborts_by_txn : int array;
  committed_trace : Step.t list;
  stuck_waits : (int * int * int) list;
}

let run ~scheme ?(config = default_config) ?faults rng sys =
  let policy =
    Engine.Recover
      { scheme; restart_delay = config.restart_delay; max_time = config.max_time }
  in
  let r = Engine.run policy ?faults config.base rng (Engine.of_system sys) in
  let { Engine.commits; aborts; makespan; committed; _ } = r in
  {
    stats = { commits; aborts; makespan; timed_out = commits < System.size sys };
    aborts_by_txn = r.Engine.aborts_by_txn;
    committed_trace =
      List.filter_map
        (fun (e : Engine.entry) ->
          if committed.(e.step.txn) then Some e.step else None)
        r.Engine.trace;
    stuck_waits = r.Engine.waits;
  }

type batch_stats = {
  runs : int;
  total_aborts : int;
  max_aborts_single_txn : int;
  timeouts : int;
  illegal_traces : int;
  non_serializable_traces : int;
  mean_makespan : float;
}

let batch ~scheme ?config ?faults rng sys ~runs =
  let aborts = ref 0 and timeouts = ref 0 and max_single = ref 0 in
  let illegal = ref 0 and bad = ref 0 in
  let total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ~scheme ?config ?faults rng sys in
    aborts := !aborts + r.stats.aborts;
    Array.iter (fun a -> if a > !max_single then max_single := a) r.aborts_by_txn;
    if r.stats.timed_out then incr timeouts
    else begin
      incr completed;
      total := !total +. r.stats.makespan;
      if not (Schedule.is_complete sys r.committed_trace) then incr illegal;
      if not (Dgraph.is_serializable sys r.committed_trace) then incr bad
    end
  done;
  {
    runs;
    total_aborts = !aborts;
    max_aborts_single_txn = !max_single;
    timeouts = !timeouts;
    illegal_traces = !illegal;
    non_serializable_traces = !bad;
    mean_makespan =
      (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_batch ppf s =
  Format.fprintf ppf
    "%d runs: %d aborts (max %d per txn), %d timeouts, %d illegal, %d \
     non-serializable, mean makespan %.2f"
    s.runs s.total_aborts s.max_aborts_single_txn s.timeouts s.illegal_traces
    s.non_serializable_traces s.mean_makespan
