open Ddlock_model
open Ddlock_schedule

type config = Engine.config = {
  min_duration : float;
  max_duration : float;
  site_latency : float;
  request_jitter : float;
}

let default_config = Engine.default_config

type trace_entry = Engine.entry = { time : float; step : Step.t }

type outcome =
  | Finished of { makespan : float }
  | Deadlock of {
      time : float;
      waits_for : (int * Db.entity * int) list;
      cycle : int list;
    }

type run = { outcome : outcome; trace : trace_entry list }

let run ?(config = default_config) ?faults rng sys =
  let n = System.size sys in
  let r = Engine.run Engine.Wait ?faults config rng (Engine.of_system sys) in
  let outcome =
    if r.Engine.commits = n then Finished { makespan = r.Engine.makespan }
    else
      let cycle = Option.value ~default:[] (Engine.cycle n r.Engine.waits) in
      Deadlock { time = r.Engine.time; waits_for = r.Engine.waits; cycle }
  in
  { outcome; trace = r.Engine.trace }

let schedule_of_run r = List.map (fun e -> e.step) r.trace

type batch_stats = {
  runs : int;
  deadlocks : int;
  non_serializable : int;
  mean_makespan : float;
}

let batch ?config ?faults rng sys ~runs =
  let deadlocks = ref 0 and bad = ref 0 and total = ref 0.0 and completed = ref 0 in
  for _ = 1 to runs do
    let r = run ?config ?faults rng sys in
    match r.outcome with
    | Deadlock _ -> incr deadlocks
    | Finished { makespan } ->
        incr completed;
        total := !total +. makespan;
        if not (Dgraph.is_serializable sys (schedule_of_run r)) then incr bad
  done;
  {
    runs;
    deadlocks = !deadlocks;
    non_serializable = !bad;
    mean_makespan = (if !completed = 0 then Float.nan else !total /. float_of_int !completed);
  }

let pp_outcome sys ppf = function
  | Finished { makespan } -> Format.fprintf ppf "finished at t=%.2f" makespan
  | Deadlock { time; waits_for; cycle } ->
      Format.fprintf ppf "@[<v>deadlock at t=%.2f" time;
      List.iter
        (fun (w, e, h) ->
          Format.fprintf ppf "@,T%d waits for %s held by T%d" (w + 1)
            (Db.entity_name (System.db sys) e)
            (h + 1))
        waits_for;
      if cycle <> [] then
        Format.fprintf ppf "@,wait-for cycle: %a"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
             (fun ppf i -> Format.fprintf ppf "T%d" (i + 1)))
          cycle;
      Format.fprintf ppf "@]"

let pp_batch ppf s =
  Format.fprintf ppf
    "%d runs: %d deadlocked, %d non-serializable, mean makespan %.2f" s.runs
    s.deadlocks s.non_serializable s.mean_makespan
