open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

type config = {
  min_duration : float;
  max_duration : float;
  site_latency : float;
  request_jitter : float;
}

let default_config =
  { min_duration = 1.0; max_duration = 2.0; site_latency = 0.5; request_jitter = 2.0 }

type scheme =
  | Wait_die
  | Wound_wait
  | Detect of { period : float }
  | Timeout of { base : float; cap : float; max_retries : int }
  | Probabilistic

type policy =
  | Wait
  | Recover of { scheme : scheme; restart_delay : float; max_time : float }

type access = Shared | Exclusive | Release

type shape = {
  db : Db.t;
  entity : Db.entity array array;
  access : access array array;
  minimal_remaining : int -> Bitset.t -> int list;
}

let of_system sys =
  let txns = System.txns sys in
  let nodes f = Array.map (fun t -> Array.map f (Transaction.nodes t)) txns in
  {
    db = System.db sys;
    entity = nodes (fun nd -> nd.Node.entity);
    access =
      nodes (fun nd -> if nd.Node.op = Node.Lock then Exclusive else Release);
    minimal_remaining = (fun i p -> Transaction.minimal_remaining txns.(i) p);
  }

type entry = { time : float; step : Step.t }

type result = {
  trace : entry list;
  time : float;
  commits : int;
  committed : bool array;
  makespan : float;
  aborts : int;
  aborts_by_txn : int array;
  waits : (int * Db.entity * int) list;
}

(* A Lock step first travels to the lock manager (Arrive), then, once
   granted, executes (Complete); Unlocks only have a Complete phase.
   Step events carry the incarnation that issued them: an abort bumps
   it, and the stale events die on arrival. *)
type event =
  | Arrive of Step.t * int
  | Complete of Step.t * int
  | Restart of int * int  (** transaction, incarnation *)
  | Tick of float  (** detect-and-abort period *)
  | Crash of Db.site  (** site goes down and drops its lock tables *)
  | Deadline of Step.t * int  (** lock-wait timeout check *)

(* Waiters carry (step, incarnation, enqueue time); the time feeds the
   lock wait-time histogram and survives the re-queue that happens when
   a grant replays the remaining waiters against a new holder. *)
type lock = {
  mutable holders : int list;  (** newest first; several only if shared *)
  mutable shared : bool;  (** the holders hold in shared mode *)
  waiters : (Step.t * int * float) Queue.t;
}

let obs_lock_wait = Ddlock_obs.Metrics.Histogram.make "sim.lock_wait_us"
let obs_queue_depth = Ddlock_obs.Metrics.Histogram.make "sim.queue_depth"
let obs_runs = Ddlock_obs.Metrics.Counter.make "sim.runs"
let obs_deadlocks = Ddlock_obs.Metrics.Counter.make "sim.deadlock_runs"
let obs_aborts = Ddlock_obs.Metrics.Counter.make "sim.aborts"
let obs_retries = Ddlock_obs.Metrics.Counter.make "sim.retries"
let obs_lock_timeouts = Ddlock_obs.Metrics.Counter.make "sim.lock_timeouts"
let obs_commits = Ddlock_obs.Metrics.Counter.make "sim.commits"
let obs_crashes = Ddlock_obs.Metrics.Counter.make "sim.site_crashes"

(* Sim time is abstract (float); wait times are recorded in micro-units
   so the log2 buckets resolve sub-unit waits. *)
let obs_wait ~since ~now =
  Ddlock_obs.Metrics.Histogram.observe obs_lock_wait
    (int_of_float ((now -. since) *. 1e6))

(* The wait-for graph is built from the arcs in reverse, which fixes the
   cycle [Topo.find_cycle] reports and so the victim of detect-and-abort. *)
let cycle n waits =
  Topo.find_cycle
    (Digraph.create n (List.rev_map (fun (w, _, h) -> (w, h)) waits))

let run policy ?(faults = Faults.none) cfg rng sh =
  let n = Array.length sh.entity and db = sh.db in
  let entity (s : Step.t) = sh.entity.(s.txn).(s.node) in
  let access (s : Step.t) = sh.access.(s.txn).(s.node) in
  let node_count i = Array.length sh.entity.(i) in
  let ne = Db.entity_count db in
  let inj = Faults.injector faults in
  let scheme, restart_delay, max_time =
    match policy with
    | Wait -> (None, 0.0, Float.infinity)
    | Recover { scheme; restart_delay; max_time } ->
        (Some scheme, restart_delay, max_time)
  in
  let locks =
    Array.init ne (fun _ ->
        { holders = []; shared = false; waiters = Queue.create () })
  in
  let prefix i = Bitset.create (node_count i) in
  let executed = Array.init n prefix and started = Array.init n prefix in
  (* Requests processed by a lock manager in the current incarnation, for
     dedup of duplicated deliveries. *)
  let arrived = Array.init n prefix in
  (* Nodes left to execute in the current incarnation. *)
  let remaining = Array.init n node_count in
  let incarnation = Array.make n 0 in
  let committed = Array.make n false in
  (* Timeout-abort count per transaction: drives the exponential
     backoff. *)
  let attempts = Array.make n 0 in
  let aborts_by_txn = Array.make n 0 in
  (* Probabilistic scheme: a random priority per incarnation, redrawn on
     every abort.  Drawn only under [Probabilistic] so the other
     policies' random streams are unchanged. *)
  let prio =
    match scheme with
    | Some Probabilistic -> Array.init n (fun _ -> Random.State.float rng 1.0)
    | _ -> [||]
  in
  (* Strict total order on live incarnations (ties broken by index). *)
  let beats r h = prio.(r) > prio.(h) || (prio.(r) = prio.(h) && r < h) in
  let last_site = Array.make n (-1) in
  let events : event Pqueue.t = Pqueue.create () in
  let now = ref 0.0 in
  let commits = ref 0 and aborts = ref 0 and makespan = ref 0.0 in
  (* (incarnation, completion), newest first *)
  let trace = ref [] in
  let duration i e =
    let d =
      cfg.min_duration
      +. Random.State.float rng (max 1e-9 (cfg.max_duration -. cfg.min_duration))
    in
    let site = Db.site_of db e in
    let extra =
      if last_site.(i) >= 0 && last_site.(i) <> site then cfg.site_latency
      else 0.0
    in
    last_site.(i) <- site;
    d +. extra
  in
  (* Exponential backoff with jitter: full window after [attempts]
     timeouts, growth capped at [max_retries] doublings and [cap]. *)
  let backoff_window base cap max_retries j =
    let k = min attempts.(j) max_retries in
    Float.min cap (base *. (2.0 ** float_of_int k))
  in
  let jittered w = w *. (0.5 +. Random.State.float rng 1.0) in
  let restart_backoff j =
    match scheme with
    | Some (Timeout { base; cap; max_retries }) ->
        jittered (backoff_window base cap max_retries j)
    | _ -> 0.0
  in
  (* Begin executing a node whose predecessors are all done.  Every
     message (request, grant, release) goes through the fault injector,
     which may add loss-retransmission and crash/stall delays and
     duplicate lock requests. *)
  let rec start (step : Step.t) =
    Bitset.set started.(step.txn) step.node;
    let inc = incarnation.(step.txn) in
    let e = entity step in
    let site = Db.site_of db e in
    match access step with
    | Release ->
        let d = duration step.txn e in
        Pqueue.push events
          (Faults.deliver inj ~site ~now:!now ~transit:d)
          (Complete (step, inc))
    | Shared | Exclusive ->
        let transit = Random.State.float rng (max 1e-9 cfg.request_jitter) in
        Pqueue.push events
          (Faults.deliver inj ~site ~now:!now ~transit)
          (Arrive (step, inc));
        if Faults.duplicated inj ~now:!now then
          Pqueue.push events
            (Faults.deliver inj ~site ~now:!now ~transit)
            (Arrive (step, inc))
  (* Start the ready nodes of [i], or commit it once every node ran. *)
  and start_ready i =
    if committed.(i) then ()
    else if remaining.(i) = 0 then begin
      committed.(i) <- true;
      incr commits;
      Ddlock_obs.Metrics.Counter.incr obs_commits;
      makespan := !now
    end
    else
      List.iter
        (fun v -> if not (Bitset.mem started.(i) v) then start (Step.v i v))
        (sh.minimal_remaining i executed.(i))
  in
  (* Make [w] a holder of [e]; the grant message travels back from the
     manager, subject to faults. *)
  let take (w : Step.t) winc e =
    let l = locks.(e) in
    l.holders <- w.txn :: l.holders;
    l.shared <- access w = Shared;
    Pqueue.push events
      (Faults.deliver inj ~site:(Db.site_of db e) ~now:!now
         ~transit:(duration w.txn e))
      (Complete (w, winc))
  in
  (* May [w] join the current holders of [l]? *)
  let joins l w = l.shared && access w = Shared in
  let valid ((w : Step.t), winc, _) =
    winc = incarnation.(w.txn) && not committed.(w.txn)
  in
  (* Empty the queue of [l]; the still-valid entries, in FIFO order. *)
  let drain_valid l =
    let rest = ref [] in
    while not (Queue.is_empty l.waiters) do
      let entry = Queue.pop l.waiters in
      if valid entry then rest := entry :: !rest
    done;
    List.rev !rest
  in
  (* Grant [e] to the still-valid waiters at the head of its queue that
     the modes admit, dropping stale entries; [true] if any was granted. *)
  let rec admit e granted =
    let l = locks.(e) in
    match Queue.peek_opt l.waiters with
    | Some entry when not (valid entry) ->
        ignore (Queue.pop l.waiters);
        admit e granted
    | Some (w, winc, since) when l.holders = [] || joins l w ->
        ignore (Queue.pop l.waiters);
        obs_wait ~since ~now:!now;
        take w winc e;
        admit e true
    | _ -> granted
  in
  (* After a release: admit waiters, then, under a recovery scheme,
     replay the remaining waiters against the new holder.  The scheme's
     rule must be re-applied whenever the holder changes, otherwise
     forbidden wait directions (e.g. younger-waits-on-older under
     wait-die) leak in via the queue and can re-create deadlocks. *)
  let rec grant e =
    let l = locks.(e) in
    if admit e false && Option.is_some scheme then
      List.iter
        (fun ((w, winc, since) : Step.t * int * float) ->
          if winc = incarnation.(w.txn) then
            match l.holders with
            | h :: _ -> on_lock_conflict w winc ~since h
            | [] ->
                (* the scheme aborted the holder meanwhile *)
                obs_wait ~since ~now:!now;
                take w winc e)
        (drain_valid l)
  and abort j =
    incr aborts;
    Ddlock_obs.Metrics.Counter.incr obs_aborts;
    aborts_by_txn.(j) <- aborts_by_txn.(j) + 1;
    incarnation.(j) <- incarnation.(j) + 1;
    (match scheme with
    | Some Probabilistic ->
        (* Redraw: a repeatedly-wounded transaction eventually draws the
           top priority, which bounds starvation with probability 1. *)
        prio.(j) <- Random.State.float rng 1.0
    | _ -> ());
    executed.(j) <- prefix j;
    started.(j) <- prefix j;
    arrived.(j) <- prefix j;
    remaining.(j) <- node_count j;
    (* Release everything j holds; stale queue entries and in-flight
       events die via the incarnation check. *)
    for e = 0 to ne - 1 do
      if List.mem j locks.(e).holders then release j e
    done;
    Pqueue.push events
      (!now +. restart_delay +. restart_backoff j)
      (Restart (j, incarnation.(j)))
  and release j e =
    let l = locks.(e) in
    l.holders <- List.filter (fun h -> h <> j) l.holders;
    grant e
  and on_lock_conflict (step : Step.t) inc ~since holder =
    let r = step.txn and e = entity step in
    let wait () = Queue.push (step, inc, since) locks.(e).waiters in
    (* The requester preempts the holder.  The abort released [e] and
       may have re-granted it to a queued waiter: re-apply the rule
       against the new holder.  Queueing unconditionally here would let
       the requester wait behind a transaction it outranks (a descending
       wait arc), and one such arc is enough to close a wait-for cycle
       that the scheme exists to preclude. *)
    let wound () =
      abort holder;
      match locks.(e).holders with
      | [] -> take step inc e
      | h' :: _ -> on_lock_conflict step inc ~since h'
    in
    match scheme with
    | None | Some (Detect _) -> wait ()
    | Some (Timeout { base; cap; max_retries }) ->
        wait ();
        let w = jittered (backoff_window base cap max_retries r) in
        Pqueue.push events (!now +. w) (Deadline (step, inc))
    | Some Wait_die ->
        (* an older requester waits, a younger one dies *)
        if r < holder then wait () else abort r
    | Some Wound_wait ->
        (* timestamps are arrival order, kept across restarts *)
        if r < holder then wound () else wait ()
    | Some Probabilistic ->
        (* Wound-wait with random per-incarnation priorities [O&B,
           arXiv:1010.4411]: wait arcs always ascend the (priority,
           index) order, so the wait-for graph is acyclic, and the
           redraw-on-abort makes persistent starvation a
           probability-zero event. *)
        if beats r holder then wound () else wait ()
  in
  (* A site crash drops its lock tables: holders of its entities abort
     (their in-flight grants die with the incarnation bump) and queued
     waiters are lost — still-valid ones retransmit their requests, which
     the fault layer defers past the crash window. *)
  let on_crash s =
    Ddlock_obs.Metrics.Counter.incr obs_crashes;
    for e = 0 to ne - 1 do
      if Db.site_of db e = s then begin
        let l = locks.(e) in
        List.iter
          (fun ((w : Step.t), winc, _) ->
            Bitset.clear arrived.(w.txn) w.node;
            Pqueue.push events
              (Faults.deliver inj ~site:s ~now:!now
                 ~transit:(Faults.plan inj).Faults.retransmit)
              (Arrive (w, winc)))
          (drain_valid l);
        List.iter (fun h -> if not committed.(h) then abort h) l.holders
      end
    done
  in
  (* The wait-for arcs of currently-valid waiters, in entity and queue
     order. *)
  let wait_for () =
    let arcs = ref [] in
    Array.iteri
      (fun e l ->
        Queue.iter
          (fun ((w : Step.t), winc, _) ->
            if winc = incarnation.(w.txn) then
              List.iter (fun h -> arcs := (w.txn, e, h) :: !arcs) l.holders)
          l.waiters)
      locks;
    List.rev !arcs
  in
  for i = 0 to n - 1 do
    start_ready i
  done;
  (match scheme with
  | Some (Detect { period }) -> Pqueue.push events period (Tick period)
  | _ -> ());
  if Option.is_some scheme then
    List.iter
      (fun (w : Faults.window) ->
        Pqueue.push events w.Faults.from_t (Crash w.Faults.site))
      faults.Faults.crashes;
  let rec loop () =
    if !commits < n then
      match Pqueue.pop events with
      | None -> ()
      | Some (t, _) when t > max_time -> ()
      | Some (t, ev) ->
          now := t;
          (match ev with
          | Restart (j, inc) ->
              if inc = incarnation.(j) && not committed.(j) then begin
                Ddlock_obs.Metrics.Counter.incr obs_retries;
                start_ready j
              end
          | Crash s -> on_crash s
          | Deadline (step, inc) ->
              (* Still waiting (not granted, not executed) in the same
                 incarnation: time out, abort, restart with backoff. *)
              let j = step.txn in
              if
                inc = incarnation.(j)
                && (not committed.(j))
                && (not (Bitset.mem executed.(j) step.node))
                && not (List.mem j locks.(entity step).holders)
              then begin
                attempts.(j) <- attempts.(j) + 1;
                Ddlock_obs.Metrics.Counter.incr obs_lock_timeouts;
                abort j
              end
          | Tick period ->
              (match cycle n (wait_for ()) with
              | Some cycle ->
                  (* Abort the youngest (largest timestamp). *)
                  abort (List.fold_left max (List.hd cycle) cycle)
              | None -> ());
              if !commits < n then Pqueue.push events (t +. period) (Tick period)
          | Arrive (step, inc) ->
              (* Duplicated deliveries of the same request are ignored. *)
              if
                inc = incarnation.(step.txn)
                && not (Bitset.mem arrived.(step.txn) step.node)
              then begin
                Bitset.set arrived.(step.txn) step.node;
                let e = entity step in
                let l = locks.(e) in
                if l.holders = [] || (joins l step && Queue.is_empty l.waiters)
                then take step inc e
                else begin
                  on_lock_conflict step inc ~since:t (List.hd l.holders);
                  Ddlock_obs.Metrics.Histogram.observe obs_queue_depth
                    (Queue.length l.waiters)
                end
              end
          | Complete (step, inc) ->
              if inc = incarnation.(step.txn) then begin
                trace := (inc, { time = t; step }) :: !trace;
                Bitset.set executed.(step.txn) step.node;
                remaining.(step.txn) <- remaining.(step.txn) - 1;
                if access step = Release then release step.txn (entity step);
                start_ready step.txn
              end);
          loop ()
  in
  loop ();
  Ddlock_obs.Metrics.Counter.incr obs_runs;
  if !commits < n then Ddlock_obs.Metrics.Counter.incr obs_deadlocks;
  let trace =
    List.fold_left
      (fun acc (inc, e) ->
        if inc = incarnation.(e.step.txn) then e :: acc else acc)
      [] !trace
  in
  let waits = if !commits < n then wait_for () else [] in
  { trace; time = !now; commits = !commits; committed; makespan = !makespan;
    aborts = !aborts; aborts_by_txn; waits }
