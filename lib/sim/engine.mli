open Ddlock_graph
open Ddlock_model
open Ddlock_schedule

(** The discrete-event lock-manager loop behind {!Runtime}, {!Recovery}
    and [Rw_runtime]: one event queue, one lock table per entity, one
    fault injector.

    Each transaction executes its partial order with true intra-
    transaction concurrency: every ready step proceeds at once (one
    in-flight step per site, reflecting the model's site-total orders).
    Step durations are drawn from the {!config}, so different seeds
    explore different interleavings.  A lock request first travels to
    its entity's lock manager (possibly lost, duplicated or delayed by
    the {!Faults.plan}); the manager grants it or applies the conflict
    {!policy}; the grant travels back and the step then executes.  A
    release frees the entity and grants the head of its FIFO wait queue.
    Duplicated requests are ignored on arrival.

    Two things vary between the simulators:

    - the {e lock modes}, through the {!shape}'s {!access}: with
      [Exclusive] locks only an entity has one holder; [Shared] locks
      may be held together.  A [Shared] request is granted at once only
      while the entity is held in shared mode {e and} its queue is empty
      (no writer starvation); a release grants the queue head plus every
      consecutive [Shared] request behind it;
    - the {e conflict policy}: {!Wait} never aborts, or one of the
      recovery {!scheme}s. *)

type config = {
  min_duration : float;  (** lower bound of a step's service time *)
  max_duration : float;  (** upper bound (uniform) *)
  site_latency : float;  (** added once per cross-site transition *)
  request_jitter : float;
      (** a Lock request reaches its entity's lock manager after a
          uniform [0, request_jitter) transit delay, so concurrent
          requests race in different orders on different seeds *)
}

val default_config : config

(** The recovery schemes, documented in {!Recovery}. *)
type scheme =
  | Wait_die
  | Wound_wait
  | Detect of { period : float }
  | Timeout of { base : float; cap : float; max_retries : int }
  | Probabilistic

type policy =
  | Wait
      (** Requests wait forever.  Nothing aborts, so a crash window is
          pure unavailability (the lock tables survive it), and the run
          ends when every transaction committed or no event is left. *)
  | Recover of { scheme : scheme; restart_delay : float; max_time : float }
      (** Conflicts go through [scheme].  An aborted transaction drops
          its locks and progress and restarts after [restart_delay]
          (plus the backoff of [Timeout]); a crash drops the site's lock
          tables; the run is cut off at [max_time].  The schemes compare
          a requester with one holder, so they are defined for
          [Exclusive] locks only. *)

type access = Shared | Exclusive | Release

(** What the loop needs of a transaction system. *)
type shape = {
  db : Db.t;
  entity : Db.entity array array;
      (** [entity.(i).(v)]: the entity of node [v] of transaction [i] *)
  access : access array array;  (** [access.(i).(v)]: its access *)
  minimal_remaining : int -> Bitset.t -> int list;
      (** ready nodes of a transaction, given its executed prefix *)
}

(** The shape of an exclusive-lock system: every [Node.Lock] is
    [Exclusive]. *)
val of_system : System.t -> shape

type entry = { time : float; step : Step.t }

type result = {
  trace : entry list;
      (** step completions of each transaction's final incarnation, in
          time order *)
  time : float;  (** time of the last event processed *)
  commits : int;
  committed : bool array;
  makespan : float;  (** time of the last commit *)
  aborts : int;
  aborts_by_txn : int array;
  waits : (int * Db.entity * int) list;
      (** (waiter, entity, holder) arcs of the wait-for graph when a
          transaction is left uncommitted; [[]] otherwise *)
}

(** [run policy ?faults config rng shape] executes one instance.  With
    [faults] absent the run is identical to one under {!Faults.none}. *)
val run :
  policy -> ?faults:Faults.plan -> config -> Random.State.t -> shape -> result

(** [cycle n waits] is a cycle of the wait-for graph over [n]
    transactions, if any. *)
val cycle : int -> (int * Db.entity * int) list -> int list option
