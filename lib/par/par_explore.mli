open Ddlock_model
open Ddlock_schedule

(** The exploration kernel ({!Ddlock_schedule.Kernel}) behind a [jobs]
    and [mode] interface.

    There is one search loop per frontier policy.  [`Deterministic]
    runs the sequential FIFO policy at {e every} [jobs]: it is the very
    search {!Ddlock_schedule.Explore} runs, so every observable — state
    counts, reachability, deadlock verdicts, the {e first} witness and
    its schedule, the exact [max_states] cap and the telemetry totals —
    is identical to the sequential engine by construction.  [`Fast]
    runs the work-stealing policy on [jobs] domains.

    All functions raise [Invalid_argument] when [jobs < 1] and
    {!Ddlock_schedule.Explore.Too_large} on budget exhaustion. *)

(** Raises [Invalid_argument] when [jobs < 1]. *)
val validate_jobs : int -> unit

(** Exploration mode.

    [`Deterministic] (the default) is the FIFO policy: sequential BFS
    over interned states, whatever [jobs] says.

    [`Fast] is the work-stealing policy: [jobs] worker domains with
    per-domain deques and batch stealing, a visited set of 64
    mutex-guarded intern-table shards ({!Ddlock_schedule.State.hash} +
    structural equality, dense int ids, packed parent/via arrays), no
    barrier, and an early-exit broadcast on the first witness.
    Guarantees kept:
    {ul
    {- {e verdicts} — the explored state {e set} equals the FIFO one
       (same dedup relation), so emptiness answers ([deadlock_free],
       [safe], budget-free [bfs = None]) coincide;}
    {- {e witness validity} — any returned schedule is a real path
       from the initial state to a state satisfying the goal;}
    {- {e cap soundness} — [Explore.Too_large n] is raised {e iff} the
       reachable set (truncated at the stop point) exceeds
       [max_states]; the carried [n >= max_states] may overshoot by
       the work in flight, never undershoot.}}
    Relaxed: discovery order, {e which} witness is found, and the
    [par.steals]/[par.intern_hits]/[par.arena_reuse] counters (racy by
    nature).  [find_deadlock]/[safe]/[safe_and_deadlock_free]
    re-canonicalize positive verdicts with a plain FIFO re-search —
    exactly the [--por] contract — so their output stays byte-identical
    to [`Deterministic] on every workload whose re-search fits the
    budget.  Composes with [?symmetry], [?por] and {!Ddlock_obs.Cancel}
    deadlines (worker 0 runs in the calling domain and polls). *)
type mode = [ `Deterministic | `Fast ]

(** {1 Full state space} *)

type space

(** [explore ?max_states ?symmetry ~jobs sys] — the reachable state
    space, with parent pointers.  Same states, counts and shortest
    schedules as {!Explore.explore}, for the same [symmetry] and [por]
    flags (the stored nodes are orbit representatives under
    [~symmetry:true], see {!Ddlock_schedule.Canon}; the
    persistent/sleep-set reduced space under [~por:true], see
    {!Ddlock_schedule.Indep}).

    With [~mode:`Fast] the space holds the same state {e set} (for
    [~por:false]; a valid reduced set for [~por:true]) but no BFS
    ranks: {!states} enumerates in shard order and {!schedule_to}
    returns a valid (not necessarily shortest) schedule. *)
val explore :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  space

val system : space -> System.t
val jobs : space -> int
val state_count : space -> int

(** States in discovery order — deterministic spaces: BFS insertion
    order; fast spaces: shard-major order (deterministic for a given
    run only). *)
val states : space -> State.t Seq.t

val is_reachable : space -> State.t -> bool

(** A (shortest) partial schedule realizing a reachable state; identical
    to the sequential engine's choice. *)
val schedule_to : space -> State.t -> Step.t list option

(** {1 Goal-directed search} *)

(** [bfs ?max_states ?restrict ?symmetry ~jobs sys ~found] — first state
    (in BFS insertion order) satisfying [found], with the schedule
    reaching it; identical to {!Explore.bfs} output for every [jobs] and
    the same [symmetry] flag.  Under [~mode:`Fast], [found] and
    [restrict] are evaluated concurrently on worker domains and must be
    pure; with
    [~symmetry:true] they see orbit representatives and must be
    invariant under identical-transaction permutations.

    With [~por:true] the search runs over the reduced space and is
    identical to [Explore.bfs ~por:true]; sound only for
    predicates implied by deadlock (see {!Explore.bfs}).

    With [~mode:`Fast] the returned witness is the first one {e some}
    worker reached — valid, but not the BFS-minimal one; [None] answers
    are still equivalent to the deterministic engine's. *)
val bfs :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

(** With [~por:true] or [~mode:`Fast], verdict from the reduced or
    relaxed search and witness from a plain sequential re-search —
    byte-identical to the sequential [find_deadlock] for every [jobs]
    (falling back to the valid raw witness when the re-search exceeds
    the budget). *)
val find_deadlock :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  (Step.t list * State.t) option

val deadlock_free :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  bool

(** {1 Lemma-1 searches (safety)}

    {!Explore.safe_and_deadlock_free} and {!Explore.safe} under a
    [mode], over the same extended (prefix vector + D-arc) space;
    counterexamples are identical to the sequential ones. *)

val safe_and_deadlock_free :
  ?max_states:int ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  (unit, Explore.counterexample) result

val safe :
  ?max_states:int ->
  ?mode:mode ->
  jobs:int ->
  System.t ->
  (unit, Explore.counterexample) result
