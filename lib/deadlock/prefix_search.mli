open Ddlock_model
open Ddlock_schedule

(** Exhaustive deadlock-prefix search — the Theorem-1 ground truth.

    By Theorem 1, a system is deadlock-free iff no prefix of it is a
    deadlock prefix.  A deadlock prefix must have a schedule, i.e. be a
    reachable state of {!Explore}; therefore it suffices to scan reachable
    states for a cyclic reduction graph. *)

type witness = {
  prefix : State.t;  (** the deadlock prefix A′ *)
  schedule : Step.t list;  (** a partial schedule realizing A′ *)
  cycle : Step.t list;  (** a cycle of R(A′) *)
}

(** The first deadlock prefix in BFS insertion order (hence of minimal
    depth), with a schedule realizing it.  The search runs on the
    exploration kernel ({!Ddlock_par.Par_explore}) and evaluates the
    reduction-graph predicate on each state as it is discovered, so it
    stops at the first hit.  The witness is the same for every [jobs].
    Raises [Invalid_argument] when [jobs < 1].

    With [~symmetry:true] the search runs over orbit representatives of
    the identical-transaction automorphism group (sound because the
    reduction-graph predicate is invariant under those permutations);
    the returned schedule and prefix are translated back to the original
    system.

    With [~por:true] the search runs over the persistent/sleep-set
    reduced space ({!Ddlock_schedule.Indep}) — sound here because a
    cyclic reduction graph is reachable iff a deadlock is (Theorem 1)
    and the reduction preserves every reachable deadlock state.  The
    verdict is identical to plain; the witness is the first cyclic
    prefix in the {e reduced} BFS order (valid, but possibly a
    different prefix than the plain search returns).

    With [~fast:true] the search runs on the work-stealing policy
    ([~mode:`Fast] of {!Ddlock_par.Par_explore}) for any [jobs]
    (including 1).  The verdict is identical to plain; the witness is
    whichever cyclic prefix a worker reached first — valid, but not
    deterministic across runs. *)
val find :
  ?max_states:int ->
  ?jobs:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?fast:bool ->
  System.t ->
  witness option

(** [deadlock_free sys] iff no reachable state has a cyclic reduction
    graph — by Theorem 1 this is equivalent to
    {!Ddlock_schedule.Explore.deadlock_free}.  The verdict is identical
    for every [jobs] and any combination of the [symmetry]/[por]
    flags. *)
val deadlock_free :
  ?max_states:int ->
  ?jobs:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?fast:bool ->
  System.t ->
  bool

(** All deadlock prefixes (reachable states with cyclic R), in BFS
    discovery order for every [jobs]; with [~symmetry:true] one
    representative per deadlock-prefix orbit; with [~por:true] the
    cyclic states of the reduced space — a subset of the plain result
    that is nonempty iff the plain result is.  With [~fast:true] the
    same state {e set} in shard order (or a valid reduced set, under
    [~por:true]). *)
val all :
  ?max_states:int ->
  ?jobs:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?fast:bool ->
  System.t ->
  State.t Seq.t
