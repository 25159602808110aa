open Ddlock_model

(** Witness minimization: shrink a deadlocking system to a small core
    that still deadlocks — the "delta debugging" companion to the
    analyzers, for pointing at the transactions and entities that
    actually matter.

    Reduction moves, applied greedily to fixpoint, re-checking
    deadlockability (bounded exhaustive search) after each:

    - drop a whole transaction;
    - remove one entity from one transaction (deleting its Lock and
      Unlock nodes, keeping the order induced on the rest). *)

type result = {
  core : System.t;
  kept_txns : int list;  (** original indices of the surviving transactions *)
  dropped_entities : (int * Db.entity) list;
      (** (original txn index, entity) accesses removed *)
}

(** [deadlock_core ?max_states ?jobs ?symmetry sys] — requires the input
    to deadlock (returns [None] otherwise or when the search budget is
    exceeded).  [~symmetry:true] makes every re-check store one
    state per identical-transaction orbit ({!Ddlock_schedule.Canon});
    the minimized core is identical for every [jobs] and either
    [symmetry] flag (the group is re-detected per candidate, so shrunk
    systems keep whatever symmetry they retain).  With [~por:true]
    every re-check is a verdict-only persistent/sleep-set reduced
    search ({!Ddlock_schedule.Indep}) — same core, fewer states per
    probe.  With [~fast:true] every re-check runs on [jobs] domains
    under the work-stealing policy ([~mode:`Fast] of
    {!Ddlock_par.Par_explore}); verdicts are equivalent, so the
    minimized core is unchanged — the probes are just faster.  Raises [Invalid_argument] when
    [jobs < 1]. *)
val deadlock_core :
  ?max_states:int ->
  ?jobs:int ->
  ?symmetry:bool ->
  ?por:bool ->
  ?fast:bool ->
  System.t ->
  result option
