open Ddlock_schedule

type witness = {
  prefix : State.t;
  schedule : Step.t list;
  cycle : Step.t list;
}

module Obs_t = Ddlock_obs.Trace

let obs_prefix_witnesses =
  Ddlock_obs.Metrics.Counter.make "prefix_search.witnesses"

let cyclic sys st = Reduction.has_cycle (Reduction.make sys st)

(* By Theorem 1 a cyclic reduction graph is reachable iff a deadlock
   state is.  The reduction-graph predicate is invariant under
   identical-transaction permutations (the graph is renamed
   node-for-node), so with [~symmetry:true] the search may evaluate it on
   orbit representatives; the engine hands back a schedule and prefix
   already translated to the original system, and the cycle is
   recomputed on that real prefix.  With [~por:true] the search is sound
   because the persistent/sleep-set reduction preserves every reachable
   deadlock state.  At [jobs >= 2] work stealing settles only "no
   deadlock prefix" ({!Kernel.settled}). *)
let find ?max_states ?(jobs = 1) ?(symmetry = false) ?(por = false) sys =
  Obs_t.span "prefix_search.find" @@ fun () ->
  let bfs policy =
    Kernel.bfs ?max_states ~symmetry ~por policy sys ~found:(cyclic sys)
  in
  let r =
    Option.map
      (fun (schedule, prefix) ->
        let cycle = Option.get (Reduction.find_cycle (Reduction.make sys prefix)) in
        { prefix; schedule; cycle })
      (Kernel.settled (Kernel.policy_of_jobs jobs) bfs)
  in
  if r <> None then Ddlock_obs.Metrics.Counter.incr obs_prefix_witnesses;
  r

let deadlock_free ?max_states ?jobs ?symmetry ?por sys =
  find ?max_states ?jobs ?symmetry ?por sys = None

(* With [~por:true] the cyclic states of the reduced space: a subset of
   the plain result, nonempty iff the plain result is (Theorem 1
   again). *)
let all ?max_states ?(jobs = 1) ?(symmetry = false) ?(por = false) sys =
  let sp =
    Kernel.explore ?max_states ~symmetry ~por (Kernel.policy_of_jobs jobs) sys
  in
  Seq.filter (cyclic sys) (Kernel.states sp)
