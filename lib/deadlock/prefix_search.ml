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
   deadlock state. *)
let find ?max_states ?(jobs = 1) ?(symmetry = false) ?(por = false)
    ?(fast = false) sys =
  Obs_t.span "prefix_search.find" @@ fun () ->
  let mode = if fast then `Fast else `Deterministic in
  let r =
    Option.map
      (fun (schedule, prefix) ->
        let cycle = Option.get (Reduction.find_cycle (Reduction.make sys prefix)) in
        { prefix; schedule; cycle })
      (Ddlock_par.Par_explore.bfs ?max_states ~symmetry ~por ~mode ~jobs sys
         ~found:(cyclic sys))
  in
  if r <> None then Ddlock_obs.Metrics.Counter.incr obs_prefix_witnesses;
  r

let deadlock_free ?max_states ?jobs ?symmetry ?por ?fast sys =
  find ?max_states ?jobs ?symmetry ?por ?fast sys = None

(* With [~por:true] the cyclic states of the reduced space: a subset of
   the plain result, nonempty iff the plain result is (Theorem 1
   again). *)
let all ?max_states ?(jobs = 1) ?(symmetry = false) ?(por = false)
    ?(fast = false) sys =
  let mode = if fast then `Fast else `Deterministic in
  let sp =
    Ddlock_par.Par_explore.explore ?max_states ~symmetry ~por ~mode ~jobs sys
  in
  Seq.filter (cyclic sys) (Ddlock_par.Par_explore.states sp)
