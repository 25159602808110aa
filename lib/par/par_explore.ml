open Ddlock_schedule

(* Every search here is the exploration kernel ({!Kernel}):
   [`Deterministic] runs its FIFO policy at any [jobs], [`Fast] its
   work-stealing policy on [jobs] domains. *)

let validate_jobs jobs =
  if jobs < 1 then
    invalid_arg (Printf.sprintf "jobs must be >= 1 (got %d)" jobs)

type mode = [ `Deterministic | `Fast ]

let policy mode jobs =
  validate_jobs jobs;
  match mode with `Deterministic -> Kernel.Fifo | `Fast -> Kernel.Work_stealing jobs

type space = { space : Kernel.space; jobs : int }

let explore ?max_states ?symmetry ?por ?(mode = `Deterministic) ~jobs sys =
  { space = Kernel.explore ?max_states ?symmetry ?por (policy mode jobs) sys; jobs }

let system sp = Kernel.system sp.space
let jobs sp = sp.jobs
let state_count sp = Kernel.state_count sp.space
let states sp = Kernel.states sp.space
let is_reachable sp = Kernel.is_reachable sp.space
let schedule_to sp = Kernel.schedule_to sp.space

let bfs ?max_states ?restrict ?symmetry ?por ?(mode = `Deterministic) ~jobs sys
    ~found =
  Kernel.bfs ?max_states ?restrict ?symmetry ?por (policy mode jobs) sys ~found

let find_deadlock ?max_states ?symmetry ?por ?(mode = `Deterministic) ~jobs sys =
  Kernel.find_deadlock ?max_states ?symmetry ?por (policy mode jobs) sys

let deadlock_free ?max_states ?symmetry ?por ?(mode = `Deterministic) ~jobs sys =
  Kernel.deadlock_free ?max_states ?symmetry ?por (policy mode jobs) sys

let lemma1 ?max_states ?(mode = `Deterministic) ~jobs sys ~report =
  match Kernel.lemma1 ?max_states (policy mode jobs) sys ~report with
  | None -> Ok ()
  | Some (steps, cycle) -> Error { Explore.steps; cycle }

let safe_and_deadlock_free ?max_states ?mode ~jobs sys =
  lemma1 ?max_states ?mode ~jobs sys ~report:`All_cyclic

let safe ?max_states ?mode ~jobs sys =
  lemma1 ?max_states ?mode ~jobs sys ~report:`Complete_cyclic
