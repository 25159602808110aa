open Ddlock_graph

(* Every search here is the exploration kernel ({!Kernel}) under its
   FIFO policy. *)

exception Too_large = Kernel.Too_large

let default_cap = Kernel.default_cap

type space = Kernel.space

let active_canon = Kernel.active_canon
let explore ?max_states ?symmetry ?por sys =
  Kernel.explore ?max_states ?symmetry ?por Fifo sys

let system = Kernel.system
let state_count = Kernel.state_count
let states = Kernel.states
let is_reachable = Kernel.is_reachable
let schedule_to = Kernel.schedule_to

let bfs ?max_states ?restrict ?symmetry ?por sys ~found =
  Kernel.bfs ?max_states ?restrict ?symmetry ?por Fifo sys ~found

let find_deadlock ?max_states ?symmetry ?por sys =
  Kernel.find_deadlock ?max_states ?symmetry ?por Fifo sys

let deadlock_free ?max_states ?symmetry ?por sys =
  Kernel.deadlock_free ?max_states ?symmetry ?por Fifo sys

type counterexample = { steps : Step.t list; cycle : int list }

let lemma1 ?max_states sys ~report =
  match Kernel.lemma1 ?max_states Fifo sys ~report with
  | None -> Ok ()
  | Some (steps, cycle) -> Error { steps; cycle }

let safe_and_deadlock_free ?max_states sys =
  lemma1 ?max_states sys ~report:`All_cyclic

let safe ?max_states sys = lemma1 ?max_states sys ~report:`Complete_cyclic

let has_schedule sys target =
  let sub st = Array.for_all2 (fun a b -> Bitset.subset a b) st target in
  match
    bfs sys ~restrict:sub ~found:(fun st -> State.equal st target)
  with
  | Some (steps, _) -> Some steps
  | None -> None

let complete_schedules sys =
  let rec go st rev_steps () =
    if State.all_finished sys st then
      Seq.Cons (List.rev rev_steps, Seq.empty)
    else
      Seq.concat_map
        (fun step -> go (State.apply st step) (step :: rev_steps))
        (List.to_seq (State.enabled sys st))
        ()
  in
  go (State.initial sys) []

let count_complete_schedules sys = Seq.length (complete_schedules sys)

type run = Completed of Step.t list | Deadlocked of Step.t list * State.t

let random_run rng sys =
  let rec go st rev_steps =
    if State.all_finished sys st then Completed (List.rev rev_steps)
    else
      match State.enabled sys st with
      | [] -> Deadlocked (List.rev rev_steps, st)
      | steps ->
          let step = List.nth steps (Random.State.int rng (List.length steps)) in
          go (State.apply st step) (step :: rev_steps)
  in
  go (State.initial sys) []
