open Ddlock_model

(** The exploration kernel behind {!Explore} and
    [Ddlock_par.Par_explore].

    One search over interned states ({!Intern}), parameterized by a
    successor function — plain, symmetry-canonical ({!Canon}),
    partial-order reduced ({!Indep}) or the Lemma-1 extended node — and
    a frontier policy.  Both policies share one visited set: intern ids
    with packed parent, via-step and sleep-set arrays.  No engine builds
    a {!State.key} string. *)

exception Too_large of int
(** See {!Explore.Too_large}. *)

val default_cap : int

(** Frontier policy.

    [Fifo] is sequential BFS: insertion order, parents, the first goal
    node and the exact [max_states] cap are those of the textbook
    search, so every result is reproducible.

    [Work_stealing jobs] runs [jobs] worker domains with per-domain
    deques over a visited set split into 64 mutex-guarded shards.  It
    keeps verdicts and witness validity; discovery order, which witness
    is found first, and the reduced set under POR depend on the races.
    The cap never undershoots, but the count [Too_large] carries may
    overshoot by the work in flight. *)
type policy = Fifo | Work_stealing of int

(** See {!Explore.active_canon}. *)
val active_canon : symmetry:bool -> System.t -> Canon.t option

(** {1 State spaces} *)

type space

val explore :
  ?max_states:int -> ?symmetry:bool -> ?por:bool -> policy -> System.t -> space

val system : space -> System.t
val state_count : space -> int

(** Stored states: BFS insertion order under [Fifo]; shard order under
    [Work_stealing]. *)
val states : space -> State.t Seq.t

val is_reachable : space -> State.t -> bool
val schedule_to : space -> State.t -> Step.t list option

(** {1 Goal-directed searches}

    Semantics as in {!Explore}; under [Work_stealing] a [bfs] witness
    is whichever one a worker reached first, while [find_deadlock] and
    [lemma1] re-canonicalize positive answers with a plain [Fifo]
    re-search. *)

val bfs :
  ?max_states:int ->
  ?restrict:(State.t -> bool) ->
  ?symmetry:bool ->
  ?por:bool ->
  policy ->
  System.t ->
  found:(State.t -> bool) ->
  (Step.t list * State.t) option

val find_deadlock :
  ?max_states:int ->
  ?symmetry:bool ->
  ?por:bool ->
  policy ->
  System.t ->
  (Step.t list * State.t) option

val deadlock_free :
  ?max_states:int -> ?symmetry:bool -> ?por:bool -> policy -> System.t -> bool

(** Lemma-1 search over (prefix vector, accumulated D-arcs) nodes: the
    first partial schedule whose serialization digraph is cyclic
    ([`All_cyclic]), or cyclic at a complete schedule
    ([`Complete_cyclic]), with one cycle as transaction indices. *)
val lemma1 :
  ?max_states:int ->
  policy ->
  System.t ->
  report:[ `All_cyclic | `Complete_cyclic ] ->
  (Step.t list * int list) option
