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
    The cap raises iff the search would hold more than [max_states]
    nodes, and [Too_large] carries the same count under both policies:
    [max_states], or [0] for a budget below 1. *)
type policy = Fifo | Work_stealing of int

(** The policy for [jobs] worker domains: [Fifo] at [1],
    [Work_stealing jobs] above.  Raises [Invalid_argument] when
    [jobs < 1]. *)
val policy_of_jobs : int -> policy

(** See {!Explore.active_canon}. *)
val active_canon : symmetry:bool -> System.t -> Canon.t option

(** {1 The generic search} *)

(** A successor function over nodes of type ['n], hashed and compared
    with [hash] and [equal].  [expand node sleep emit] calls
    [emit step node' moved sleep'] once per successor, in a fixed
    order.  [moved] (telemetry only) says whether symmetry
    canonicalization changed the successor; [sleep] and [sleep'] are
    partial-order-reduction sleep sets, [[]] for a search without one.
    With [covering] set, re-arriving at a stored node with a sleep set
    that does not cover the stored one shrinks the stored set to the
    intersection and re-expands the node (Godefroid's covering rule), so
    sleeping never suppresses the only path into a deadlock. *)
type 'n succ = {
  hash : 'n -> int;
  equal : 'n -> 'n -> bool;
  expand : 'n -> Step.t list -> (Step.t -> 'n -> bool -> Step.t list -> unit) -> unit;
  covering : bool;
}

(** [search policy succ init ~found] — the first node satisfying
    [found] (evaluated once per node, at insertion, [init] included)
    among those [succ] reaches from [init], with the steps reaching it.
    Under [Fifo] that is the first such node in BFS insertion order,
    reached by a shortest path.  Raises [Too_large max_states] when the
    search would hold more than [max_states] nodes (default
    {!default_cap}). *)
val search :
  ?max_states:int ->
  policy ->
  'n succ ->
  'n ->
  found:('n -> bool) ->
  (Step.t list * 'n) option

(** Nodes pairing a prefix vector with the arcs accumulated on the path
    to it: the Lemma-1 D-arcs here, the conflict arcs of
    [Ddlock_rw.Rw_system.safe].  Over [n] transactions, arc [a -> b] is
    bit [a * n + b] of an n²-bit set; arcs only accumulate, so two paths
    to one prefix vector make two nodes when their arcs differ. *)
type arc_node = { st : State.t; arcs : Ddlock_graph.Bitset.t }

(** The root node: [st] with no arc. *)
val arc_root : n:int -> State.t -> arc_node

(** Successors of [x]: for each step of [enabled x.st] in order, the
    applied step with [arcs_of_step x.st step] added (a step that adds
    no arc shares its parent's set). *)
val arc_succ :
  n:int ->
  enabled:(State.t -> Step.t list) ->
  arcs_of_step:(State.t -> Step.t -> (int * int) list) ->
  arc_node succ

(** A cycle of the node's arcs, as transaction indices. *)
val arc_cycle : n:int -> arc_node -> int list option

(** [settled policy search] is [search policy], except that under
    [Work_stealing] only a [None] answer stands: a hit or a
    [Too_large] is replaced by [search Fifo].  Workers can dive past the
    budget before reaching a node FIFO finds within it, and which hit
    they reach first depends on the races, so this makes the answer
    exactly the [Fifo] one when both searches explore the same node
    set (no partial-order reduction). *)
val settled : policy -> (policy -> 'a option) -> 'a option

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
    is whichever one a worker reached first.  [lemma1], and
    [find_deadlock] without [symmetry]/[por], answer as {!settled}
    makes them: exactly as under [Fifo].  With a reduction,
    [find_deadlock] re-canonicalizes a witness as {!Explore.find_deadlock}
    does; it and [deadlock_free] re-run a budget overrun under
    [Fifo]. *)

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
