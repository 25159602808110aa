open Ddlock_model

(** Symmetry reduction: orbit canonicalization of exploration states.

    Two transactions of a system are {e interchangeable} when they are the
    same labelled partial order with the same node numbering — e.g. the
    copies produced by {!System.copies} or [gen --copies].  Permuting the
    prefixes of interchangeable transactions is an automorphism of the
    interleaving transition system: it preserves {!State.enabled},
    {!State.is_deadlock} and the reduction-graph predicates, because every
    lock/unlock label (and hence every site) is identical across the
    class.  The automorphism group is the direct product of the symmetric
    groups over each class; its order is {!orbit_size}.

    [Canon] picks one representative per orbit — within each class the
    member prefixes are sorted by a fixed total order on bitsets — so a
    search that stores only representatives visits at most one state per
    orbit.  The map is exact: [canon (σ·s) = canon s] for every group
    element [σ].  {!realize} and {!realize_to} translate a schedule found
    in the quotient space back into a schedule of the original system.

    Permutation convention: a permutation [π : int array] sends
    transaction [i] to slot [π.(i)], i.e. [(apply_perm π st).(π.(i)) =
    st.(i)], and [compose d t] is [d ∘ t] ([i ↦ d.(t.(i))]). *)

type t

(** [detect sys] groups the transactions of [sys] into interchangeability
    classes by structural key (node labelling plus transitively closed
    precedence, both over the concrete node numbering). *)
val detect : System.t -> t

val system : t -> System.t

(** Structural hash of a whole system, for semantic caching (the
    analysis daemon's verdict cache).  Two systems get equal keys iff
    they have the same named schema (site and entity names, placement)
    and transaction lists equal up to permuting {e interchangeable}
    transactions (the classes of {!detect}) — the automorphisms the
    quotient search exploits.  In particular the K-copies systems that
    many identical clients generate all share one key, while any
    difference that can change a rendered verdict (names, placement,
    the order of distinct transactions) yields a distinct key. *)
val system_key : System.t -> string

(** Whether any class has ≥ 2 members (i.e. the group is non-trivial).
    When [false], canonicalization is the identity and symmetry-aware
    searches fall back to the plain engines. *)
val nontrivial : t -> bool

(** The interchangeability classes, each in ascending transaction order.
    Singleton classes are included. *)
val groups : t -> int list list

(** Order of the automorphism group: the product over classes of the
    factorial of the class size.  The raw state count is at most
    [orbit_size] times the canonical state count. *)
val orbit_size : t -> int

(** [normalize c st] is [(rep, π)] where [rep = apply_perm π st] is the
    orbit representative of [st]: within each class, prefixes sorted by
    {!Ddlock_graph.Bitset.compare} (ties broken by original index, so
    [normalize] of a representative is the identity).  [rep] shares the
    (immutable-by-convention) bitsets of [st]. *)
val normalize : t -> State.t -> State.t * int array

(** [canon_key c st] is [State.key (fst (normalize c st))] — equal on two
    states iff they lie in the same orbit.  For printing and tests. *)
val canon_key : t -> State.t -> string

(** [apply_perm π st] permutes the prefix vector: slot [π.(i)] of the
    result is [st.(i)]. *)
val apply_perm : int array -> State.t -> State.t

(** [rename_schedule π steps] renames the transaction index of each step
    through [π]. *)
val rename_schedule : int array -> Step.t list -> Step.t list

val invert : int array -> int array

(** [compose d t] is the permutation [i ↦ d.(t.(i))] ([d ∘ t]). *)
val compose : int array -> int array -> int array

(** A uniformly random element of the automorphism group (independent
    Fisher–Yates shuffle within each class). *)
val random_group_perm : Random.State.t -> t -> int array

(** [realize c steps] replays a schedule [steps] of the {e quotient}
    space — each step taken from a representative, with the successor
    re-normalized, exactly as the symmetric engines search — and returns
    the corresponding schedule of the original system together with the
    state it reaches (an arbitrary member of the final orbit). *)
val realize : t -> Step.t list -> Step.t list * State.t

(** [realize_to c steps target] is {!realize} composed with a final
    renaming so that the returned schedule reaches exactly [target],
    which must lie in the orbit of the final representative of
    [steps]. *)
val realize_to : t -> Step.t list -> State.t -> Step.t list
