(** Hash-consing intern tables: dense integer ids for structural values.

    [intern] maps a value to a stable id (its insertion index); equal
    values get equal ids, so equality downstream is integer equality
    and visited sets can store ints instead of keys.  Backing storage
    is a growable arena with amortized doubling, indexed by an
    open-addressing hash table.  Not thread-safe; the work-stealing
    policy of {!Kernel} shards tables behind per-shard mutexes. *)

type 'a t

(** [create ~equal ~hash ()] — [hash] must be compatible with [equal]
    (equal values hash equally). *)
val create :
  ?capacity:int -> equal:('a -> 'a -> bool) -> hash:('a -> int) -> unit -> 'a t

(** [intern t x] is [(id, was_new)]: the id of the value equal to [x]
    in [t], inserting [x] with the next dense id when absent.
    Idempotent: a second intern of an equal value returns the same id
    with [was_new = false].  Injective: distinct ids hold non-equal
    values. *)
val intern : 'a t -> 'a -> int * bool

(** [find t x] — id of the interned value equal to [x], if any. *)
val find : 'a t -> 'a -> int option

(** [get t id] — the value with id [id].  Raises [Invalid_argument] on
    out-of-range ids. *)
val get : 'a t -> int -> 'a

(** Number of interned values (also the next fresh id). *)
val count : 'a t -> int

(** Number of [intern] calls that found an existing value (dedup hits). *)
val hits : 'a t -> int

(** Iterate values in id order. *)
val iter : ('a -> unit) -> 'a t -> unit
