(** Mutex-based work-stealing deque (the work-stealing policy of
    {!Kernel}).

    Owner pushes/pops at the tail (LIFO); thieves steal a batch of up
    to half the items from the head (FIFO).  Every operation locks only
    the deque it touches, so steals never hold two locks.  The backing
    array grows by amortized doubling and compacts in place when dead
    head-space can be reused instead — {!reuses} counts those. *)

type 'a t

val create : unit -> 'a t

(** Owner: push at the tail. *)
val push : 'a t -> 'a -> unit

(** Owner: pop the newest item (LIFO), [None] when empty. *)
val pop : 'a t -> 'a option

(** [steal_into t ~victim] moves up to half of [victim]'s items (the
    oldest ones) into [t]; returns how many moved (0 when [victim] is
    empty or is [t] itself). *)
val steal_into : 'a t -> victim:'a t -> int

(** Current number of items (takes the lock; a racy snapshot). *)
val length : 'a t -> int

(** In-place buffer compactions that avoided a reallocation. *)
val reuses : 'a t -> int
