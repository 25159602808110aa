open Ddlock_graph
open Ddlock_model

(** Systems of shared/exclusive transactions, their schedules and the
    exhaustive deciders (states, deadlock, conflict-serializability). *)

type t

val create : Rw_txn.t list -> t
val size : t -> int
val txn : t -> int -> Rw_txn.t
val txns : t -> Rw_txn.t array
val db : t -> Db.t

(** The exclusive-model abstraction of the whole system. *)
val to_exclusive : t -> System.t

(** {1 States and steps} *)

type step = Ddlock_schedule.Step.t = { txn : int; node : int }

val step_to_string : t -> step -> string

type state = Bitset.t array

val initial : t -> state
val apply : state -> step -> state

(** Transactions currently holding [e], with the holding mode (all
    holders of one entity share the mode). *)
val holders : t -> state -> Db.entity -> int list * Rw_txn.mode option

(** Enabled steps: minimal remaining nodes whose Lock (if any) is
    compatible — Read needs no Write holder, Write needs no holder. *)
val enabled : t -> state -> step list

val all_finished : t -> state -> bool

(** Deadlock state: someone unfinished, every unfinished transaction's
    minimal remaining nodes are all incompatible Locks. *)
val is_deadlock : t -> state -> bool

(** {1 Exhaustive analysis} *)

exception Too_large of int

(** Reachable deadlock state with a witness step sequence. *)
val find_deadlock : ?max_states:int -> t -> (step list * state) option

val deadlock_free : ?max_states:int -> t -> bool

(** Conflict graph of a complete schedule: an arc [Ti -> Tj] labelled [x]
    when both access [x], at least one writes, and [Ti] locks [x] first. *)
val conflict_graph : t -> step list -> Digraph.t

val is_conflict_serializable : t -> step list -> bool

(** Safety: every complete schedule is conflict-serializable.  [Error]
    returns a non-serializable complete schedule. *)
val safe : ?max_states:int -> t -> (unit, step list) result

(** Uniformly-random run (for statistical checks). *)
type run = Completed of step list | Deadlocked of step list

val random_run : Random.State.t -> t -> run
