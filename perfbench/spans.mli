(** In-memory span recording for the traced run.

    A span is recorded by the benchmark's own code around one call into
    a layer of the program: name, start, end (monotonic ns), the span
    that caused it and the id of the op (one analysed system, one
    request, one simulated execution) it belongs to.  Spans stay in
    memory and are written out once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  op : int;
  name : string;
  t0 : int;
  t1 : int;
}

val now : unit -> int
(** Monotonic clock, ns. *)

val enabled : bool ref
(** Recording switch; off by default, when {!within} just runs its
    body. *)

val within : op:int -> string -> (unit -> 'a) -> 'a
(** [within ~op name f] runs [f ()] and, when {!enabled}, records a span
    around it whose parent is the innermost [within] still open on the
    calling thread's stack.  Single-threaded callers only. *)

val add : op:int -> string -> t0:int -> t1:int -> unit
(** Record a finished root span measured by the caller (for spans timed
    on several threads).  Thread-safe.  Records even when {!enabled} is
    off. *)

val recorded : unit -> span list
(** Every recorded span, oldest first. *)

val clear : unit -> unit

val self_times : span list -> (string * int * int) list
(** [(name, count, self_ns)] per span name, sorted by name.  A span's
    self time is its duration minus the part of its interval covered by
    its child spans (overlapping children are counted once). *)

val chrome_json : span list -> string
(** The spans as a Chrome trace-event document (via
    {!Ddlock_obs.Trace.chrome_json}); the op id is the request id, and
    span/parent ids ride along as args. *)
