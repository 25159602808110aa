(** The analysis daemon: a Unix-domain-socket server answering
    {!Protocol} requests from an LRU verdict cache backed by a bounded
    pool of worker domains.

    Robustness contract (exercised by the chaos battery):
    - Every accepted request gets exactly one reply: [ok], [error],
      [busy] or [timeout].  No reply path can hang: admission is
      non-blocking (full queue ⇒ [busy] with a retry hint), and a
      per-request deadline cancels in-flight analysis via the
      {!Ddlock.Obs.Cancel} budget hook (⇒ [timeout]).  A job whose
      deadline expired while still queued replies [timeout] without
      running at all.
    - Malformed, oversized or stalled (slowloris) frames get a one-line
      [error] reply and the connection is closed; they never crash the
      daemon or poison other connections.
    - Worker domains are exception-isolated: an analysis that raises
      replies [error analysis failed: ...] and the domain lives on.
    - {!request_stop} + {!wait} drain gracefully: the listener closes,
      in-flight requests finish and reply, queued jobs run, worker
      domains join, the socket file is unlinked.

    Deadlines bound every search.  The sequential FIFO search runs in
    the worker's own domain, where the deadline poll is installed;
    deadlined multi-domain requests default to the work-stealing policy
    ([fast_under_pressure]), whose coordinating worker runs in the
    polling domain and broadcasts cancellation to the others. *)

type config = {
  socket_path : string;
  workers : int;  (** worker domains (≥ 1) *)
  queue_cap : int;  (** queued-job bound; full ⇒ [busy] *)
  cache_cap : int;  (** LRU verdict-cache entries; [0] disables *)
  max_request_bytes : int;  (** [analyze] body cap; larger ⇒ [error] *)
  default_max_states : int option;
      (** when the request names none; [None] = analysis default *)
  default_deadline_ms : int option;  (** when the request names none *)
  jobs : int;  (** worker domains {e per analysis} (see above) *)
  fast_under_pressure : bool;
      (** deadlined requests with [jobs > 1] use the relaxed
          work-stealing engine — same rendered bytes, real speedup,
          and deadline polls reach the search (see above) *)
  idle_timeout_ms : int;  (** per-read deadline (slowloris guard) *)
  busy_retry_ms : int;  (** retry hint sent with [busy] *)
  flight_cap : int;  (** flight-recorder ring: last N request summaries *)
  trace_cap : int;  (** retained span trees (recent ring + slow ring) *)
  slow_ms : int;
      (** latency threshold (ms) above which a request's span tree is
          pinned in the slow ring (timeouts are always pinned) *)
}

val default_config : socket_path:string -> config
(** 2 workers, queue 16, cache 128, 1 MiB bodies, no default deadline,
    [jobs = 1], fast-under-pressure on, 5 s idle timeout, 100 ms retry
    hint, flight ring 256, trace rings 64, slow threshold 250 ms. *)

type t

val start : config -> t
(** Bind and serve (accept loop and connection handlers run on
    background threads; worker domains are spawned eagerly).  A stale
    socket file (no listener behind it) is replaced; a {e live} one —
    another daemon already serving — raises [Failure], as does a path
    that exists but is not a socket. *)

val request_stop : t -> unit
(** Begin a graceful drain.  Async-signal-safe (one atomic store): call
    it from a [SIGTERM]/[SIGINT] handler. *)

val wait : t -> unit
(** Block until the drain completes (listener closed, connections
    finished, queued jobs run, workers joined, socket unlinked).
    Call {!request_stop} first — or from a signal handler. *)

val stats_json : t -> string
(** One-line JSON counters: requests received, verdicts, errors, busy,
    timeouts, cache hits/misses/entries, queue length, connections,
    workers.  Also the body of the [stats] protocol verb. *)

(** {1 Request-scoped observability}

    Every accepted request gets an id (from 1, echoed to the client as a
    [req=<id>] header extra) and a root [serve.request] span; the parse,
    cache-lookup, pool-wait and analysis phases — including the engines'
    child domains — record child spans under that id.  On completion the
    request's span tree is pulled out of the shared trace buffer into a
    bounded ring, so a long-lived daemon's trace memory stays constant.  *)

val metrics_text : t -> string
(** Prometheus text exposition.  The [daemon_*] section (request /
    verdict / error / busy / timeout counters, cache hits and misses,
    queue depth, in-flight gauge, request-latency histogram) is
    synthesized from always-on server state, independent of the
    {!Ddlock.Obs.Control} switch; the full obs registry follows under a
    [ddlock_] prefix.  Also the body of the [metrics] protocol verb. *)

val flight_json : t -> string
(** The flight recorder as one JSON document: the last [flight_cap]
    completed request summaries (id, verb, cache-key digest, params,
    latency, status, outcome, cached) plus the slow-ring index.  Also
    the body of the [flight] protocol verb. *)

val flight_dump : t -> out_channel -> unit
(** [flight_json] plus a newline, flushed — the [SIGUSR1] dump. *)

val trace_events : t -> int -> Ddlock.Obs.Trace.event list option
(** The retained span tree of a completed request, if it was traced and
    has not aged out of the rings.  [trace <id>] serves this as Chrome
    trace-event JSON. *)
