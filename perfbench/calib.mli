(** Host-speed calibration.

    The hosts this benchmark runs on change speed by tens of percent
    for minutes at a time, because other tenants share their cores, so
    a raw timing says as much about the host as about the program.  The
    reference kernel is a fixed breadth-first search written here, with
    no call into the program.  Timed alongside a workload it measures
    the host's current speed, and the workload's times are reported at
    a fixed reference speed: the speed at which the kernel takes
    {!nominal_ms}. *)

val kernel : unit -> int
(** One run of the reference kernel: a breadth-first search over the
    9{^5} states of five counters that each count from 0 to 8, with an
    open-addressing visited table of 2 MiB.  It allocates nothing, so
    the state of the shared heap does not change its speed.  Returns
    the number of states visited, 59049. *)

val time_ns : unit -> int
(** Wall-clock time of one {!kernel} run, ns. *)

val nominal_ms : float
(** The kernel's time at the reference speed: 5.5 ms, about its best
    time on the 2-vCPU Xeon host the benchmark was tuned on. *)

val scale : float array -> float
(** [scale ref_ms] is [nominal_ms /. median ref_ms]: the factor that
    turns a time measured alongside those kernel times (ms) into a time
    at the reference speed.  Non-finite entries (slots never timed) are
    ignored.  Raises [Invalid_argument] when no entry is finite. *)
