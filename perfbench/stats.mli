(** Summary statistics the benchmark reports: medians, quartiles, the
    tail rule and the failure share. *)

val median : float array -> float
(** Median of the samples ([nan] when empty).  The input is not
    modified. *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] by the same rule as Python's
    [statistics.quantiles(xs, n=4)] (the default "exclusive" method).
    Raises [Invalid_argument] with fewer than two samples. *)

val iqr_frac : float array -> float
(** [(q3 - q1) / q2]: the interquartile range as a share of the
    median. *)

val min_beyond : int
(** A tail percentile needs at least this many samples beyond it (10). *)

type tail = {
  value : float;
  pct : float;  (** the percentile the value stands for *)
  beyond : int;  (** samples above the value, per block *)
  block : int;  (** samples per block *)
  blocks : int;  (** complete blocks the median is taken over *)
  spread : float;  (** {!iqr_frac} of the block values; 0 below two blocks *)
}

val block_tail : float array -> tail
(** The highest percentile with at least {!min_beyond} samples beyond
    it: in [n] samples, the value with exactly 10 larger ones, standing
    for percentile [100 (n - 10) / n].  With [n <= 10] no percentile
    qualifies and the maximum is returned with [beyond = 0].  Raises
    [Invalid_argument] when empty. *)

val tail : block:int -> float array -> tail
(** {!block_tail} of each complete run of [block] consecutive samples,
    reported as the median over blocks with its spread — so the percentile depends on
    [block] only, not on how many samples a run happened to collect.
    With fewer than [block] samples, {!block_tail} of all of them. *)

val fail_frac : attempted:int -> failed:int -> float
(** [failed / attempted].  Raises [Invalid_argument] unless
    [0 <= failed <= attempted] and [attempted >= 1]. *)
