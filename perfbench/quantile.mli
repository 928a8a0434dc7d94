(** Order statistics for benchmark samples. *)

val median : float array -> float
(** Median of a non-empty sample (mean of the two middle values for an
    even count). @raise Invalid_argument on an empty sample. *)

val quartiles : float array -> float * float * float
(** First quartile, median, third quartile by the "exclusive" method of
    Python's [statistics.quantiles(data, n=4)], so spreads computed here
    and by a Python driver agree. @raise Invalid_argument on fewer than
    two samples. *)

val iqr_share : float array -> float
(** (Q3 - Q1) / median: the run-to-run spread of a metric as a share of
    its median. *)

val min_beyond : int
(** Samples a reported percentile needs strictly above it: 10. *)

val percentile : float -> float array -> float option
(** [percentile p xs] is the nearest-rank [p]-quantile ([0 < p < 1]) of
    [xs], or [None] when fewer than {!min_beyond} samples lie beyond its
    rank — such a tail is not supported by the sample. *)

val fastest_window : size:int -> float array -> int option
(** Where the [size] consecutive samples (in the order taken) with the
    highest median start, or [None] when there are fewer than [size].
    Given per-repetition rates, this finds the stretch of a run in which
    the host was quietest: on a host whose speed drifts for seconds at a
    time, percentiles taken inside that stretch repeat from run to run
    where percentiles over the whole run do not. *)
