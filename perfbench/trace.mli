(** In-memory span recorder for the traced benchmark run.

    A span is one layer's work on one burst: layer, start and end
    (monotonic nanoseconds), the span that caused it and the burst id.
    Spans live in preallocated arrays, so recording allocates nothing;
    per-layer totals are kept exactly even once the span store is full.
    {!write} dumps every stored span at the end of the run. *)

type t

val now_ns : unit -> int
(** Monotonic clock, nanoseconds. *)

val create : capacity:int -> string array -> t
(** A recorder for the given layer names (a layer is its index in this
    array) holding up to [capacity] spans. *)

val add : t -> layer:int -> parent:int -> burst:int -> start:int -> stop:int -> int
(** Record a finished span; returns its id, or [-1] when the store is
    full (the layer totals still count it). *)

val open_span : t -> layer:int -> parent:int -> burst:int -> start:int -> int
(** Record a span whose end is not known yet (a parent); close it with
    {!close_span}. *)

val close_span : t -> int -> layer:int -> start:int -> stop:int -> unit
(** Close a span {!open_span} returned (its id may be [-1]); [layer] and
    [start] repeat the opening values so the totals stay exact when the
    span itself was not stored. *)

val layer_ns : t -> int -> int
(** Summed duration of every span of a layer. *)

val layer_spans : t -> int -> int

val stored : t -> int
val overflow : t -> int

val write : t -> string -> unit
(** Write the stored spans as tab-separated lines
    [id layer parent burst start_ns end_ns] to a file. *)
