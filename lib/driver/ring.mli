(** Fixed-slot descriptor rings over DMA memory.

    The classic NIC coordination structure: a power-of-two array of
    equal-size slots with a producer and a consumer index. Completion
    rings have the device as producer; TX rings have the host as
    producer. Indices use the standard free-running scheme (wrap at
    2^62) so full/empty are unambiguous. *)

type t

val create : slots:int -> slot_size:int -> t
(** [slots] must be a power of two. *)

val slots : t -> int

val slot_size : t -> int

val dma : t -> Dma.t
(** The backing region, for footprint accounting. *)

val is_empty : t -> bool

val is_full : t -> bool

val available : t -> int
(** Entries ready for the consumer. *)

val space : t -> int
(** Free slots for the producer. *)

val prod_index : t -> int
(** Free-running producer index: the slot [produce_*] will fill next is
    [slot_offset t (prod_index t)]; the one it just filled is
    [slot_offset t (prod_index t - 1)]. Exposed for the fault-injection
    layer, which mutates freshly-produced slots in place. *)

val cons_index : t -> int
(** Free-running consumer index. *)

val slot_offset : t -> int -> int
(** Byte offset of a free-running index's slot in [dma t]'s memory. *)

val produce_dev : ?len:int -> t -> bytes -> bool
(** Device writes the next slot (counted as DMA). False when full.
    [?len] bounds the copy to a prefix of [payload], so a pooled caller
    can reuse one full-slot scratch buffer for variable-length payloads
    without re-slicing; defaults to the whole payload (clamped to the
    slot size either way). *)

val produce_host : t -> bytes -> bool
(** Host writes the next slot (not counted). False when full. *)

val consume_host : t -> bytes option
(** Host reads the next slot (not counted; completions already crossed
    the bus when the device produced them). Allocates a fresh buffer per
    slot — a thin wrapper over {!consume_host_into} kept for tests and
    one-shot tooling; hot paths use the [_into] variant with a reusable
    scratch buffer. *)

val consume_host_into : t -> bytes -> bool
(** Like {!consume_host}, but blits the slot into the caller's reusable
    buffer instead of allocating. The batched datapath's harvest
    primitive.
    @raise Invalid_argument when the buffer is shorter than [slot_size]
    (a short scratch buffer would otherwise read as a silently truncated
    descriptor — indistinguishable from a torn DMA write). *)

val release : t -> bool
(** Host consumes the next slot in place, without copying it: the caller
    has read what it needs straight from [dma t]'s memory at
    [slot_offset t (cons_index t)]. False when empty. The length-only
    harvest primitive. *)

val produce_host_batch : t -> bytes list -> int
(** Host writes consecutive slots; stops at the first full slot. Returns
    the number written. *)

val consume_dev : t -> bytes option
(** Device reads the next slot (counted as DMA — TX descriptor fetch).
    Allocating wrapper over {!consume_dev_into}; see {!consume_host}. *)

val consume_dev_into : t -> bytes -> bool
(** Like {!consume_dev}, but blits the slot into the caller's reusable
    buffer instead of allocating.
    @raise Invalid_argument when the buffer is shorter than [slot_size]
    (see {!consume_host_into}). *)

val reset : t -> unit
