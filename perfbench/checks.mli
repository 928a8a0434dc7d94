(** The benchmark's output checks. Each returns the list of failed
    conditions (empty when the output is correct), so a failure is
    reported by name instead of being dropped. *)

val delivery : offered:int -> delivered:int -> stranded:int -> drops:int -> string list
(** Every offered packet delivered, none stranded in a handoff ring and
    none dropped by a device. *)

val datapath :
  offered:int ->
  delivered:int ->
  stranded:int ->
  drops:int ->
  sink:int64 ->
  reference:int64 ->
  string list
(** A datapath run: {!delivery}, and the order-insensitive consumer
    digest equal to the sequential batched path's for the same packets. *)

val contract : certified:bool -> bound:float -> ledger:float -> string list
(** A contract: it certifies, and its static worst-case bound contains
    the cycles per packet the cost ledger measured (relative slack
    1e-7 for float summation order). *)

val chaos : reconciles:bool -> lost:int -> string list
(** A fault-injected run: the fault counters reconcile exactly and no
    accepted packet is lost. *)

val swap :
  applied:bool ->
  reconciles:bool ->
  lost:int ->
  torn:int ->
  upgrade_errors:int ->
  stranded:int ->
  drops:int ->
  string list
(** A live swap: {!chaos}, plus applied, no torn epoch flip, nothing
    stranded in a handoff ring or dropped by a device, and every device
    upgrade accepted. *)

val failed_ops : attempted:int -> string list -> int
(** Operations to count as failed for one checked unit of [attempted]
    operations: all of them when any condition failed, else 0. *)
