type t = {
  dma : Dma.t;
  slots : int;
  slot_size : int;
  mutable prod : int;  (** free-running producer index *)
  mutable cons : int;  (** free-running consumer index *)
}

let create ~slots ~slot_size =
  assert (slots > 0 && slots land (slots - 1) = 0);
  { dma = Dma.create (slots * slot_size); slots; slot_size; prod = 0; cons = 0 }

let slots t = t.slots
let slot_size t = t.slot_size
let dma t = t.dma
let available t = t.prod - t.cons
let space t = t.slots - available t
let is_empty t = available t = 0
let is_full t = space t = 0

let off_of t idx = (idx land (t.slots - 1)) * t.slot_size
let prod_index t = t.prod
let cons_index t = t.cons
let slot_offset t idx = off_of t idx

let check_scratch ~who t dst =
  if Bytes.length dst < t.slot_size then
    invalid_arg
      (Printf.sprintf "%s: %d-byte scratch buffer for %d-byte slots" who
         (Bytes.length dst) t.slot_size)

let produce_dev ?len t payload =
  if is_full t then false
  else begin
    (* [?len] lets a pooled caller hand in a reusable full-slot scratch
       buffer and still DMA only the meaningful prefix. *)
    let len =
      match len with
      | None -> min (Bytes.length payload) t.slot_size
      | Some l -> min (min l (Bytes.length payload)) t.slot_size
    in
    Dma.dev_write t.dma ~off:(off_of t t.prod) payload ~pos:0 ~len;
    t.prod <- t.prod + 1;
    true
  end

let produce_host t payload =
  if is_full t then false
  else begin
    let len = min (Bytes.length payload) t.slot_size in
    Bytes.blit payload 0 (Dma.mem t.dma) (off_of t t.prod) len;
    t.prod <- t.prod + 1;
    true
  end

let consume_host_into t dst =
  check_scratch ~who:"Ring.consume_host_into" t dst;
  if is_empty t then false
  else begin
    Bytes.blit (Dma.mem t.dma) (off_of t t.cons) dst 0 t.slot_size;
    t.cons <- t.cons + 1;
    true
  end

let release t =
  if is_empty t then false
  else begin
    t.cons <- t.cons + 1;
    true
  end

let produce_host_batch t payloads =
  List.fold_left (fun n p -> if produce_host t p then n + 1 else n) 0 payloads

let consume_dev_into t dst =
  check_scratch ~who:"Ring.consume_dev_into" t dst;
  if is_empty t then false
  else begin
    Dma.dev_read_into t.dma ~off:(off_of t t.cons) ~buf:dst ~pos:0 ~len:t.slot_size;
    t.cons <- t.cons + 1;
    true
  end

(* Allocating wrappers over the scratch variants. The datapath never
   calls these in a hot loop — workers and the device go through
   [consume_host_into]/[consume_dev_into] with preallocated buffers —
   but they remain the convenient API for tests and one-shot tooling. *)
let consume_host t =
  if is_empty t then None
  else begin
    let dst = Bytes.create t.slot_size in
    let ok = consume_host_into t dst in
    assert ok;
    Some dst
  end

let consume_dev t =
  if is_empty t then None
  else begin
    let dst = Bytes.create t.slot_size in
    let ok = consume_dev_into t dst in
    assert ok;
    Some dst
  end

let reset t =
  t.prod <- 0;
  t.cons <- 0;
  Dma.reset_counters t.dma
