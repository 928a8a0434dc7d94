(* Domain-parallel multi-queue datapath.

   One worker domain per queue group owns its devices outright: the
   worker performs both the device-side injection (completion write-out)
   and the host-side burst harvest for its queues, so no device state is
   ever shared between domains. A steering/injection domain parses each
   packet once, steers it (with a flow->queue cache in front of the
   Toeplitz hash, like a NIC's RSS indirection table) and hands the
   packet BYTES to the owning worker over a bounded SPSC byte ring
   ({!Pktring}) whose slots are preallocated — the handoff neither
   allocates nor publishes an index per packet. Stats are sharded: each
   worker charges a domain-local ledger and the shards merge on demand
   (Stats.merge), so counters stay race-free without hot-path atomics.

   Worker domains are persistent (see [member] below): spawned once,
   parked on a condition variable between runs, and keeping their
   handoff ring and burst buffers from run to run.

   Cost accounting is an optional observer ({!Cost.sink}): with
   [~account:false] workers pass [Cost.Null] to their consumers and the
   byte path runs with no ledger traffic at all, which is the
   configuration the wall-clock measurements use. *)

module Spsc = struct
  (* Lamport's single-producer/single-consumer bounded queue. The
     producer alone writes [tail], the consumer alone writes [head];
     slot contents are published by the seq-cst [Atomic.set] of the
     index, which is the OCaml 5 message-passing idiom: every plain
     write before the atomic store is visible after the matching atomic
     load. Kept as the generic boxed-value ring (and exercised directly
     by the tests); the datapath itself uses {!Pktring}. *)
  type 'a t = {
    slots : 'a option array;
    mask : int;
    head : int Atomic.t;  (** consumer index, free-running *)
    tail : int Atomic.t;  (** producer index, free-running *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create capacity =
    if capacity < 1 then invalid_arg "Spsc.create: capacity must be >= 1";
    let cap = next_pow2 capacity in
    {
      slots = Array.make cap None;
      mask = cap - 1;
      head = Atomic.make 0;
      tail = Atomic.make 0;
    }

  let capacity t = t.mask + 1
  let length t = Atomic.get t.tail - Atomic.get t.head
  let is_empty t = length t = 0

  let try_push t v =
    let tail = Atomic.get t.tail in
    if tail - Atomic.get t.head > t.mask then false
    else begin
      t.slots.(tail land t.mask) <- Some v;
      Atomic.set t.tail (tail + 1);
      true
    end

  let try_pop t =
    let head = Atomic.get t.head in
    if Atomic.get t.tail - head <= 0 then None
    else begin
      let i = head land t.mask in
      let v = t.slots.(i) in
      t.slots.(i) <- None;
      Atomic.set t.head (head + 1);
      v
    end
end

module Pktring = struct
  (* The datapath handoff ring: a Lamport SPSC ring whose slots are
     preallocated byte buffers (payload at offset 0) plus a length and a
     queue id, so handing a packet to a worker is one [Bytes.blit] into
     a pooled slot — no option/tuple boxing, no per-packet allocation.

     Two standard SPSC refinements cut the cross-domain cache traffic:

     - cached opposite indices: the producer re-reads the atomic [head]
       only when its cached copy says the ring is full, the consumer
       re-reads [tail] only when its cached copy says it is empty;
     - batched index publication: each side publishes its own index
       every [publish_batch] operations (and on full/empty/flush)
       instead of per packet, so the shared lines bounce once per batch.

     Publication remains the seq-cst [Atomic.set] message-passing idiom,
     so every slot write before a publish is visible after the matching
     atomic read. Late publication is always conservative: the other
     side sees the ring as at most fuller (producer view) or emptier
     (consumer view) than it really is. *)

  let publish_batch = 16

  type t = {
    bufs : bytes array;
    lens : int array;  (** true packet length (may exceed the slot) *)
    qids : int array;
    mask : int;
    head : int Atomic.t;  (** published consumer index, free-running *)
    tail : int Atomic.t;  (** published producer index, free-running *)
    mutable p_tail : int;  (** producer-private true tail *)
    mutable p_published : int;
    mutable p_head_cache : int;
    mutable c_head : int;  (** consumer-private true head *)
    mutable c_published : int;
    mutable c_tail_cache : int;
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let create ~capacity ~slot_size =
    if capacity < 1 then invalid_arg "Pktring.create: capacity must be >= 1";
    if slot_size < 1 then invalid_arg "Pktring.create: slot_size must be >= 1";
    let cap = next_pow2 capacity in
    {
      bufs = Array.init cap (fun _ -> Bytes.create slot_size);
      lens = Array.make cap 0;
      qids = Array.make cap 0;
      mask = cap - 1;
      head = Atomic.make 0;
      tail = Atomic.make 0;
      p_tail = 0;
      p_published = 0;
      p_head_cache = 0;
      c_head = 0;
      c_published = 0;
      c_tail_cache = 0;
    }

  let capacity t = t.mask + 1
  let slot_size t = Bytes.length t.bufs.(0)
  let length t = Atomic.get t.tail - Atomic.get t.head

  (* -- producer side -- *)

  let flush t =
    if t.p_published <> t.p_tail then begin
      Atomic.set t.tail t.p_tail;
      t.p_published <- t.p_tail
    end

  let try_push t src ~len ~qid =
    if t.p_tail - t.p_head_cache > t.mask then
      t.p_head_cache <- Atomic.get t.head;
    if t.p_tail - t.p_head_cache > t.mask then begin
      (* Genuinely full: publish anything staged so the consumer can
         drain and make space, then report failure. *)
      flush t;
      false
    end
    else begin
      let i = t.p_tail land t.mask in
      (* Oversize packets (longer than the slot) are staged truncated
         with their true length: every device's [buf_size] is <= the
         slot size, so the consumer's inject drops them on the length
         check before reading the payload — same drop accounting as
         handing over the full bytes. *)
      Bytes.blit src 0 t.bufs.(i) 0 (min len (Bytes.length t.bufs.(i)));
      t.lens.(i) <- len;
      t.qids.(i) <- qid;
      t.p_tail <- t.p_tail + 1;
      if t.p_tail - t.p_published >= publish_batch then flush t;
      true
    end

  (* -- consumer side -- *)

  let publish_head t =
    if t.c_published <> t.c_head then begin
      Atomic.set t.head t.c_head;
      t.c_published <- t.c_head
    end

  let peek t =
    if t.c_head < t.c_tail_cache then t.c_head land t.mask
    else begin
      t.c_tail_cache <- Atomic.get t.tail;
      if t.c_head < t.c_tail_cache then t.c_head land t.mask
      else begin
        (* Observed empty: let the producer see every slot freed so
           far, otherwise a full-looking ring could deadlock against a
           sleeping consumer. *)
        publish_head t;
        -1
      end
    end

  let buf t i = t.bufs.(i)
  let len t i = t.lens.(i)
  let qid t i = t.qids.(i)

  let advance t =
    t.c_head <- t.c_head + 1;
    if t.c_head - t.c_published >= publish_batch then publish_head t

  (* Empty the ring for reuse by a new producer/consumer pair. Only
     between runs, when neither side is touching it. *)
  let reset t =
    Atomic.set t.head 0;
    Atomic.set t.tail 0;
    t.p_tail <- 0;
    t.p_published <- 0;
    t.p_head_cache <- 0;
    t.c_head <- 0;
    t.c_published <- 0;
    t.c_tail_cache <- 0
end

type result = {
  pkts : int;
  per_queue : int array;
  stats : Stats.t;
  domain_stats : Stats.t array;
  domain_cycles : float array;
  wall_s : float;
  busy_s : float array;
  producer_busy_s : float;
  eff_wall_s : float;
  minor_words_per_pkt : float;
  stranded : int;
  drops : int;
  sink : int64;
  delivered : bytes list array option;
  faults : Fault.counters array option;
}

(* Live hot-swap support (Driver.Upgrade): the producer requests
   quiescence, every worker drains its handoff ring and its devices dry,
   then the verdict — computed concurrently on the producer domain
   (classification, recompile, certification) — is published through one
   atomic cell and each worker applies it at its own quiescent point
   before acknowledging the new epoch. No worker ever holds a completion
   serialised under one contract while reading it with the other's
   accessors. *)
type swap_cmd =
  | Swap_apply of {
      sc_config : Opendesc.Context.assignment;
      sc_model : unit -> Nic_models.Model.t;
          (** fresh model per queue (models are stateful) *)
      sc_stack : int -> Stack.burst_t;  (** epoch-1 consumer per queue *)
    }
  | Swap_refuse  (** keep serving the old contract *)
  | Swap_quarantine  (** breaking: stop the datapath, withhold the rest *)

type swap_action = Sw_applied | Sw_refused | Sw_quarantined

type swap_outcome = {
  sw_action : swap_action;
  sw_at : int;  (** packets offered before the swap point *)
  sw_inflight : int;  (** completions pending at the quiesce point *)
  sw_pre_pkts : int;  (** packets delivered under epoch 0 *)
  sw_post_pkts : int;  (** packets delivered under epoch 1 *)
  sw_withheld : int;  (** packets never offered to the device *)
  sw_torn : int;  (** non-quiescent epoch flips observed — must be 0 *)
  sw_upgrade_errors : int;  (** Device.upgrade refusals — must be 0 *)
  sw_latency_s : float;  (** quiesce request until every worker acked *)
  sw_pause_s : float;
      (** producer quiesce pause: injection halted from the quiesce
          request until the stream resumed (or, quarantined, until the
          verdict withheld the remainder) — ROADMAP item 4's bound *)
  sw_post_pairs : (bytes * bytes) list array option;
      (** per queue: (packet, completion) pairs delivered under epoch 1,
          delivery order — the rev-B reference-decode evidence *)
}

type swap_ctl = {
  ctl_quiesce : bool Atomic.t;
  ctl_cmd : swap_cmd option Atomic.t;
  ctl_quiesced : int Atomic.t;
  ctl_acks : int Atomic.t;
  ctl_inflight : int Atomic.t;
  ctl_pre_pkts : int Atomic.t;
  ctl_torn : int Atomic.t;
  ctl_upgrade_errors : int Atomic.t;
  ctl_post_pairs : (bytes * bytes) list array option;
      (** indexed by queue id; only the owning worker writes *)
}

(* What one worker reports back at the end of a run. *)
type report = {
  rp_pkts : int;
  rp_cycles : float;
  rp_stats : Stats.t;
  rp_sink : int64;
  rp_busy_s : float;
  rp_minor_words : float;
}

(* Adaptive busy-poll backoff: spin with [Domain.cpu_relax] while the
   wait is likely short, then park in exponentially growing [sleepf]
   naps so an idle domain yields its core (essential on machines with
   fewer cores than domains). Progress resets both phases. *)
let spin_limit = 128
let park_min_s = 2e-6
let park_max_s = 256e-6

(* One step of that ladder; true when the step parked. *)
let backoff idle park =
  let parks = !idle >= spin_limit in
  if parks then begin
    Unix.sleepf !park;
    park := Float.min park_max_s (!park *. 2.0)
  end
  else Domain.cpu_relax ();
  incr idle;
  parks

(* Raised by every domain of a run that is still waiting once another
   one has failed, so the run winds down and the first real failure
   re-raises in the caller. *)
exception Aborted

let wait_until ~abort ready =
  let idle = ref 0 and park = ref park_min_s in
  while not (ready ()) do
    if Atomic.get abort then raise Aborted;
    ignore (backoff idle park)
  done

(* One domain's chunk timings for a run. The buffers are kept across
   runs (grown to the largest run) so a run allocates none of them. *)
type timings = {
  mutable chunk_s : float array;
  mutable chunk_n : int array;
  mutable nchunks : int;
  mutable extra_s : float;  (** work timed with no packets (final sweeps) *)
}

let timings () = { chunk_s = [||]; chunk_n = [||]; nchunks = 0; extra_s = 0.0 }

let start_timings t ~cap =
  if Array.length t.chunk_s < cap then begin
    t.chunk_s <- Array.make cap 0.0;
    t.chunk_n <- Array.make cap 0
  end;
  t.nchunks <- 0;
  t.extra_s <- 0.0

let record t s n =
  if n = 0 then t.extra_s <- t.extra_s +. s
  else if t.nchunks < Array.length t.chunk_s then begin
    t.chunk_s.(t.nchunks) <- s;
    t.chunk_n.(t.nchunks) <- n;
    t.nchunks <- t.nchunks + 1
  end

(* Preemption-robust busy time from per-chunk timings. Each domain
   clocks contiguous work chunks (a pop/inject run plus its harvest; a
   run of ring pushes) as (seconds, packets). On a machine with fewer
   cores than domains a chunk's wall span can include another domain's
   timeslice, so the raw sum overstates on-CPU work arbitrarily; the
   packet-weighted MEDIAN per-packet cost is immune to those outliers
   (preemption hits a minority of chunks). Busy time is then
   median-cost x packets — an estimate of the time this domain's work
   would take on its own core. *)
let robust_busy { chunk_s; chunk_n; nchunks; extra_s } =
  let total = ref 0 in
  for i = 0 to nchunks - 1 do
    total := !total + chunk_n.(i)
  done;
  if !total = 0 then extra_s
  else begin
    let idx = Array.init nchunks Fun.id in
    Array.sort
      (fun a b ->
        Float.compare
          (chunk_s.(a) /. float_of_int chunk_n.(a))
          (chunk_s.(b) /. float_of_int chunk_n.(b)))
      idx;
    let half = !total / 2 in
    let acc = ref 0 and k = ref 0 in
    while !acc <= half && !k < nchunks do
      acc := !acc + chunk_n.(idx.(!k));
      incr k
    done;
    let m = idx.(max 0 (!k - 1)) in
    (chunk_s.(m) /. float_of_int chunk_n.(m) *. float_of_int !total) +. extra_s
  end

(* Persistent engine workers. Worker domains are spawned once and serve
   every later run: between runs each blocks on its condition variable
   (no spinning), and it keeps its handoff ring and burst buffers, so a
   run costs two mutex handoffs per worker instead of a Domain.spawn and
   join (whose per-spawn heap growth the caller's retained values
   amplify in OCaml 5). The pool grows to the largest worker count ever
   requested. A job's exception is stored and re-raised in the caller. *)
type member = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : (member -> unit) option;
  mutable finished : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable ring : Pktring.t option;  (** the handoff ring, kept across runs *)
  mutable bursts : Device.burst array;  (** per owned queue, kept across runs *)
  times : timings;
}

let rec serve m =
  Mutex.lock m.lock;
  while Option.is_none m.job do
    Condition.wait m.cond m.lock
  done;
  let job = Option.get m.job in
  m.job <- None;
  Mutex.unlock m.lock;
  let failure =
    match job m with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock m.lock;
  m.failure <- failure;
  m.finished <- true;
  Condition.broadcast m.cond;
  Mutex.unlock m.lock;
  serve m

(* Runs are serialised: one run owns the pool (and the producer's
   timings) at a time. *)
let pool_lock = Mutex.create ()
let pool : member array ref = ref [||]
let producer_times = timings ()

let members n =
  let have = Array.length !pool in
  if n > have then
    pool :=
      Array.append !pool
        (Array.init (n - have) (fun _ ->
             let m =
               {
                 lock = Mutex.create ();
                 cond = Condition.create ();
                 job = None;
                 finished = true;
                 failure = None;
                 ring = None;
                 bursts = [||];
                 times = timings ();
               }
             in
             ignore (Domain.spawn (fun () -> serve m));
             m));
  !pool

let submit m job =
  Mutex.protect m.lock (fun () ->
      m.finished <- false;
      m.failure <- None;
      m.job <- Some job;
      Condition.broadcast m.cond)

let await m =
  Mutex.protect m.lock (fun () ->
      while not m.finished do
        Condition.wait m.cond m.lock
      done;
      m.failure)

let ring_for m ~capacity ~slot_size =
  match m.ring with
  | Some r
    when capacity >= 1
         && Pktring.capacity r = Pktring.next_pow2 capacity
         && Pktring.slot_size r = slot_size ->
      Pktring.reset r;
      r
  | _ ->
      let r = Pktring.create ~capacity ~slot_size in
      m.ring <- Some r;
      r

let bursts_for m devices ~batch =
  let fits d (b : Device.burst) =
    Device.burst_capacity b = batch
    && Bytes.length b.bs_pkts.(0) = Ring.slot_size (Device.pkt_ring d)
    && Bytes.length b.bs_cmpts.(0) = Ring.slot_size (Device.cmpt_ring d)
  in
  let bursts =
    Array.mapi
      (fun i d ->
        if i < Array.length m.bursts && fits d m.bursts.(i) then m.bursts.(i)
        else Device.burst_create ~capacity:batch d)
      devices
  in
  m.bursts <- bursts;
  bursts

let worker ~w ~m ~queue_ids ~devices ~local ~ring ~stop ~abort ~batch ~stack
    ~account ~pkts_hint ~per_queue ~delivered ~faults ~swap () =
  let env = Softnic.Feature.make_env () in
  let ledger = Cost.create () in
  let sink_acct = if account then Cost.ledger ledger else Cost.null in
  let bursts = bursts_for m devices ~batch in
  let consumers = Array.map stack queue_ids in
  let hist : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let nbursts = ref 0 in
  let consumed = ref 0 in
  let sink = ref 0L in
  let spins = ref 0 and parks = ref 0 and wakes = ref 0 in
  (* Chunk timing buffers, sized up front so the loop never grows them. *)
  start_timings m.times ~cap:(pkts_hint + 4);
  let record_chunk = record m.times in
  let inject i buf len =
    match faults with
    | None -> ignore (Device.rx_inject_raw devices.(i) buf ~len)
    | Some fqs ->
        (* The fault layer can stash the packet past this call (Reorder
           defers it), so the chaos path hands it a private copy rather
           than a view of a reusable ring slot. Chaos is the resilience
           harness, not the wall-clock path. *)
        let pkt =
          if len <= Bytes.length buf then
            Packet.Pkt.create (Bytes.sub buf 0 len)
          else
            (* Oversize packet staged truncated ({!Pktring.try_push}):
               the device drops it on length regardless of content. *)
            Packet.Pkt.create (Bytes.create len)
        in
        ignore (Fault.rx_inject fqs.(i) pkt)
  in
  let inject_slot s =
    inject local.(Pktring.qid ring s) (Pktring.buf ring s) (Pktring.len ring s);
    Pktring.advance ring
  in
  let take i b =
    match faults with
    | None -> Device.rx_consume_batch devices.(i) b
    | Some fqs -> Fault.harvest fqs.(i) b
  in
  let epoch = ref 0 in
  let swapped = ref false in
  (* One harvest sweep over the owned queues; returns packets taken. *)
  let sweep () =
    let total = ref 0 in
    Array.iteri
      (fun i d ->
        ignore d;
        let b = bursts.(i) in
        let n = take i b in
        if n > 0 then begin
          incr nbursts;
          Hashtbl.replace hist n
            (1 + Option.value ~default:0 (Hashtbl.find_opt hist n));
          sink := Int64.add !sink (consumers.(i).Stack.bt_consume sink_acct env b);
          let q = queue_ids.(i) in
          per_queue.(q) <- per_queue.(q) + n;
          (match delivered with
          | Some arr ->
              for j = 0 to n - 1 do
                arr.(q) <-
                  Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j) :: arr.(q)
              done
          | None -> ());
          (match swap with
          | Some ctl when !epoch = 1 -> (
              match ctl.ctl_post_pairs with
              | Some arr ->
                  for j = 0 to n - 1 do
                    arr.(q) <-
                      ( Bytes.sub b.Device.bs_pkts.(j) 0 b.Device.bs_lens.(j),
                        Bytes.sub b.Device.bs_cmpts.(j) 0 b.Device.bs_cmpt_lens.(j)
                      )
                      :: arr.(q)
                  done
              | None -> ())
          | _ -> ());
          consumed := !consumed + n;
          total := !total + n
        end)
      devices;
    !total
  in
  let harvest_all () =
    while sweep () > 0 do () done;
    (* Under fault injection a sweep can deliver nothing while the rings
       still hold work (stuck queues burn bounded kicks per call;
       fully-quarantined bursts count 0) — keep sweeping until dry. *)
    match faults with
    | None -> ()
    | Some fqs ->
        while Array.exists (fun fq -> Fault.rx_available fq > 0) fqs do
          ignore (sweep ())
        done
  in
  let quiesce_pending () =
    match swap with
    | Some ctl -> (not !swapped) && Atomic.get ctl.ctl_quiesce
    | None -> false
  in
  (* The idle ladder, shared by waits between runs and inside them. *)
  let idle = ref 0 and park_s = ref park_min_s and parked = ref false in
  let wait () =
    if Atomic.get abort then raise Aborted;
    if backoff idle park_s then begin
      incr parks;
      parked := true
    end
    else incr spins
  in
  let progress () =
    if !parked then begin
      incr wakes;
      parked := false
    end;
    idle := 0;
    park_s := park_min_s
  in
  (* A run pops exactly [batch] per owned queue, then harvests — bursts
     near capacity, so the amortised per-burst charges match the
     sequential batched path. It ends early only when the stream pauses
     for good: the producer stopped or asked to quiesce, and the ring
     re-reads empty after that flag (so the producer's final flush is
     visible). Run boundaries, and so bursts and the ledger, depend only
     on the packet sequence, never on how fast the producer was. Waiting
     for it inside a run is idle time (spins/parks), excluded from the
     run's timed chunk. *)
  let threshold = batch * Array.length devices in
  let run first =
    let t0 = Unix.gettimeofday () in
    progress ();
    inject_slot first;
    let pops = ref 1 in
    let waited = ref 0.0 and wait_t0 = ref 0.0 and waiting = ref false in
    let more = ref (!pops < threshold) in
    while !more do
      let s = Pktring.peek ring in
      if s >= 0 then begin
        if !waiting then begin
          waiting := false;
          waited := !waited +. (Unix.gettimeofday () -. !wait_t0);
          progress ()
        end;
        inject_slot s;
        incr pops;
        more := !pops < threshold
      end
      else if (Atomic.get stop || quiesce_pending ()) && Pktring.peek ring < 0
      then more := false
      else begin
        if not !waiting then begin
          waiting := true;
          wait_t0 := Unix.gettimeofday ()
        end;
        wait ()
      end
    done;
    if !waiting then waited := !waited +. (Unix.gettimeofday () -. !wait_t0);
    harvest_all ();
    record_chunk (Unix.gettimeofday () -. t0 -. !waited) !pops
  in
  let mw0 = Gc.minor_words () in
  let running = ref true in
  while !running do
    let first = Pktring.peek ring in
    if first >= 0 then run first
    else if quiesce_pending () then begin
      let ctl = Option.get swap in
      let t0 = Unix.gettimeofday () in
      (* Reach the quiescent point. The quiesce flag was raised after the
         producer's final pre-swap flush, so the empty peek above may
         predate that flush: drain the handoff ring dry first, emit any
         deferred reordered completion (it has no successor on this side
         of the swap), then sweep the owned devices empty. *)
      let pops = ref 0 in
      let rec drain_ring () =
        let s = Pktring.peek ring in
        if s >= 0 then begin
          inject_slot s;
          incr pops;
          drain_ring ()
        end
      in
      drain_ring ();
      (match faults with
      | Some fqs -> Array.iter Fault.flush fqs
      | None -> ());
      let inflight =
        match faults with
        | Some fqs ->
            Array.fold_left (fun a fq -> a + Fault.rx_available fq) 0 fqs
        | None ->
            Array.fold_left (fun a d -> a + Device.rx_available d) 0 devices
      in
      ignore (Atomic.fetch_and_add ctl.ctl_inflight inflight);
      harvest_all ();
      ignore (Atomic.fetch_and_add ctl.ctl_pre_pkts !consumed);
      ignore (Atomic.fetch_and_add ctl.ctl_quiesced 1);
      (* Wait for the verdict — classification, recompile and
         certification run concurrently on the producer domain. *)
      wait_until ~abort (fun () -> Option.is_some (Atomic.get ctl.ctl_cmd));
      (match Option.get (Atomic.get ctl.ctl_cmd) with
      | Swap_apply { sc_config; sc_model; sc_stack } ->
          (* Torn-plan oracle: the epoch flip is only legal at a dry
             point — a completion serialised under the old contract must
             never be read with the new accessors. *)
          if
            Pktring.peek ring >= 0
            || Array.exists (fun d -> Device.rx_available d > 0) devices
          then begin
            ignore (Atomic.fetch_and_add ctl.ctl_torn 1);
            drain_ring ();
            harvest_all ()
          end;
          Array.iter
            (fun d ->
              match Device.upgrade d ~config:sc_config (sc_model ()) with
              | Ok () -> ()
              | Error _ ->
                  ignore (Atomic.fetch_and_add ctl.ctl_upgrade_errors 1))
            devices;
          (match faults with
          | Some fqs -> Array.iter Fault.rebind fqs
          | None -> ());
          Array.iteri (fun i q -> consumers.(i) <- sc_stack q) queue_ids;
          epoch := 1
      | Swap_refuse -> ()
      | Swap_quarantine -> running := false);
      swapped := true;
      ignore (Atomic.fetch_and_add ctl.ctl_acks 1);
      record_chunk (Unix.gettimeofday () -. t0) !pops
    end
    else if Atomic.get stop && Pktring.peek ring < 0 then begin
      (* End of stream (the re-peek runs after the stop read, so the
         producer's final flush is visible): a deferred (reordered)
         completion has no successor left to swap with — emit it before
         the final drain. *)
      let t0 = Unix.gettimeofday () in
      (match faults with
      | Some fqs -> Array.iter Fault.flush fqs
      | None -> ());
      harvest_all ();
      record_chunk (Unix.gettimeofday () -. t0) 0;
      running := false
    end
    else wait ()
  done;
  let minor_words = Gc.minor_words () -. mw0 in
  let busy = robust_busy m.times in
  let dma = Array.fold_left (fun a d -> a + Device.dma_bytes d) 0 devices in
  let drops = Array.fold_left (fun a d -> a + Device.drops d) 0 devices in
  let stats =
    Stats.make
      ~name:(Printf.sprintf "domain%d" w)
      ~pkts:!consumed ~ledger ~dma_bytes:dma ~drops
    |> Stats.with_bursts ~bursts:!nbursts
         ~burst_hist:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist [])
    |> Stats.with_idle ~spins:!spins ~parks:!parks ~wakes:!wakes
  in
  let stats =
    match faults with
    | None -> stats
    | Some fqs ->
        let c =
          Fault.counters_sum (Array.to_list (Array.map Fault.counters fqs))
        in
        Stats.with_faults ~injected:c.Fault.injected ~detected:c.Fault.detected
          ~quarantined:c.Fault.quarantined ~retries:c.Fault.retries stats
  in
  {
    rp_pkts = !consumed;
    rp_cycles = Cost.total ledger;
    rp_stats = stats;
    rp_sink = !sink;
    rp_busy_s = busy;
    rp_minor_words = minor_words;
  }

(* What the producer side of a run may do: push one packet to its
   queue's owner, publish everything pushed so far, and wait (abortably)
   until every worker has bumped a counter. *)
type producer = {
  push : bytes -> int -> int -> unit;  (** buffer, length, queue *)
  flush : unit -> unit;
  all_workers : int Atomic.t -> unit;
}

(* The engine both entry points share: hand one job per worker domain to
   the pool, run [produce] on the calling domain as the steering /
   injection producer, raise the stop flag, wait for every worker and
   merge their reports. The first real failure — a worker's before the
   producer's — re-raises here once every worker has wound down. *)
let engine ~who ~name ~domains ~batch ~ring_capacity ~collect ~account ~plan ~mq
    ~stack ~pkts ~swap produce =
  if domains < 1 then invalid_arg (who ^ ": domains must be >= 1");
  if batch < 1 then invalid_arg (who ^ ": batch must be >= 1");
  let nq = Mq.queues mq in
  let workers = min domains nq in
  let owner q = q mod workers in
  let devices = Array.init nq (Mq.queue mq) in
  Array.iter Device.reset_counters devices;
  (* One fault wrapper per queue, created up front and handed to the
     owning worker: faults are a per-queue function of (seed, qid,
     injection order), so the same plan replays identically however the
     queues are grouped onto domains. *)
  let fqs =
    Option.map
      (fun plan -> Array.init nq (fun q -> Fault.wrap ~qid:q plan devices.(q)))
      plan
  in
  let per_queue = Array.make nq 0 in
  let delivered = if collect then Some (Array.make nq []) else None in
  let slot_size =
    Array.fold_left (fun a d -> max a (Device.buf_size d)) 64 devices
  in
  Mutex.protect pool_lock @@ fun () ->
  let ms = members workers in
  let rings =
    Array.init workers (fun w ->
        ring_for ms.(w) ~capacity:ring_capacity ~slot_size)
  in
  let stop = Atomic.make false and abort = Atomic.make false in
  let reports = Array.make workers None in
  let t0 = Unix.gettimeofday () in
  for w = 0 to workers - 1 do
    let queue_ids =
      Array.of_list (List.filter (fun q -> owner q = w) (List.init nq Fun.id))
    in
    let wdevices = Array.map (fun q -> devices.(q)) queue_ids in
    let local = Array.make nq (-1) in
    Array.iteri (fun i q -> local.(q) <- i) queue_ids;
    let wfaults =
      Option.map (fun fqs -> Array.map (fun q -> fqs.(q)) queue_ids) fqs
    in
    submit ms.(w) (fun m ->
        try
          reports.(w) <-
            Some
              (worker ~w ~m ~queue_ids ~devices:wdevices ~local ~ring:rings.(w)
                 ~stop ~abort ~batch ~stack ~account ~pkts_hint:pkts ~per_queue
                 ~delivered ~faults:wfaults ~swap ())
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set abort true;
          Printexc.raise_with_backtrace e bt)
  done;
  (* The steering/injection side. Chunks of pushes are timed the same
     way worker chunks are (see [robust_busy]); blocking on a full ring
     ends the current chunk so the wait is not billed as work. *)
  start_timings producer_times ~cap:(pkts + 4);
  let pushed_in_chunk = ref 0 in
  let chunk_t0 = ref (Unix.gettimeofday ()) in
  let end_chunk () =
    if !pushed_in_chunk > 0 then
      record producer_times (Unix.gettimeofday () -. !chunk_t0) !pushed_in_chunk;
    pushed_in_chunk := 0;
    chunk_t0 := Unix.gettimeofday ()
  in
  let push buf len q =
    let ring = rings.(owner q) in
    if not (Pktring.try_push ring buf ~len ~qid:q) then begin
      end_chunk ();
      wait_until ~abort (fun () -> Pktring.try_push ring buf ~len ~qid:q);
      chunk_t0 := Unix.gettimeofday ()
    end;
    incr pushed_in_chunk;
    if !pushed_in_chunk >= 256 then end_chunk ()
  in
  let flush () =
    Array.iter Pktring.flush rings;
    end_chunk ()
  in
  let all_workers cell =
    wait_until ~abort (fun () -> Atomic.get cell >= workers)
  in
  let p_mw0 = Gc.minor_words () in
  let produced =
    match produce { push; flush; all_workers } with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let p_minor_words = Gc.minor_words () -. p_mw0 in
  if Result.is_error produced then Atomic.set abort true;
  Atomic.set stop true;
  let failures = Array.map await (Array.sub ms 0 workers) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let real = function Some (Aborted, _) | None -> None | Some f -> Some f in
  (match (Array.find_map real failures, produced) with
  | Some (e, bt), _ | None, Error (e, bt) -> Printexc.raise_with_backtrace e bt
  | None, Ok _ -> ());
  let reports = Array.map Option.get reports in
  let producer_busy_s = robust_busy producer_times in
  let busy_s = Array.map (fun r -> r.rp_busy_s) reports in
  let total_pkts = Array.fold_left (fun a r -> a + r.rp_pkts) 0 reports in
  let minor_words =
    Array.fold_left (fun a r -> a +. r.rp_minor_words) p_minor_words reports
  in
  let domain_stats = Array.map (fun r -> r.rp_stats) reports in
  let result =
    {
      pkts = total_pkts;
      per_queue;
      stats = Stats.merge ~name (Array.to_list domain_stats);
      domain_stats;
      domain_cycles = Array.map (fun r -> r.rp_cycles) reports;
      wall_s;
      busy_s;
      producer_busy_s;
      eff_wall_s = Array.fold_left Float.max producer_busy_s busy_s;
      minor_words_per_pkt =
        (if total_pkts = 0 then 0.0
         else minor_words /. float_of_int total_pkts);
      stranded = Array.fold_left (fun a r -> a + Pktring.length r) 0 rings;
      drops = Array.fold_left (fun a d -> a + Device.drops d) 0 devices;
      sink = Array.fold_left (fun a r -> Int64.add a r.rp_sink) 0L reports;
      delivered = Option.map (Array.map List.rev) delivered;
      faults = Option.map (Array.map Fault.counters) fqs;
    }
  in
  (result, Result.get_ok produced)

(* Steer and push [n] packets of [workload], then publish them. *)
let push_stream p ~mq ~cache ~workload n =
  for _ = 1 to n do
    let pkt = Packet.Workload.next workload in
    p.push pkt.Packet.Pkt.buf pkt.Packet.Pkt.len (Mq.steer_cached mq cache pkt)
  done;
  p.flush ()

let run ?(domains = 1) ?(batch = 32) ?(ring_capacity = 1024) ?(collect = false)
    ?(account = true) ?(pregen = false) ?plan ~mq ~stack ~pkts ~workload () =
  (* With [~pregen] the workload generation and steering run before the
     clock starts, so the measured region is the drain machinery itself:
     handoff, injection, harvest, consume. *)
  let pre =
    if not pregen then None
    else begin
      let cache = Mq.make_steer_cache () in
      let bufs = Array.make (max 1 pkts) Bytes.empty in
      let lens = Array.make (max 1 pkts) 0 in
      let qs = Array.make (max 1 pkts) 0 in
      for k = 0 to pkts - 1 do
        let pkt = Packet.Workload.next workload in
        bufs.(k) <- pkt.Packet.Pkt.buf;
        lens.(k) <- pkt.Packet.Pkt.len;
        qs.(k) <- Mq.steer_cached mq cache pkt
      done;
      Some (bufs, lens, qs)
    end
  in
  fst
    (engine ~who:"Parallel.run" ~name:"parallel" ~domains ~batch
       ~ring_capacity ~collect ~account ~plan ~mq ~stack ~pkts ~swap:None
       (fun p ->
         match pre with
         | Some (bufs, lens, qs) ->
             for k = 0 to pkts - 1 do
               p.push bufs.(k) lens.(k) qs.(k)
             done;
             p.flush ()
         | None ->
             push_stream p ~mq ~cache:(Mq.make_steer_cache ()) ~workload pkts))

(* The live-upgrade engine: {!run}'s machinery with one epoch boundary.
   The producer offers [at] packets under the old contract, raises the
   quiesce flag, computes the verdict (the [swap] callback — typically
   classification + recompile + certification) while the workers drain
   themselves dry, publishes it once every worker stands at a quiescent
   point, and resumes the stream only after every worker has
   acknowledged the new epoch. *)
let hot_swap ?(domains = 1) ?(batch = 32) ?(ring_capacity = 1024)
    ?(collect = false) ?(account = true) ?(collect_post = false) ?plan ~mq
    ~stack ~pkts ~at ~swap ~workload () =
  let at = max 0 (min at pkts) in
  let ctl =
    {
      ctl_quiesce = Atomic.make false;
      ctl_cmd = Atomic.make None;
      ctl_quiesced = Atomic.make 0;
      ctl_acks = Atomic.make 0;
      ctl_inflight = Atomic.make 0;
      ctl_pre_pkts = Atomic.make 0;
      ctl_torn = Atomic.make 0;
      ctl_upgrade_errors = Atomic.make 0;
      ctl_post_pairs =
        (if collect_post then Some (Array.make (Mq.queues mq) []) else None);
    }
  in
  let result, (cmd, latency_s, pause_s, withheld) =
    engine ~who:"Parallel.hot_swap" ~name:"hot_swap" ~domains ~batch
      ~ring_capacity ~collect ~account ~plan ~mq ~stack ~pkts ~swap:(Some ctl)
      (fun p ->
        let cache = Mq.make_steer_cache () in
        (* Epoch 0: the pre-swap stream. *)
        push_stream p ~mq ~cache ~workload at;
        let t_swap = Unix.gettimeofday () in
        Atomic.set ctl.ctl_quiesce true;
        (* The verdict computes here — on the producer domain,
           concurrently with the workers draining to their quiescent
           points. *)
        let cmd = swap () in
        p.all_workers ctl.ctl_quiesced;
        Atomic.set ctl.ctl_cmd (Some cmd);
        p.all_workers ctl.ctl_acks;
        let latency_s = Unix.gettimeofday () -. t_swap in
        (* Epoch 1 (or the rest of the refused stream). The producer
           pause ends the instant injection restarts; quarantine never
           resumes, so its pause ends at the verdict. *)
        match cmd with
        | Swap_quarantine ->
            (cmd, latency_s, Unix.gettimeofday () -. t_swap, pkts - at)
        | Swap_apply _ | Swap_refuse ->
            let pause_s = Unix.gettimeofday () -. t_swap in
            push_stream p ~mq ~cache ~workload (pkts - at);
            (cmd, latency_s, pause_s, 0))
  in
  let pre = Atomic.get ctl.ctl_pre_pkts in
  ( result,
    {
      sw_action =
        (match cmd with
        | Swap_apply _ -> Sw_applied
        | Swap_refuse -> Sw_refused
        | Swap_quarantine -> Sw_quarantined);
      sw_at = at;
      sw_inflight = Atomic.get ctl.ctl_inflight;
      sw_pre_pkts = pre;
      sw_post_pkts = result.pkts - pre;
      sw_withheld = withheld;
      sw_torn = Atomic.get ctl.ctl_torn;
      sw_upgrade_errors = Atomic.get ctl.ctl_upgrade_errors;
      sw_latency_s = latency_s;
      sw_pause_s = pause_s;
      sw_post_pairs = Option.map (Array.map List.rev) ctl.ctl_post_pairs;
    } )
