(* The active path's completion writer, staged once per (model, path):
   field [i] of the layout is written by [writers.(i)] with the value
   [resolvers.(i)] computes for the packet, so injection does no
   per-field lookup and builds no writer. *)
type plan = {
  writers : (bytes -> int64 -> unit) array;
  resolvers :
    (Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64) array;
}

type t = {
  mutable model : Nic_models.Model.t;
  env : Softnic.Feature.env;
  mutable config : Opendesc.Context.assignment;
  mutable active_path : Opendesc.Path.t;
  mutable plan : plan;
  cmpt_ring : Ring.t;
  pkt_ring : Ring.t;
  tx_ring : Ring.t;
  tx_scratch : bytes;  (** reusable TX descriptor-fetch buffer *)
  inj_slot : bytes;  (** reusable RX injection slot (len prefix + data) *)
  inj_cmpt : bytes;  (** reusable RX completion-record buffer *)
  rx_scratch_cmpt : bytes;  (** reusable [rx_consume] harvest buffers *)
  rx_scratch_pkt : bytes;
  buf_size : int;
  mutable tx_format : Opendesc.Descparser.t option;
  mutable rx_count : int;
  mutable tx_count : int;
  mutable drops : int;
  mutable tx_pkt_bytes_read : int;
  mutable doorbells : int;
}

type burst = {
  bs_pkts : bytes array;
  bs_lens : int array;
  bs_cmpts : bytes array;
  bs_cmpt_lens : int array;
  mutable bs_count : int;
}

let normalize a = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) a

let assignment_matches config a =
  Opendesc.Context.equal (normalize config) (normalize a)

let path_for_config (spec : Opendesc.Nic_spec.t) config =
  List.find_opt
    (fun (p : Opendesc.Path.t) ->
      List.exists (assignment_matches config) p.p_assignments)
    spec.paths

let max_cmpt_size (spec : Opendesc.Nic_spec.t) =
  List.fold_left (fun acc p -> max acc (Opendesc.Path.size p)) 1 spec.paths

let stage (model : Nic_models.Model.t) (path : Opendesc.Path.t) =
  let fields = Array.of_list path.p_layout.fields in
  {
    writers =
      Array.map
        (fun (f : Opendesc.Path.lfield) ->
          Opendesc.Accessor.writer ~bit_off:f.l_bit_off ~bits:f.l_bits)
        fields;
    resolvers = Array.map model.resolve fields;
  }

let smallest_tx (spec : Opendesc.Nic_spec.t) =
  match spec.tx_formats with
  | [] -> None
  | f :: rest ->
      Some
        (List.fold_left
           (fun best g ->
             if Opendesc.Descparser.size g < Opendesc.Descparser.size best then g
             else best)
           f rest)

let create ?(queue_depth = 512) ?(buf_size = 2048) ~config (model : Nic_models.Model.t)
    =
  match path_for_config model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           model.spec.nic_name Opendesc.Context.pp config)
  | Some path ->
      let tx_ring =
        Ring.create ~slots:queue_depth
          ~slot_size:
            (List.fold_left
               (fun acc f -> max acc (Opendesc.Descparser.size f))
               16 model.spec.tx_formats)
      in
      let cmpt_ring =
        Ring.create ~slots:queue_depth ~slot_size:(max_cmpt_size model.spec)
      in
      let pkt_ring = Ring.create ~slots:queue_depth ~slot_size:(buf_size + 2) in
      let t =
        {
          model;
          env = Softnic.Feature.make_env ();
          config;
          active_path = path;
          plan = stage model path;
          cmpt_ring;
          pkt_ring;
          tx_ring;
          tx_scratch = Bytes.create (Ring.slot_size tx_ring);
          inj_slot = Bytes.create (Ring.slot_size pkt_ring);
          inj_cmpt = Bytes.create (Ring.slot_size cmpt_ring);
          rx_scratch_cmpt = Bytes.create (Ring.slot_size cmpt_ring);
          rx_scratch_pkt = Bytes.create (Ring.slot_size pkt_ring);
          buf_size;
          tx_format = smallest_tx model.spec;
          rx_count = 0;
          tx_count = 0;
          drops = 0;
          tx_pkt_bytes_read = 0;
          doorbells = 0;
        }
      in
      Ok t

let create_exn ?queue_depth ?buf_size ~config model =
  match create ?queue_depth ?buf_size ~config model with
  | Ok t -> t
  | Error e -> failwith e

let configure t config =
  match path_for_config t.model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           t.model.spec.nic_name Opendesc.Context.pp config)
  | Some path ->
      t.config <- config;
      t.active_path <- path;
      t.plan <- stage t.model path;
      Ok ()

let active_path t = t.active_path

(* Live firmware swap: replace the behavioural model (the "flashed"
   contract) in place, keeping the rings, the DMA counters and the
   feature environment — so the RSS key, clock and installed flow marks
   survive and steering decisions are unchanged. Only legal at a
   quiescent point: outstanding completions were serialised under the
   old layout and would be trimmed to the new one on harvest. *)
let upgrade t ~config (model : Nic_models.Model.t) =
  match path_for_config model.spec config with
  | None ->
      Error
        (Format.asprintf "%s: context %a selects no completion path"
           model.spec.nic_name Opendesc.Context.pp config)
  | Some path ->
      if Ring.available t.cmpt_ring > 0 then
        Error
          (Printf.sprintf "%s: %d completion(s) in flight — drain before upgrade"
             t.model.spec.nic_name
             (Ring.available t.cmpt_ring))
      else if max_cmpt_size model.spec > Ring.slot_size t.cmpt_ring then
        Error
          (Printf.sprintf
             "%s: new completion layout (%dB) exceeds the provisioned ring slot \
              (%dB)"
             model.spec.nic_name (max_cmpt_size model.spec)
             (Ring.slot_size t.cmpt_ring))
      else if
        List.exists
          (fun f -> Opendesc.Descparser.size f > Ring.slot_size t.tx_ring)
          model.spec.tx_formats
      then
        Error
          (Printf.sprintf
             "%s: a new TX descriptor format exceeds the provisioned ring slot \
              (%dB)"
             model.spec.nic_name (Ring.slot_size t.tx_ring))
      else begin
        t.model <- model;
        t.config <- config;
        t.active_path <- path;
        t.plan <- stage model path;
        t.tx_format <- smallest_tx model.spec;
        Ok ()
      end

let install_mark t flow mark = Hashtbl.replace t.env.flow_marks flow mark
let model t = t.model
let env t = t.env
let cmpt_ring t = t.cmpt_ring
let pkt_ring t = t.pkt_ring
let tx_ring t = t.tx_ring
let buf_size t = t.buf_size

(* The pooled injection primitive: the payload lives in the first [len]
   bytes of [buf] (which may be a reusable scratch buffer longer than the
   packet). Everything is staged through the preallocated [inj_slot] /
   [inj_cmpt] buffers and the active path's staged [plan], so injecting
   a packet allocates nothing beyond the [Pkt.t] wrapper and view the
   parser needs and what the semantic computations themselves box. *)
let rx_inject_raw t buf ~len =
  if len > t.buf_size || Ring.is_full t.pkt_ring || Ring.is_full t.cmpt_ring then begin
    t.drops <- t.drops + 1;
    false
  end
  else begin
    (* Packet buffer slot: 2-byte length prefix + data. *)
    Bytes.set_uint16_le t.inj_slot 0 len;
    Bytes.blit buf 0 t.inj_slot 2 len;
    let ok1 = Ring.produce_dev ~len:(len + 2) t.pkt_ring t.inj_slot in
    (* Completion record per the active path's layout. *)
    let layout = t.active_path.p_layout in
    Bytes.fill t.inj_cmpt 0 layout.size_bytes '\x00';
    let pkt = Packet.Pkt.sub buf ~len in
    let view = Packet.Pkt.parse pkt in
    let { writers; resolvers } = t.plan in
    for i = 0 to Array.length writers - 1 do
      writers.(i) t.inj_cmpt (resolvers.(i) t.env pkt view)
    done;
    let ok2 = Ring.produce_dev ~len:layout.size_bytes t.cmpt_ring t.inj_cmpt in
    assert (ok1 && ok2);
    t.rx_count <- t.rx_count + 1;
    true
  end

let rx_inject t pkt =
  rx_inject_raw t pkt.Packet.Pkt.buf ~len:pkt.Packet.Pkt.len

let rx_available t = Ring.available t.cmpt_ring

let rx_consume t =
  if Ring.is_empty t.cmpt_ring then None
  else begin
    let ok1 = Ring.consume_host_into t.cmpt_ring t.rx_scratch_cmpt in
    let ok2 = Ring.consume_host_into t.pkt_ring t.rx_scratch_pkt in
    (* rings advance in lockstep *)
    assert (ok1 && ok2);
    let len = Bytes.get_uint16_le t.rx_scratch_pkt 0 in
    let pkt = Bytes.sub t.rx_scratch_pkt 2 len in
    (* Trim the completion to the active layout size. *)
    let cmpt = Bytes.sub t.rx_scratch_cmpt 0 t.active_path.p_layout.size_bytes in
    Some (pkt, len, cmpt)
  end

let burst_create ?(capacity = 64) t =
  assert (capacity > 0);
  {
    bs_pkts = Array.init capacity (fun _ -> Bytes.create (Ring.slot_size t.pkt_ring));
    bs_lens = Array.make capacity 0;
    bs_cmpts = Array.init capacity (fun _ -> Bytes.create (Ring.slot_size t.cmpt_ring));
    bs_cmpt_lens = Array.make capacity 0;
    bs_count = 0;
  }

let burst_capacity b = Array.length b.bs_pkts

(* Harvest copies only the packet's [len] bytes out of its ring slot,
   past the 2-byte length prefix, so the payload lands at offset 0 like
   {!rx_consume}'s and a 64 B packet moves 64 bytes, not the slot. *)
let take_pkt t dst =
  let ring = t.pkt_ring in
  let mem = Dma.mem (Ring.dma ring) in
  let off = Ring.slot_offset ring (Ring.cons_index ring) in
  let len = Bytes.get_uint16_le mem off in
  Bytes.blit mem (off + 2) dst 0 len;
  let ok = Ring.release ring in
  assert ok;
  len

let rx_consume_batch t (b : burst) =
  b.bs_count <- 0;
  let n = min (burst_capacity b) (Ring.available t.cmpt_ring) in
  let cmpt_len = t.active_path.p_layout.size_bytes in
  for i = 0 to n - 1 do
    let ok = Ring.consume_host_into t.cmpt_ring b.bs_cmpts.(i) in
    (* rings advance in lockstep *)
    assert (ok && not (Ring.is_empty t.pkt_ring));
    b.bs_lens.(i) <- take_pkt t b.bs_pkts.(i);
    b.bs_cmpt_lens.(i) <- cmpt_len
  done;
  b.bs_count <- n;
  n

let tx_format t = t.tx_format
let set_tx_format t f = t.tx_format <- Some f

let tx_post t desc =
  let ok = Ring.produce_host t.tx_ring desc in
  if ok then t.doorbells <- t.doorbells + 1;
  ok

let tx_post_batch t descs =
  let posted = Ring.produce_host_batch t.tx_ring descs in
  if posted > 0 then t.doorbells <- t.doorbells + 1;
  posted

let tx_process t ~fetch =
  match t.tx_format with
  | None -> 0
  | Some fmt ->
      let addr_field = Opendesc.Descparser.field_for fmt "buf_addr" in
      let sent = ref 0 in
      (* The descriptor fetch reuses one scratch buffer: consuming a TX
         slot per packet must not allocate on the hot path. *)
      let rec drain () =
        if Ring.consume_dev_into t.tx_ring t.tx_scratch then begin
          (match addr_field with
          | Some f ->
              let addr =
                Opendesc.Accessor.reader ~bit_off:f.l_bit_off ~bits:f.l_bits
                  t.tx_scratch
              in
              (match fetch addr with
              | Some pkt ->
                  (* Device fetches the packet body over DMA. *)
                  t.tx_pkt_bytes_read <- t.tx_pkt_bytes_read + Packet.Pkt.len pkt;
                  t.tx_count <- t.tx_count + 1;
                  incr sent
              | None -> t.drops <- t.drops + 1)
          | None -> t.drops <- t.drops + 1);
          drain ()
        end
      in
      drain ();
      !sent

let rx_count t = t.rx_count
let tx_count t = t.tx_count
let drops t = t.drops
let doorbells t = t.doorbells

let dma_bytes t =
  Dma.dev_written_bytes (Ring.dma t.pkt_ring)
  + Dma.dev_written_bytes (Ring.dma t.cmpt_ring)
  + Dma.dev_read_bytes (Ring.dma t.tx_ring)
  + t.tx_pkt_bytes_read

let reset_counters t =
  t.rx_count <- 0;
  t.tx_count <- 0;
  t.drops <- 0;
  t.tx_pkt_bytes_read <- 0;
  t.doorbells <- 0;
  Dma.reset_counters (Ring.dma t.pkt_ring);
  Dma.reset_counters (Ring.dma t.cmpt_ring);
  Dma.reset_counters (Ring.dma t.tx_ring)
