(* A complete network function on the OpenDesc runtime: an L4 load
   balancer that uses the whole negotiated surface —

   RX:  csum_ok  to drop corrupted packets,
        rss      to pick a backend (consistent per connection),
        mark     to pin flows the operator overrides (rte_flow-style),
        pkt_len  for byte accounting;
   TX:  a TX intent {vlan} so forwarded packets carry the backend's VLAN,
        using the compiler-selected TX descriptor format.

   The same code compiles against any catalogue NIC; change [nic_name]
   below and nothing else.

   Run with: dune exec examples/load_balancer.exe *)

let nic_name = "mlx5-connectx"
let backends = [| (9001, 101); (9002, 102); (9003, 103) |] (* (id, vlan) *)

let () =
  let models = Nic_models.Catalog.all () in
  let model = Option.get (Nic_models.Catalog.find nic_name models) in

  (* Negotiate both directions. *)
  let intent =
    Opendesc.Intent.make
      [ ("csum_ok", 1); ("rss", 32); ("mark", 32); ("pkt_len", 16) ]
  in
  let tx_intent = Opendesc.Intent.make [ ("vlan", 16) ] in
  let compiled = Opendesc.Compile.run_exn ~alpha:0.05 ~tx_intent ~intent model.spec in
  print_endline (Opendesc.Report.summary_line compiled);
  (match compiled.tx_missing with
  | [] -> print_endline "tx: vlan insertion offloaded to the descriptor"
  | ms ->
      Printf.printf "tx: %s must be applied in software before posting\n"
        (String.concat "," ms));

  let device = Driver.Device.create_exn ~queue_depth:2048 ~config:compiled.config model in

  (* Operator pins one flow to backend 0 regardless of its hash. *)
  let pinned =
    Packet.Fivetuple.make ~src_ip:0x0a00BEEFl ~dst_ip:0xc0a80001l ~src_port:7777
      ~dst_port:80 ~proto:Packet.Hdr.Proto.tcp
  in
  Driver.Device.install_mark device pinned 1l (* mark = backend idx + 1 *);

  let env = Softnic.Feature.make_env () in
  let read sem buf len cmpt =
    match List.assoc sem compiled.bindings with
    | Opendesc.Compile.Hardware a -> a.a_get cmpt
    | Opendesc.Compile.Software f ->
        let p = Packet.Pkt.sub buf ~len in
        f.compute env p (Packet.Pkt.parse p)
  in

  (* Traffic: a normal mix plus the pinned flow plus corrupted frames. *)
  let w = Packet.Workload.make ~seed:2024L ~flows:32 Packet.Workload.Min_size in
  let bytes_to = Array.make (Array.length backends) 0 in
  let dropped = ref 0 and pinned_hits = ref 0 in
  let tx_fetches = Hashtbl.create 64 in
  let tx_key = ref 0L in
  let fmt = Option.get (Driver.Device.tx_format device) in
  let vlan_writer = Opendesc.Compile.tx_writer compiled "vlan" in
  for i = 1 to 1024 do
    let pkt =
      if i mod 13 = 0 then
        Packet.Builder.ipv4 ~flow:pinned (Packet.Builder.Tcp { seq = 0l; flags = 0x10 })
      else if i mod 17 = 0 then
        Packet.Builder.corrupt_ipv4_checksum (Packet.Workload.next w)
      else Packet.Workload.next w
    in
    assert (Driver.Device.rx_inject device pkt);
    match Driver.Device.rx_consume device with
    | None -> assert false
    | Some (buf, len, cmpt) ->
        if read "csum_ok" buf len cmpt <> 1L then incr dropped
        else begin
          let mark = read "mark" buf len cmpt in
          let backend =
            if mark <> 0L then begin
              incr pinned_hits;
              Int64.to_int mark - 1
            end
            else Int64.to_int (read "rss" buf len cmpt) mod Array.length backends
          in
          bytes_to.(backend) <-
            bytes_to.(backend) + Int64.to_int (read "pkt_len" buf len cmpt);
          (* Forward: build a TX descriptor in the negotiated format with
             the backend's VLAN. *)
          let desc = Bytes.make (Opendesc_analysis.Descparser.size fmt) '\x00' in
          let addr = Option.get (Opendesc_analysis.Descparser.field_for fmt "buf_addr") in
          Opendesc.Accessor.writer ~bit_off:addr.l_bit_off ~bits:addr.l_bits desc
            !tx_key;
          (match vlan_writer with
          | Some write -> write desc (Int64.of_int (snd backends.(backend)))
          | None -> () (* software vlan insertion would rewrite the frame *));
          Hashtbl.replace tx_fetches !tx_key (Packet.Pkt.sub buf ~len);
          tx_key := Int64.add !tx_key 1L;
          ignore (Driver.Device.tx_post device desc)
        end
  done;
  let sent =
    Driver.Device.tx_process device ~fetch:(fun k -> Hashtbl.find_opt tx_fetches k)
  in
  Printf.printf "\nforwarded %d packets, dropped %d corrupted, %d pinned-flow hits\n"
    sent !dropped !pinned_hits;
  Array.iteri
    (fun i b ->
      Printf.printf "  backend %d (vlan %d): %6d bytes\n" (fst backends.(i))
        (snd backends.(i))
        b)
    bytes_to;
  Printf.printf "device DMA total: %d bytes across %d rx / %d tx packets\n"
    (Driver.Device.dma_bytes device)
    (Driver.Device.rx_count device)
    (Driver.Device.tx_count device)
