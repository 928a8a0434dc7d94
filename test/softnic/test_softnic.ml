(* Tests for the software feature substrate: Toeplitz RSS against the
   Microsoft verification suite, CRC-32, KVS parsing, timestamps, each
   built-in feature's semantics, and the augmentation pipeline. *)

open Softnic

let check = Alcotest.check

let ai32 = Alcotest.int32
let ai64 = Alcotest.int64
let ab = Alcotest.bool

let flow4 ~src ~dst ~sp ~dp proto =
  Packet.Fivetuple.make ~src_ip:src ~dst_ip:dst ~src_port:sp ~dst_port:dp ~proto

(* ------------------------------------------------------------------ *)
(* Toeplitz: the Microsoft RSS verification suite vectors. *)

(* Vectors from the Microsoft RSS hash verification suite:
   row 1: 66.9.149.187:2794 -> 161.142.100.80:1766
   row 2: 199.92.111.2:14230 -> 65.69.140.83:4739 *)
let test_toeplitz_ms_vector_1 () =
  let f = flow4 ~src:0x420995bbl ~dst:0xa18e6450l ~sp:2794 ~dp:1766 Packet.Hdr.Proto.tcp in
  check ai32 "tcp 4-tuple" 0x51ccc178l (Toeplitz.hash_flow f)

let test_toeplitz_ms_vector_2 () =
  let f = flow4 ~src:0xc75c6f02l ~dst:0x41458c53l ~sp:14230 ~dp:4739 Packet.Hdr.Proto.tcp in
  check ai32 "tcp 4-tuple #2" 0xc626b0eal (Toeplitz.hash_flow f)

let test_toeplitz_2tuple_vectors () =
  check ai32 "ip-only #1" 0x323e8fc2l (Toeplitz.hash_ipv4_2tuple 0x420995bbl 0xa18e6450l);
  check ai32 "ip-only #2" 0xd718262al (Toeplitz.hash_ipv4_2tuple 0xc75c6f02l 0x41458c53l)

let test_toeplitz_symmetric_key () =
  (* With the 0x6d5a-repeated key, swapping src/dst (and ports) must give
     the same hash — the property RSS++-style systems rely on. *)
  let key = Toeplitz.symmetric_key in
  let a = flow4 ~src:0x0a000001l ~dst:0x0a000002l ~sp:1111 ~dp:2222 6 in
  let b = flow4 ~src:0x0a000002l ~dst:0x0a000001l ~sp:2222 ~dp:1111 6 in
  check ai32 "symmetric" (Toeplitz.hash_flow ~key a) (Toeplitz.hash_flow ~key b)

let test_toeplitz_pkt_consistency () =
  (* hash_pkt on a built TCP packet equals hash_flow of its tuple. *)
  let f = flow4 ~src:0x0a010203l ~dst:0xc0a80105l ~sp:4321 ~dp:443 Packet.Hdr.Proto.tcp in
  let pkt = Packet.Builder.ipv4 ~flow:f (Packet.Builder.Tcp { seq = 0l; flags = 0x10 }) in
  let v = Packet.Pkt.parse pkt in
  check ai32 "pkt == flow" (Toeplitz.hash_flow f) (Toeplitz.hash_pkt pkt v)

let test_toeplitz_ipv6 () =
  (* Microsoft verification suite row 1 for IPv6 with ports:
     3ffe:2501:200:1fff::7 : 2794 -> 3ffe:2501:200:3::1 : 1766
     -> hash 0x40207d3d *)
  let of_hex s =
    Bytes.init 16 (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))
  in
  let src = of_hex "3ffe250102001fff0000000000000007" in
  let dst = of_hex "3ffe2501020000030000000000000001" in
  check ai32 "ms ipv6 4-tuple" 0x40207d3dl
    (Toeplitz.hash_ipv6_flow ~src ~dst ~src_port:2794 ~dst_port:1766 ());
  (* hash_pkt routes ipv6 packets to the 36-byte input *)
  let pkt =
    Packet.Builder.ipv6 ~src ~dst ~src_port:2794 ~dst_port:1766
      (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  check ai32 "pkt == flow (v6)" 0x40207d3dl
    (Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt))

let test_toeplitz_nonip_is_zero () =
  let pkt = Packet.Builder.raw ~len:64 ~fill:'a' in
  check ai32 "non-ip" 0l (Toeplitz.hash_pkt pkt (Packet.Pkt.parse pkt))

let prop_toeplitz_flow_stable =
  QCheck.Test.make ~name:"toeplitz is per-flow stable" ~count:200
    QCheck.(quad int32 int32 (int_bound 65535) (int_bound 65535))
    (fun (src, dst, sp, dp) ->
      let f = flow4 ~src ~dst ~sp ~dp 6 in
      Int32.equal (Toeplitz.hash_flow f) (Toeplitz.hash_flow f))

(* The table-driven hash against the bit-serial oracle: the default key,
   the symmetric key and random 40-byte keys, over every input length a
   40-byte key admits (1-36: the IPv4 2- and 4-tuple inputs are 8 and 12
   bytes, the IPv6 4-tuple input 36). *)
let named_keys = [ Toeplitz.default_key; Toeplitz.symmetric_key ]

let gen_key_input =
  QCheck.Gen.(
    let* key =
      frequency
        [
          (1, oneofl (List.map Toeplitz.key_bytes named_keys));
          (2, map Bytes.of_string (string_size ~gen:char (return 40)));
        ]
    in
    let* len = frequency [ (1, oneofl [ 8; 12; 36 ]); (3, int_range 1 36) ] in
    let* input = string_size ~gen:char (return len) in
    return (key, Bytes.of_string input))

let arb_key_input =
  QCheck.make
    ~print:(fun (k, i) ->
      Printf.sprintf "key=%S input=%S" (Bytes.to_string k) (Bytes.to_string i))
    gen_key_input

let prop_toeplitz_table_matches_oracle =
  QCheck.Test.make ~name:"table toeplitz = bit-serial oracle" ~count:1000
    arb_key_input (fun (kb, input) ->
      Int32.equal
        (Toeplitz.hash ~key:(Toeplitz.key_of_bytes kb) input)
        (Toeplitz_oracle.hash kb input))

(* The structured entry points feed the same bytes the oracle sees. *)
let prop_toeplitz_inputs_match_oracle =
  QCheck.Test.make ~name:"toeplitz tuple inputs = oracle" ~count:300
    QCheck.(
      pair
        (quad int32 int32 (int_bound 65535) (int_bound 65535))
        (pair (string_of_size (Gen.return 32)) bool))
    (fun ((src, dst, sp, dp), (v6, symmetric)) ->
      let key = if symmetric then Toeplitz.symmetric_key else Toeplitz.default_key in
      let kb = Toeplitz.key_bytes key in
      let b4 = Bytes.create 12 in
      Bytes.set_int32_be b4 0 src;
      Bytes.set_int32_be b4 4 dst;
      Bytes.set_uint16_be b4 8 sp;
      Bytes.set_uint16_be b4 10 dp;
      let b6 = Bytes.create 36 in
      Bytes.blit_string v6 0 b6 0 32;
      Bytes.set_uint16_be b6 32 sp;
      Bytes.set_uint16_be b6 34 dp;
      let v6 = Bytes.of_string v6 in
      Int32.equal (Toeplitz.hash_flow ~key (flow4 ~src ~dst ~sp ~dp 6))
        (Toeplitz_oracle.hash kb b4)
      && Int32.equal (Toeplitz.hash_ipv4_2tuple ~key src dst)
           (Toeplitz_oracle.hash kb (Bytes.sub b4 0 8))
      && Int32.equal
           (Toeplitz.hash_ipv6_flow ~key ~src:(Bytes.sub v6 0 16)
              ~dst:(Bytes.sub v6 16 16) ~src_port:sp ~dst_port:dp ())
           (Toeplitz_oracle.hash kb b6))

let test_toeplitz_key_length_checked () =
  let short = Toeplitz.key_of_bytes (Bytes.make 12 'k') in
  check ai32 "8-byte input fits a 12-byte key" (Toeplitz_oracle.hash (Bytes.make 12 'k') (Bytes.make 8 'x'))
    (Toeplitz.hash ~key:short (Bytes.make 8 'x'));
  Alcotest.check_raises "9-byte input needs 13 key bytes"
    (Invalid_argument "Toeplitz: 9-byte input needs a key of at least 13 bytes (got 12)")
    (fun () -> ignore (Toeplitz.hash ~key:short (Bytes.make 9 'x')))

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let test_crc32_check_vector () =
  (* The canonical CRC-32 check value. *)
  let b = Bytes.of_string "123456789" in
  check ai32 "check vector" 0xCBF43926l (Crc32.digest b ~pos:0 ~len:9)

let test_crc32_empty () =
  check ai32 "empty" 0l (Crc32.digest Bytes.empty ~pos:0 ~len:0)

let test_crc32_differs_on_change () =
  let a = Bytes.of_string "hello world" in
  let b = Bytes.of_string "hello worle" in
  if Crc32.digest a ~pos:0 ~len:11 = Crc32.digest b ~pos:0 ~len:11 then
    Alcotest.fail "collision on single-byte change"

(* ------------------------------------------------------------------ *)
(* KVS *)

let udp_flow = flow4 ~src:1l ~dst:2l ~sp:1000 ~dp:11211 Packet.Hdr.Proto.udp

let test_kvs_extracts_key () =
  let pkt = Packet.Builder.kvs_get ~flow:udp_flow ~key:"session:42" in
  check (Alcotest.option Alcotest.string) "key" (Some "session:42")
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt))

let test_kvs_rejects_non_get () =
  let payload = Bytes.of_string "set foo 0 0 3\r\nbar\r\n" in
  let pkt = Packet.Builder.ipv4 ~payload ~flow:udp_flow Packet.Builder.Udp in
  check ab "set is not a get" true
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt) = None)

let test_kvs_rejects_tcp () =
  let flow = { udp_flow with Packet.Fivetuple.proto = Packet.Hdr.Proto.tcp } in
  let payload = Bytes.of_string "get x\r\n" in
  let pkt =
    Packet.Builder.ipv4 ~payload ~flow (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  check ab "kvs is udp-only here" true
    (Kvs.key_of_pkt pkt (Packet.Pkt.parse pkt) = None)

let test_kvs_empty_key () =
  check ab "empty key rejected" true
    (Kvs.key_of_payload (Bytes.of_string "get \r\n") ~pos:0 ~len:6 = None)

let test_kvs_fold_key () =
  check ai64 "short key left-aligned" 0x6162000000000000L (Kvs.fold_key "ab");
  check ai64 "8-byte key" 0x6161616161616161L (Kvs.fold_key "aaaaaaaa");
  check ai64 "long key truncated" (Kvs.fold_key "aaaaaaaa") (Kvs.fold_key "aaaaaaaabcd");
  check ai64 "empty" 0L (Kvs.fold_key "")

(* ------------------------------------------------------------------ *)
(* Tstamp *)

let test_tstamp_monotonic () =
  let c = Tstamp.create () in
  let a = Tstamp.now c in
  let b = Tstamp.now c in
  check ab "strictly increasing" true (Int64.compare b a > 0)

let test_tstamp_peek_does_not_advance () =
  let c = Tstamp.create () in
  let _ = Tstamp.now c in
  check ai64 "peek stable" (Tstamp.peek c) (Tstamp.peek c)

(* ------------------------------------------------------------------ *)
(* Features *)

let env () = Feature.make_env ()

let tcp_pkt =
  Packet.Builder.ipv4 ~vlan:77 ~ip_id:0x4242 ~l4_csum:true
    ~payload:(Bytes.make 16 'd')
    ~flow:(flow4 ~src:0x0a000001l ~dst:0xc0a80001l ~sp:5555 ~dp:80 Packet.Hdr.Proto.tcp)
    (Packet.Builder.Tcp { seq = 9l; flags = 0x18 })

let run feature pkt = Feature.apply feature (env ()) pkt

let test_feature_rss () =
  let expected =
    Toeplitz.hash_flow
      (flow4 ~src:0x0a000001l ~dst:0xc0a80001l ~sp:5555 ~dp:80 Packet.Hdr.Proto.tcp)
  in
  check ai64 "rss == toeplitz" (Int64.logand (Int64.of_int32 expected) 0xFFFFFFFFL)
    (run Registry.rss tcp_pkt)

let test_feature_vlan () = check ai64 "vlan tci" 77L (run Registry.vlan tcp_pkt)

let test_feature_pkt_len () =
  check ai64 "pkt_len" (Int64.of_int (Packet.Pkt.len tcp_pkt))
    (run Registry.pkt_len tcp_pkt)

let test_feature_ip_id () = check ai64 "ip_id" 0x4242L (run Registry.ip_id tcp_pkt)

let test_feature_l3_l4_types () =
  check ai64 "l3 ipv4" 1L (run Registry.l3_type tcp_pkt);
  check ai64 "l4 tcp" 1L (run Registry.l4_type tcp_pkt);
  let raw = Packet.Builder.raw ~len:60 ~fill:'x' in
  check ai64 "l3 none" 0L (run Registry.l3_type raw);
  check ai64 "l4 none" 0L (run Registry.l4_type raw)

let test_feature_rss_type () =
  check ai64 "tcp4" 2L (run Registry.rss_type tcp_pkt);
  let udp = Packet.Builder.ipv4 ~flow:udp_flow Packet.Builder.Udp in
  check ai64 "udp4" 3L (run Registry.rss_type udp)

let test_feature_csum_ok_good_and_bad () =
  check ai64 "valid packet" 1L (run Registry.csum_ok tcp_pkt);
  let bad = Packet.Builder.corrupt_ipv4_checksum tcp_pkt in
  check ai64 "corrupted packet" 0L (run Registry.csum_ok bad)

let test_feature_ip_checksum_matches_stored () =
  (* For a well-formed packet the computed value equals the stored one. *)
  let v = Packet.Pkt.parse tcp_pkt in
  check ai64 "computed == stored"
    (Int64.of_int (Packet.Pkt.ipv4_hdr_checksum tcp_pkt v))
    (run Registry.ip_checksum tcp_pkt)

let test_feature_kvs_key () =
  let pkt = Packet.Builder.kvs_get ~flow:udp_flow ~key:"k1" in
  check ai64 "kvs key folded" (Kvs.fold_key "k1") (run Registry.kvs_key pkt)

let test_feature_mark_uses_table () =
  let e = env () in
  let f = flow4 ~src:9l ~dst:10l ~sp:1 ~dp:2 Packet.Hdr.Proto.udp in
  let pkt = Packet.Builder.ipv4 ~flow:f Packet.Builder.Udp in
  check ai64 "no mark" 0L (Feature.apply Registry.mark e pkt);
  Hashtbl.replace e.flow_marks f 0xFEEDl;
  check ai64 "mark installed" 0xFEEDL (Feature.apply Registry.mark e pkt)

let test_feature_lro_num_seg () =
  check ai64 "single segment" 1L (run Registry.lro_num_seg tcp_pkt)

let test_feature_tunnel_vni () =
  let inner =
    Packet.Builder.ipv4
      ~flow:(flow4 ~src:1l ~dst:2l ~sp:10 ~dp:20 Packet.Hdr.Proto.tcp)
      (Packet.Builder.Tcp { seq = 0l; flags = 0 })
  in
  let outer = flow4 ~src:3l ~dst:4l ~sp:40000 ~dp:4789 Packet.Hdr.Proto.udp in
  let pkt = Packet.Builder.vxlan ~vni:0xABCDE ~outer_flow:outer ~inner in
  check ai64 "vni extracted" 0xABCDEL (run Registry.tunnel_vni pkt);
  (* non-vxlan traffic reads 0 *)
  check ai64 "plain tcp is 0" 0L (run Registry.tunnel_vni tcp_pkt)

let test_feature_flow_pkts_stateful () =
  let e = env () in
  let f1 = flow4 ~src:1l ~dst:2l ~sp:10 ~dp:20 Packet.Hdr.Proto.tcp in
  let f2 = { f1 with Packet.Fivetuple.src_port = 11 } in
  let p1 = Packet.Builder.ipv4 ~flow:f1 (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
  let p2 = Packet.Builder.ipv4 ~flow:f2 (Packet.Builder.Tcp { seq = 0l; flags = 0 }) in
  check ai64 "first of flow1" 1L (Feature.apply Registry.flow_pkts e p1);
  check ai64 "second of flow1" 2L (Feature.apply Registry.flow_pkts e p1);
  check ai64 "first of flow2" 1L (Feature.apply Registry.flow_pkts e p2);
  check ai64 "third of flow1" 3L (Feature.apply Registry.flow_pkts e p1);
  (* non-flow traffic does not count *)
  check ai64 "raw frame" 0L
    (Feature.apply Registry.flow_pkts e (Packet.Builder.raw ~len:64 ~fill:'n'))

let test_feature_crc_matches_crc32 () =
  check ai64 "crc == crc32 of frame"
    (Int64.logand (Int64.of_int32 (Crc32.of_pkt tcp_pkt)) 0xFFFFFFFFL)
    (run Registry.crc tcp_pkt)

let test_feature_timestamp_monotonic () =
  let e = env () in
  let a = Feature.apply Registry.timestamp e tcp_pkt in
  let b = Feature.apply Registry.timestamp e tcp_pkt in
  check ab "monotonic" true (Int64.compare b a > 0)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_builtin_complete () =
  let r = Registry.builtin () in
  List.iter
    (fun (f : Feature.t) ->
      if not (Registry.mem r f.semantic) then
        Alcotest.failf "builtin registry missing %s" f.semantic)
    Registry.all

let test_registry_register_replaces () =
  let r = Registry.empty () in
  Registry.register r Registry.rss;
  let custom = { Registry.rss with cost_cycles = 1.0 } in
  Registry.register r custom;
  match Registry.find r "rss" with
  | Some f -> check (Alcotest.float 0.01) "replaced" 1.0 f.cost_cycles
  | None -> Alcotest.fail "missing after register"

let test_registry_names_sorted () =
  let r = Registry.builtin () in
  let names = Registry.names r in
  check ab "sorted" true (List.sort String.compare names = names)

(* ------------------------------------------------------------------ *)
(* Pipeline *)

let test_pipeline_runs_in_order () =
  let p = Pipeline.create [ Registry.vlan; Registry.pkt_len ] in
  match Pipeline.run p tcp_pkt with
  | [ ("vlan", v); ("pkt_len", l) ] ->
      check ai64 "vlan" 77L v;
      check ai64 "len" (Int64.of_int (Packet.Pkt.len tcp_pkt)) l
  | other -> Alcotest.failf "unexpected results (%d entries)" (List.length other)

let test_pipeline_of_semantics_ok () =
  let r = Registry.builtin () in
  match Pipeline.of_semantics r [ "rss"; "vlan" ] with
  | Ok p ->
      check (Alcotest.list Alcotest.string) "semantics" [ "rss"; "vlan" ]
        (Pipeline.semantics p)
  | Error e -> Alcotest.failf "unexpected error %s" e

let test_pipeline_of_semantics_missing () =
  let r = Registry.builtin () in
  match Pipeline.of_semantics r [ "rss"; "wire_timestamp" ] with
  | Ok _ -> Alcotest.fail "wire_timestamp should have no software implementation"
  | Error s -> check Alcotest.string "names the culprit" "wire_timestamp" s

let test_pipeline_cost_is_sum () =
  let p = Pipeline.create [ Registry.rss; Registry.vlan ] in
  check (Alcotest.float 0.01) "cost"
    (Registry.rss.cost_cycles +. Registry.vlan.cost_cycles)
    (Pipeline.cost_cycles p)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =

  Alcotest.run "softnic"
    [
      ( "toeplitz",
        [
          Alcotest.test_case "MS vector 1" `Quick test_toeplitz_ms_vector_1;
          Alcotest.test_case "MS vector 2" `Quick test_toeplitz_ms_vector_2;
          Alcotest.test_case "MS 2-tuple vectors" `Quick test_toeplitz_2tuple_vectors;
          Alcotest.test_case "symmetric key" `Quick test_toeplitz_symmetric_key;
          Alcotest.test_case "pkt == flow" `Quick test_toeplitz_pkt_consistency;
          Alcotest.test_case "ipv6 MS vector" `Quick test_toeplitz_ipv6;
          Alcotest.test_case "non-ip is 0" `Quick test_toeplitz_nonip_is_zero;
          Alcotest.test_case "key length checked" `Quick test_toeplitz_key_length_checked;
        ]
        @ qsuite
            [
              prop_toeplitz_flow_stable;
              prop_toeplitz_table_matches_oracle;
              prop_toeplitz_inputs_match_oracle;
            ] );
      ( "crc32",
        [
          Alcotest.test_case "check vector" `Quick test_crc32_check_vector;
          Alcotest.test_case "empty" `Quick test_crc32_empty;
          Alcotest.test_case "sensitivity" `Quick test_crc32_differs_on_change;
        ] );
      ( "kvs",
        [
          Alcotest.test_case "extracts key" `Quick test_kvs_extracts_key;
          Alcotest.test_case "rejects non-get" `Quick test_kvs_rejects_non_get;
          Alcotest.test_case "rejects tcp" `Quick test_kvs_rejects_tcp;
          Alcotest.test_case "empty key" `Quick test_kvs_empty_key;
          Alcotest.test_case "fold_key" `Quick test_kvs_fold_key;
        ] );
      ( "tstamp",
        [
          Alcotest.test_case "monotonic" `Quick test_tstamp_monotonic;
          Alcotest.test_case "peek" `Quick test_tstamp_peek_does_not_advance;
        ] );
      ( "features",
        [
          Alcotest.test_case "rss" `Quick test_feature_rss;
          Alcotest.test_case "vlan" `Quick test_feature_vlan;
          Alcotest.test_case "pkt_len" `Quick test_feature_pkt_len;
          Alcotest.test_case "ip_id" `Quick test_feature_ip_id;
          Alcotest.test_case "l3/l4 types" `Quick test_feature_l3_l4_types;
          Alcotest.test_case "rss_type" `Quick test_feature_rss_type;
          Alcotest.test_case "csum_ok" `Quick test_feature_csum_ok_good_and_bad;
          Alcotest.test_case "ip_checksum" `Quick test_feature_ip_checksum_matches_stored;
          Alcotest.test_case "kvs_key" `Quick test_feature_kvs_key;
          Alcotest.test_case "mark table" `Quick test_feature_mark_uses_table;
          Alcotest.test_case "lro_num_seg" `Quick test_feature_lro_num_seg;
          Alcotest.test_case "tunnel_vni" `Quick test_feature_tunnel_vni;
          Alcotest.test_case "flow_pkts stateful" `Quick test_feature_flow_pkts_stateful;
          Alcotest.test_case "crc" `Quick test_feature_crc_matches_crc32;
          Alcotest.test_case "timestamp" `Quick test_feature_timestamp_monotonic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "builtin complete" `Quick test_registry_builtin_complete;
          Alcotest.test_case "register replaces" `Quick test_registry_register_replaces;
          Alcotest.test_case "names sorted" `Quick test_registry_names_sorted;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "runs in order" `Quick test_pipeline_runs_in_order;
          Alcotest.test_case "of_semantics ok" `Quick test_pipeline_of_semantics_ok;
          Alcotest.test_case "of_semantics missing" `Quick
            test_pipeline_of_semantics_missing;
          Alcotest.test_case "cost is sum" `Quick test_pipeline_cost_is_sum;
        ] );
    ]
