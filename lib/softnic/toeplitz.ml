(* A key carries its per-byte-position lookup tables (DPDK rte_thash
   style): entry [(p lsl 8) lor v] is the XOR of the 32-bit key windows
   selected by the set bits of byte value [v] at input position [p].
   Hashing is then one table XOR per input byte instead of one window
   extraction per input bit. Keys are immutable once built, so the
   tables are shared freely (across devices and domains). The tables
   live outside the OCaml heap (1 KiB per input byte position), so they
   do not change how often the major GC runs. *)
type key = {
  bytes : bytes;
  tables : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
  max_input : int;
}

(* For each set bit i of the input (MSB-first), the Microsoft RSS spec
   XORs in the 32-bit window of the key starting at key bit i. *)
let key_of_bytes b =
  let bytes = Bytes.copy b in
  let max_input = max 0 (Bytes.length bytes - 4) in
  let tables = Bigarray.(Array1.create int32 c_layout (max_input * 256)) in
  Bigarray.Array1.fill tables 0l;
  for p = 0 to max_input - 1 do
    for bit = 0 to 7 do
      let window =
        Int64.to_int32
          (Packet.Bitops.get_bits bytes ~bit_off:((8 * p) + bit) ~width:32)
      in
      let m = 1 lsl (7 - bit) in
      for v = 0 to 255 do
        let i = (p lsl 8) lor v in
        if v land m <> 0 then tables.{i} <- Int32.logxor tables.{i} window
      done
    done
  done;
  { bytes; tables; max_input }

let key_bytes k = Bytes.copy k.bytes

(* Microsoft RSS verification suite key (40 bytes). *)
let default_key =
  key_of_bytes
    (Bytes.of_string
       "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\x6a\x42\xb7\x3b\xbe\xac\x01\xfa")

let symmetric_key =
  key_of_bytes (Bytes.init 40 (fun i -> if i mod 2 = 0 then '\x6d' else '\x5a'))

(* The key-length check: an input byte at position p needs key bits up
   to 8p + 38, so a key of K bytes hashes at most K - 4 input bytes. *)
let check_len k n =
  if n > k.max_input then
    invalid_arg
      (Printf.sprintf "Toeplitz: %d-byte input needs a key of at least %d bytes (got %d)"
         n (n + 4) (Bytes.length k.bytes))

(* The accumulator holds the sign-extended 32-bit hash: XOR commutes
   with sign extension, so [finish] recovers it exactly. *)
let[@inline] step k acc pos byte =
  acc lxor Int32.to_int (Bigarray.Array1.unsafe_get k.tables ((pos lsl 8) lor byte))

(* [n] input bytes of [buf] from [off], placed at input position [pos]. *)
let fold_bytes k acc ~pos buf ~off n =
  let acc = ref acc in
  for i = 0 to n - 1 do
    acc := step k !acc (pos + i) (Bytes.get_uint8 buf (off + i))
  done;
  !acc

let[@inline] fold_u16 k acc ~pos v =
  step k (step k acc pos ((v lsr 8) land 0xff)) (pos + 1) (v land 0xff)

let[@inline] fold_u32 k acc ~pos (v : int32) =
  let v = Int32.to_int v in
  fold_u16 k (fold_u16 k acc ~pos ((v lsr 16) land 0xffff)) ~pos:(pos + 2) (v land 0xffff)

let finish acc = Int32.of_int acc

let hash ?(key = default_key) input =
  let n = Bytes.length input in
  check_len key n;
  finish (fold_bytes key 0 ~pos:0 input ~off:0 n)

let hash_ipv4_2tuple ?(key = default_key) src dst =
  check_len key 8;
  finish (fold_u32 key (fold_u32 key 0 ~pos:0 src) ~pos:4 dst)

let hash_flow ?(key = default_key) (f : Packet.Fivetuple.t) =
  check_len key 12;
  let acc = fold_u32 key (fold_u32 key 0 ~pos:0 f.src_ip) ~pos:4 f.dst_ip in
  finish (fold_u16 key (fold_u16 key acc ~pos:8 f.src_port) ~pos:10 f.dst_port)

let hash_ipv6_flow ?(key = default_key) ~src ~dst ~src_port ~dst_port () =
  assert (Bytes.length src = 16 && Bytes.length dst = 16);
  check_len key 36;
  let acc =
    fold_bytes key (fold_bytes key 0 ~pos:0 src ~off:0 16) ~pos:16 dst ~off:0 16
  in
  finish (fold_u16 key (fold_u16 key acc ~pos:32 src_port) ~pos:34 dst_port)

(* The packet forms read their inputs straight out of the packet buffer:
   IPv4 source and destination are the 8 contiguous bytes at l3 + 12,
   IPv6 ones the 32 at l3 + 8; ports come from the parsed view. *)
let hash_pkt ?(key = default_key) (pkt : Packet.Pkt.t) (v : Packet.Pkt.view) =
  let l4 =
    v.l4_off >= 0
    && (v.l4_proto = Packet.Hdr.Proto.tcp || v.l4_proto = Packet.Hdr.Proto.udp)
  in
  if v.is_ipv4 then begin
    if l4 then begin
      check_len key 12;
      let acc = fold_bytes key 0 ~pos:0 pkt.buf ~off:(v.l3_off + 12) 8 in
      finish (fold_u16 key (fold_u16 key acc ~pos:8 v.src_port) ~pos:10 v.dst_port)
    end
    else begin
      check_len key 8;
      finish (fold_bytes key 0 ~pos:0 pkt.buf ~off:(v.l3_off + 12) 8)
    end
  end
  else if v.is_ipv6 && l4 then begin
    check_len key 36;
    let acc = fold_bytes key 0 ~pos:0 pkt.buf ~off:(v.l3_off + 8) 32 in
    finish (fold_u16 key (fold_u16 key acc ~pos:32 v.src_port) ~pos:34 v.dst_port)
  end
  else 0l
