(** Toeplitz hash, the de-facto RSS algorithm.

    Implements the Microsoft RSS specification: the hash of an input byte
    string under a 40-byte key, where input bit [i] being set XORs in the
    32-bit key window starting at bit [i]. Verified against the published
    test vectors (see the softnic test suite).

    The hash is table-driven: a key is built once into 256-entry lookup
    tables per input byte position, so hashing costs one table XOR per
    input byte. *)

type key
(** A secret key (40 bytes for the standard inputs) together with its
    lookup tables. Immutable; safe to share across domains. *)

val key_of_bytes : bytes -> key
(** Build a key and its tables from raw key bytes (copied). A key of [K]
    bytes hashes inputs of at most [K - 4] bytes. *)

val key_bytes : key -> bytes
(** A fresh copy of the raw key bytes. *)

val default_key : key
(** The widely-deployed "Microsoft standard" verification key. *)

val symmetric_key : key
(** A key of repeated 0x6d5a bytes, making the hash symmetric in
    src/dst — what RSS++-style load balancers deploy. *)

val hash : ?key:key -> bytes -> int32
(** [hash input] over arbitrary input bytes. Default key: {!default_key}.
    @raise Invalid_argument when the key is shorter than the input plus
    4 bytes (every function here checks its input length the same way). *)

val hash_ipv4_2tuple : ?key:key -> int32 -> int32 -> int32
(** [hash_ipv4_2tuple src dst] is the RSS "IPv4" (address-only) input. *)

val hash_flow : ?key:key -> Packet.Fivetuple.t -> int32
(** 4-tuple hash (src IP, dst IP, src port, dst port) of a flow — the RSS
    "TCP/UDP over IPv4" input. *)

val hash_ipv6_flow :
  ?key:key -> src:bytes -> dst:bytes -> src_port:int -> dst_port:int -> unit -> int32
(** RSS "TCP/UDP over IPv6" input: 16-byte addresses then ports. *)

val hash_pkt : ?key:key -> Packet.Pkt.t -> Packet.Pkt.view -> int32
(** RSS hash of a packet: 4-tuple for IPv4 TCP/UDP, 2-tuple for other
    IPv4, 4-tuple over the 16-byte addresses for IPv6 TCP/UDP, and [0l]
    for non-IP (what NICs report for unhashable frames). *)
