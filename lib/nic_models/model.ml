type t = {
  spec : Opendesc.Nic_spec.t;
  resolve :
    Opendesc.Path.lfield ->
    Softnic.Feature.env ->
    Packet.Pkt.t ->
    Packet.Pkt.view ->
    int64;
}

let feature semantic width_bits compute =
  { Softnic.Feature.semantic; width_bits; cost_cycles = 0.0; compute }

(* Device-side implementations of semantics the host cannot reproduce. *)
let wire_timestamp =
  (* A PHC reading: reuse the env clock but at a finer notional
     granularity; what matters to experiments is monotonicity. *)
  feature "wire_timestamp" 64 (fun env _ _ -> Softnic.Tstamp.now env.clock)

let inline_crypto_tag =
  (* Stand-in for an inline-crypto accelerator: a keyed digest of the
     payload the host-side shims have no key material to compute. *)
  feature "inline_crypto_tag" 64 (fun _ pkt _ ->
      let crc = Softnic.Crc32.of_pkt pkt in
      let lo = Int64.logand (Int64.of_int32 crc) 0xFFFFFFFFL in
      Int64.logor (Int64.shift_left lo 32) (Int64.logxor lo 0x5A5A5A5AL))

let regex_match_id =
  (* Stand-in for a RegEx accelerator: rule 1 fires on payloads containing
     "GET", rule 2 on "POST", else 0. *)
  feature "regex_match_id" 32 (fun _ pkt (v : Packet.Pkt.view) ->
      let hay =
        if v.payload_off >= 0 && v.payload_off < pkt.len then
          Bytes.sub_string pkt.buf v.payload_off (pkt.len - v.payload_off)
        else ""
      in
      let contains needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      if contains "get " || contains "GET " then 1L
      else if contains "POST " then 2L
      else 0L)

let hardware_registry () =
  let r = Softnic.Registry.builtin () in
  Softnic.Registry.register r wire_timestamp;
  Softnic.Registry.register r inline_crypto_tag;
  Softnic.Registry.register r regex_match_id;
  r

let default_constants =
  [ ("status", 1L); ("op_own", 1L); ("owner", 1L); ("dd", 1L); ("generation", 1L) ]

let constant v _ _ _ = v

let resolve_with registry constants (f : Opendesc.Path.lfield) =
  match f.l_semantic with
  | Some s -> (
      match Softnic.Registry.find registry s with
      | Some feature -> feature.compute
      | None -> constant 0L)
  | None -> constant (Option.value ~default:0L (List.assoc_opt f.l_name constants))

let make ?(constants = default_constants) ?registry spec =
  let registry = match registry with Some r -> r | None -> hardware_registry () in
  { spec; resolve = resolve_with registry constants }
