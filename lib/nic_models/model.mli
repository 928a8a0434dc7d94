(** Behavioural NIC models.

    A model pairs a NIC's OpenDesc interface description (its P4 source,
    checked and analysed) with the device-side behaviour: given a received
    packet and a completion-layout field, produce the value the hardware
    would write. Semantics are computed with the same reference
    implementations the SoftNIC shims use — the point of the simulation is
    layout and cost behaviour, not reimplementing vendor silicon — but on
    the device they are "free": the driver simulator does not charge CPU
    cycles for them.

    Models also resolve hardware-only semantics (wire timestamps,
    accelerator results) that no software shim can provide.

    Resolution is staged: [resolve field] does every per-field lookup
    (registry, constant table) once and returns the per-packet function,
    so a device builds its completion writer for the active path once
    and pays only the semantic computations per packet. *)

type t = {
  spec : Opendesc.Nic_spec.t;
  resolve :
    Opendesc.Path.lfield ->
    Softnic.Feature.env ->
    Packet.Pkt.t ->
    Packet.Pkt.view ->
    int64;
}

val hardware_registry : unit -> Softnic.Registry.t
(** The softnic builtins plus device-side implementations of the
    hardware-only semantics ([wire_timestamp], [inline_crypto_tag],
    [regex_match_id]). *)

val resolve_with : Softnic.Registry.t -> (string * int64) list ->
  Opendesc.Path.lfield ->
  Softnic.Feature.env -> Packet.Pkt.t -> Packet.Pkt.view -> int64
(** Standard resolution: a field with a semantic is computed by the
    registry implementation; otherwise the field name is looked up in the
    constant table (status/ownership bits); otherwise 0. Both lookups
    happen when the field is applied, before any packet. *)

val make :
  ?constants:(string * int64) list ->
  ?registry:Softnic.Registry.t ->
  Opendesc.Nic_spec.t ->
  t
(** Model with {!resolve_with}. The default constant table sets
    [status]/[op_own]-style fields to 1; the default registry is
    {!hardware_registry}. Pass a registry extended with the reference
    implementations of any custom semantics a programmable pipeline is
    supposed to compute. *)
