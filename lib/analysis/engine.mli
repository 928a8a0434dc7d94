(** The descriptor-contract verifier: a multi-pass static analysis over
    a typechecked P4 NIC description, producing structured, located
    {!Diagnostic.t} values instead of strings.

    Passes (each diagnostic code is documented in docs/LINTS.md):
    - {b layout safety} — abstract interpretation of the completion
      deparser computes per-path emit offsets and bounds (OD003–OD006);
    - {b path feasibility} — branch predicates are decided over the
      context-field domains to find dead emits, constant predicates and
      inert context fields (OD007–OD009);
    - {b contract consistency} — the TX parser, RX deparser and the
      semantic registry are cross-checked (OD010–OD015);
    - {b codegen verification} — every accessor the C and eBPF emitters
      would synthesize is checked to read strictly inside [Size(p)] in
      constant time (OD016–OD017).

    The engine depends only on the [p4] library; the semantic registry
    is abstracted behind {!Registry_view.t}. *)

type input = {
  in_tenv : P4.Typecheck.t;
  in_catalogue : Catalogue.t option;
      (** the completion catalogue of a loaded description, or [None] to
          locate the deparser and build it (an unlocatable deparser
          yields OD002 unless the program declares an intent header,
          which has none by design) *)
  in_desc_parser : P4.Typecheck.parser_def option;
  in_registry : Registry_view.t;
  in_intent : (string * int) list option;
      (** requested [(semantic, width)] pairs to cross-check (OD015) *)
  in_line_offset : int;
      (** prelude lines to subtract from every span; diagnostics landing
          inside the prelude lose their location *)
}

val analyze : input -> Diagnostic.t list
(** Run all passes. The result is deduplicated, relocated by
    [in_line_offset] and sorted by source position. *)

val analyze_program :
  registry:Registry_view.t ->
  ?intent:(string * int) list ->
  ?line_offset:int ->
  P4.Typecheck.t ->
  Diagnostic.t list
(** [analyze] with the deparser and TX descriptor parser located
    automatically. *)

val analyze_source :
  registry:Registry_view.t ->
  ?intent:(string * int) list ->
  ?prelude:string ->
  string ->
  Diagnostic.t list
(** Parse and typecheck [prelude ^ src], then analyze. Parse and type
    errors become a single OD001 diagnostic (located when possible)
    rather than an exception. *)

val check_accessor_bounds :
  ?path_desc:string -> size_bytes:int -> Layout.lfield list -> Diagnostic.t list
(** The codegen verification step in isolation: flag accessors that read
    bytes outside [size_bytes] (OD016) and semantic fields wider than
    64 bits, whose accessors degenerate to a constant 0 (OD017).
    Exposed for unit testing against hand-built layouts. *)

val failing : werror:bool -> Diagnostic.t list -> bool
(** [true] if the list contains an error, or — with [~werror:true] — a
    warning. Info diagnostics never fail. *)

val is_intent_header : P4.Typecheck.header_def -> bool
(** A header tagged [@intent] or whose name contains ["intent"]. *)
