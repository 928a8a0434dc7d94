(** TX descriptor parser analysis (Figure 3's DescParser).

    The dual of completion path enumeration ({!Catalogue}): where the
    completion deparser serialises metadata toward the host, the
    descriptor parser interprets the TX descriptors
    the host posts. We enumerate the descriptor {e formats} the NIC
    accepts by executing the parser's state machine under every context
    assignment, following [extract] calls on the [desc_in] parameter and
    context-decidable [select] transitions.

    The host stub uses the resulting layouts to build TX descriptors the
    device will parse correctly. *)

type t = {
  d_index : int;
  d_extracts : (string * P4.Typecheck.header_def) list;
      (** (destination lvalue, extracted header) in stream order *)
  d_layout : Layout.t;
  d_assignments : Context.assignment list;
}

val size : t -> int

val field_for : t -> string -> Layout.lfield option
(** First layout field with the given semantic. *)

val is_desc_parser : P4.Typecheck.parser_def -> bool
(** The parser takes a [desc_in] parameter. *)

val enumerate :
  P4.Typecheck.t -> P4.Typecheck.parser_def -> (t list, string) result
(** Errors on: missing [desc_in] parameter or [start] state, select
    scrutinees not decidable from the context, state cycles, or
    non-byte-aligned extracted headers. *)

val pp : Format.formatter -> t -> unit
