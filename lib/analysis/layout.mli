(** Absolute field layouts: the headers of one emit (or extract)
    sequence laid end to end. The one layout type shared by completion
    paths, TX descriptor formats, the analysis passes and the accessor
    synthesizer. *)

(** One field of a record, with its absolute position. *)
type lfield = {
  l_name : string;
  l_header : string;  (** header the field came from *)
  l_semantic : string option;
  l_bit_off : int;  (** absolute offset from the start of the record *)
  l_bits : int;
  l_span : P4.Loc.span;  (** declaration site of the source field *)
}

type t = { fields : lfield list; size_bytes : int }

val fields : P4.Typecheck.header_def list -> lfield list
(** Concatenate headers into absolute-offset fields, in order. *)

val of_headers : P4.Typecheck.header_def list -> (t, string) result
(** {!fields} plus the byte size; errors when the total is not a whole
    number of bytes. *)

val field_for : t -> string -> lfield option
(** First field carrying the given semantic. *)

val semantics : lfield list -> string list
(** The semantics the fields carry: Prov(p), sorted and distinct. *)
