(** Hand-written lexer for the P4 subset. *)

exception Error of string * Loc.pos
(** Lexical error with position. *)

val tokenize : string -> Token.t list
(** Whole-input tokenization; the result always ends with an [Eof] token.
    Skips [//] and [/* */] comments and whitespace.
    @raise Error on malformed input (unterminated comment/string,
    bad character, malformed number, or an integer literal — value or
    width prefix — that does not fit in 64 unsigned bits; that last one
    is reported at the literal's first character). *)
