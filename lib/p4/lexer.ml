exception Error of string * Loc.pos

type state = { src : string; mutable off : int; mutable line : int; mutable col : int }

let pos st : Loc.pos = { line = st.line; col = st.col; off = st.off }

let peek st = if st.off < String.length st.src then Some st.src.[st.off] else None

let peek2 st =
  if st.off + 1 < String.length st.src then Some st.src.[st.off + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 0
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.off <- st.off + 1

let error st msg = raise (Error (msg, pos st))

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_ident_start c || is_digit c

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let digit_val c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else Char.code c - Char.code 'A' + 10

let skip_trivia st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\r' | '\n') ->
        advance st;
        go ()
    | Some '/' when peek2 st = Some '/' ->
        while peek st <> None && peek st <> Some '\n' do
          advance st
        done;
        go ()
    | Some '/' when peek2 st = Some '*' ->
        advance st;
        advance st;
        let rec comment () =
          match peek st with
          | None -> error st "unterminated comment"
          | Some '*' when peek2 st = Some '/' ->
              advance st;
              advance st
          | Some _ ->
              advance st;
              comment ()
        in
        comment ();
        go ()
    | _ -> ()
  in
  go ()

(* Numbers: 42, 0x2A, 0b1010, 0o52, and width-prefixed 8w255 / 4s7 /
   8w0xFF. We lex a digit run first; a following [w]/[s] turns it into a
   width prefix. Every digit run must fit in 64 unsigned bits; an
   overflowing literal is reported at its first character. *)
let lex_number st =
  let start = pos st in
  let read_digits base =
    let v = ref 0L in
    let any = ref false in
    let ok c =
      match base with
      | 16 -> is_hex c
      | 10 -> is_digit c
      | 8 -> c >= '0' && c <= '7'
      | 2 -> c = '0' || c = '1'
      | _ -> assert false
    in
    let rec go () =
      match peek st with
      | Some '_' ->
          advance st;
          go ()
      | Some c when ok c ->
          any := true;
          let d = Int64.of_int (digit_val c) and b = Int64.of_int base in
          (* [v * base + d] fits in 64 unsigned bits iff
             [v <= (2^64 - 1 - d) / base]; below 2^56 it always does. *)
          if
            Int64.shift_right_logical !v 56 <> 0L
            && Int64.unsigned_compare !v (Int64.unsigned_div (Int64.sub (-1L) d) b) > 0
          then raise (Error ("integer literal does not fit in 64 bits", start));
          v := Int64.add (Int64.mul !v b) d;
          advance st;
          go ()
      | _ -> ()
    in
    go ();
    if not !any then error st "malformed number";
    !v
  in
  let read_value () =
    match (peek st, peek2 st) with
    | Some '0', Some ('x' | 'X') ->
        advance st;
        advance st;
        read_digits 16
    | Some '0', Some ('b' | 'B') ->
        advance st;
        advance st;
        read_digits 2
    | Some '0', Some ('o' | 'O') ->
        advance st;
        advance st;
        read_digits 8
    | _ -> read_digits 10
  in
  let first = read_value () in
  match peek st with
  | Some 'w' when peek st <> None ->
      advance st;
      let v = read_value () in
      Token.Int { value = v; width = Some (Int64.to_int first); signed = false }
  | Some 's' when peek2 st <> None && (match peek2 st with Some c -> is_digit c | None -> false)
    ->
      advance st;
      let v = read_value () in
      Token.Int { value = v; width = Some (Int64.to_int first); signed = true }
  | _ -> Token.Int { value = first; width = None; signed = false }

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' ->
            Buffer.add_char buf '\n';
            advance st;
            go ()
        | Some 't' ->
            Buffer.add_char buf '\t';
            advance st;
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance st;
            go ()
        | None -> error st "unterminated string")
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        go ()
  in
  go ();
  Token.String (Buffer.contents buf)

let next_kind st : Token.kind =
  match peek st with
  | None -> Token.Eof
  | Some c when is_ident_start c ->
      let start = st.off in
      while (match peek st with Some c -> is_ident_char c | None -> false) do
        advance st
      done;
      let s = String.sub st.src start (st.off - start) in
      (match List.assoc_opt s Token.keyword_table with
      | Some kw -> kw
      | None -> Token.Ident s)
  | Some c when is_digit c -> lex_number st
  | Some '"' -> lex_string st
  | Some c -> (
      let two target result =
        if peek2 st = Some target then begin
          advance st;
          advance st;
          Some result
        end
        else None
      in
      match c with
      | '(' -> advance st; Token.LParen
      | ')' -> advance st; Token.RParen
      | '{' -> advance st; Token.LBrace
      | '}' -> advance st; Token.RBrace
      | '[' -> advance st; Token.LBracket
      | ']' -> advance st; Token.RBracket
      | ';' -> advance st; Token.Semi
      | ':' -> advance st; Token.Colon
      | ',' -> advance st; Token.Comma
      | '.' -> advance st; Token.Dot
      | '@' -> advance st; Token.At
      | '?' -> advance st; Token.Question
      | '~' -> advance st; Token.Tilde
      | '^' -> advance st; Token.Caret
      | '%' -> advance st; Token.Percent
      | '/' -> advance st; Token.Slash
      | '*' -> advance st; Token.Star
      | '+' -> (
          match two '+' Token.PlusPlus with
          | Some t -> t
          | None -> advance st; Token.Plus)
      | '-' -> advance st; Token.Minus
      | '=' -> (
          match two '=' Token.Eq with
          | Some t -> t
          | None -> advance st; Token.Assign)
      | '!' -> (
          match two '=' Token.Neq with
          | Some t -> t
          | None -> advance st; Token.Not)
      | '<' -> (
          match two '=' Token.Le with
          | Some t -> t
          | None -> (
              match two '<' Token.Shl with
              | Some t -> t
              | None -> advance st; Token.LAngle))
      | '>' -> (
          (* Always lex a single '>' — the parser reassembles adjacent
             pairs into a right-shift, so nested generics close cleanly. *)
          match two '=' Token.Ge with
          | Some t -> t
          | None -> advance st; Token.RAngle)
      | '&' ->
          if peek2 st = Some '&' then begin
            advance st;
            advance st;
            if peek st = Some '&' then begin
              advance st;
              Token.MaskAnd
            end
            else Token.AndAnd
          end
          else begin
            advance st;
            Token.Amp
          end
      | '|' -> (
          match two '|' Token.OrOr with
          | Some t -> t
          | None -> advance st; Token.Pipe)
      | c -> error st (Printf.sprintf "unexpected character %C" c))

let tokenize src =
  let st = { src; off = 0; line = 1; col = 0 } in
  let rec go acc =
    skip_trivia st;
    let left = pos st in
    let kind = next_kind st in
    let right = pos st in
    let tok = { Token.kind; span = { Loc.left; right } } in
    match kind with Token.Eof -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
