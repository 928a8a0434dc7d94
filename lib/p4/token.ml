(** Lexical tokens of the P4 subset. *)

type kind =
  (* literals and names *)
  | Ident of string
  | Int of { value : int64; width : int option; signed : bool }
  | String of string
  (* keywords *)
  | KwHeader
  | KwStruct
  | KwTypedef
  | KwConst
  | KwParser
  | KwControl
  | KwState
  | KwTransition
  | KwSelect
  | KwApply
  | KwIf
  | KwElse
  | KwReturn
  | KwEnum
  | KwError
  | KwMatchKind
  | KwExtern
  | KwPackage
  | KwAction
  | KwTable
  | KwKey
  | KwActions
  | KwDefaultAction
  | KwEntries
  | KwIn
  | KwOut
  | KwInout
  | KwBit
  | KwInt
  | KwVarbit
  | KwBool
  | KwVoid
  | KwTrue
  | KwFalse
  | KwDefault
  | KwSwitch
  (* punctuation *)
  | LParen
  | RParen
  | LBrace
  | RBrace
  | LBracket
  | RBracket
  | LAngle (* < *)
  | RAngle (* > *)
  | Semi
  | Colon
  | Comma
  | Dot
  | At
  | Question
  (* operators *)
  | Assign (* = *)
  | Eq (* == *)
  | Neq (* != *)
  | Le (* <= *)
  | Ge (* >= *)
  | Not (* ! *)
  | AndAnd
  | OrOr
  | Plus
  | Minus
  | Star
  | Slash
  | Percent
  | Amp
  | Pipe
  | Caret
  | Tilde
  | Shl (* << ; >> is recognised in the parser from adjacent RAngle *)
  | MaskAnd (* &&& keyset mask *)
  | PlusPlus (* ++ concatenation *)
  | Eof
[@@deriving show { with_path = false }, eq]

type t = { kind : kind; span : Loc.span }

let keyword_table =
  [
    ("header", KwHeader);
    ("struct", KwStruct);
    ("typedef", KwTypedef);
    ("const", KwConst);
    ("parser", KwParser);
    ("control", KwControl);
    ("state", KwState);
    ("transition", KwTransition);
    ("select", KwSelect);
    ("apply", KwApply);
    ("if", KwIf);
    ("else", KwElse);
    ("return", KwReturn);
    ("enum", KwEnum);
    ("error", KwError);
    ("match_kind", KwMatchKind);
    ("extern", KwExtern);
    ("package", KwPackage);
    ("action", KwAction);
    ("table", KwTable);
    ("key", KwKey);
    ("actions", KwActions);
    ("default_action", KwDefaultAction);
    ("entries", KwEntries);
    ("in", KwIn);
    ("out", KwOut);
    ("inout", KwInout);
    ("bit", KwBit);
    ("int", KwInt);
    ("varbit", KwVarbit);
    ("bool", KwBool);
    ("void", KwVoid);
    ("true", KwTrue);
    ("false", KwFalse);
    ("default", KwDefault);
    ("switch", KwSwitch);
  ]

let keyword_name k =
  List.find_map (fun (name, k') -> if equal_kind k k' then Some name else None) keyword_table

let describe = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int { value; _ } -> Printf.sprintf "integer %Ld" value
  | String s -> Printf.sprintf "string %S" s
  | Eof -> "end of input"
  | k -> (
      match keyword_name k with
      | Some name -> Printf.sprintf "keyword %S" name
      | None -> show_kind k)
