(* Prints the parser's verdict on every entry of a seeded mutation
   corpus: the rendered [Parser.error_to_string] text, or "ok" followed by
   the pretty-printed program. The dune rule beside it diffs the output
   against [parse_corpus.expected], so any change to what the frontend
   accepts, produces or reports shows as a byte difference.

     dune exec test/p4/parse_corpus.exe -- <repository root>

   The base sources are the prelude, each catalogue model's description
   and the [.p4] files under [examples/firmware] and [examples/intents].
   Mutants are deterministic functions of their seed: one to three byte
   edits (replace, insert, delete) drawn from an alphabet biased towards
   characters the lexer and parser branch on, or a truncation. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let p4_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".p4")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let sources ~root =
  (("prelude", Opendesc.Prelude.source)
   :: List.map
        (fun (m : Nic_models.Model.t) -> (m.spec.nic_name, m.spec.p4_source))
        (Nic_models.Catalog.all ()))
  @ p4_files (Filename.concat root "examples/firmware")
  @ p4_files (Filename.concat root "examples/intents")

let alphabet = "<>=!&|/*\"\\@;:{}()[]0123456789xXbBoOwWs_aZe .,+-~^%?$\n\t"

let edit rng s =
  let n = String.length s in
  let c = alphabet.[Random.State.int rng (String.length alphabet)] in
  if n = 0 then String.make 1 c
  else
    let i = Random.State.int rng n in
    match Random.State.int rng 3 with
    | 0 -> String.mapi (fun j d -> if j = i then c else d) s
    | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)

let mutate ~seed s =
  let rng = Random.State.make [| seed |] in
  if Random.State.int rng 5 = 0 then
    String.sub s 0 (Random.State.int rng (String.length s + 1))
  else
    let rec go k s = if k = 0 then s else go (k - 1) (edit rng s) in
    go (1 + Random.State.int rng 3) s

let mutants_per_source = 40

let verdict src =
  match P4.Parser.parse_program src with
  | prog -> "ok\n" ^ P4.Pretty.program_to_string prog
  | exception e -> (
      match P4.Parser.error_to_string src e with
      | Some msg -> msg
      | None -> "exception " ^ Printexc.to_string e)

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  List.iteri
    (fun k (name, src) ->
      Printf.printf "== %s\n%s\n" name (verdict src);
      for i = 1 to mutants_per_source do
        let m = mutate ~seed:((1000 * k) + i) src in
        Printf.printf "== %s #%d\n%s\n" name i (verdict m)
      done)
    (sources ~root)
