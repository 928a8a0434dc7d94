type lfield = {
  l_name : string;
  l_header : string;
  l_semantic : string option;
  l_bit_off : int;
  l_bits : int;
  l_span : P4.Loc.span;
}

type t = { fields : lfield list; size_bytes : int }

let fields (headers : P4.Typecheck.header_def list) =
  let _, rev =
    List.fold_left
      (fun (base, acc) (h : P4.Typecheck.header_def) ->
        let acc =
          List.fold_left
            (fun acc (f : P4.Typecheck.field) ->
              {
                l_name = f.f_name;
                l_header = h.h_name;
                l_semantic = f.f_semantic;
                l_bit_off = base + f.f_bit_off;
                l_bits = f.f_bits;
                l_span = f.f_span;
              }
              :: acc)
            acc h.h_fields
        in
        (base + h.h_bits, acc))
      (0, []) headers
  in
  List.rev rev

let of_headers headers =
  let bits =
    List.fold_left (fun acc (h : P4.Typecheck.header_def) -> acc + h.h_bits) 0 headers
  in
  if bits mod 8 <> 0 then
    Error (Printf.sprintf "completion layout is %d bits, not byte-aligned" bits)
  else Ok { fields = fields headers; size_bytes = bits / 8 }

let field_for t s = List.find_opt (fun f -> f.l_semantic = Some s) t.fields

let semantics fields =
  List.filter_map (fun f -> f.l_semantic) fields |> List.sort_uniq String.compare
