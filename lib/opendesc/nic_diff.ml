module Descparser = Opendesc_analysis.Descparser

type change =
  | Semantic_added of string
  | Semantic_removed of string
  | Field_moved of { semantic : string; from_bits : int; to_bits : int }
  | Field_resized of { semantic : string; from_width : int; to_width : int }
  | Path_added of Path.t
  | Path_removed of Path.t
  | Tx_format_changed of { from_sizes : int list; to_sizes : int list }

let all_semantics (spec : Nic_spec.t) =
  List.concat_map (fun (p : Path.t) -> p.p_prov) spec.paths
  |> List.sort_uniq String.compare

(* Match paths across revisions by Prov-set similarity (Jaccard), best
   matches first, each path used at most once. *)
let match_paths (old_paths : Path.t list) (new_paths : Path.t list) =
  let jaccard a b =
    let inter = List.filter (fun s -> List.mem s b.Path.p_prov) a.Path.p_prov in
    let union =
      List.sort_uniq String.compare (a.Path.p_prov @ b.Path.p_prov)
    in
    if union = [] then 1.0
    else float_of_int (List.length inter) /. float_of_int (List.length union)
  in
  let candidates =
    List.concat_map
      (fun a -> List.map (fun b -> (jaccard a b, a, b)) new_paths)
      old_paths
    |> List.filter (fun (j, _, _) -> j > 0.0)
    |> List.sort (fun (x, _, _) (y, _, _) -> compare y x)
  in
  let used_old = Hashtbl.create 8 and used_new = Hashtbl.create 8 in
  let pairs =
    List.filter_map
      (fun (_, a, b) ->
        if Hashtbl.mem used_old a.Path.p_index || Hashtbl.mem used_new b.Path.p_index
        then None
        else begin
          Hashtbl.replace used_old a.Path.p_index ();
          Hashtbl.replace used_new b.Path.p_index ();
          Some (a, b)
        end)
      candidates
  in
  let unmatched_old =
    List.filter (fun (p : Path.t) -> not (Hashtbl.mem used_old p.p_index)) old_paths
  in
  let unmatched_new =
    List.filter (fun (p : Path.t) -> not (Hashtbl.mem used_new p.p_index)) new_paths
  in
  (pairs, unmatched_old, unmatched_new)

let compare (old_spec : Nic_spec.t) (new_spec : Nic_spec.t) =
  let changes = ref [] in
  let add c = changes := c :: !changes in
  (* Universe-level semantics. *)
  let old_sems = all_semantics old_spec and new_sems = all_semantics new_spec in
  List.iter
    (fun s -> if not (List.mem s old_sems) then add (Semantic_added s))
    new_sems;
  List.iter
    (fun s -> if not (List.mem s new_sems) then add (Semantic_removed s))
    old_sems;
  (* Path-level structure and field placement. *)
  let pairs, removed, added = match_paths old_spec.paths new_spec.paths in
  List.iter (fun p -> add (Path_removed p)) removed;
  List.iter (fun p -> add (Path_added p)) added;
  List.iter
    (fun ((a : Path.t), (b : Path.t)) ->
      List.iter
        (fun sem ->
          match (Path.field_for a sem, Path.field_for b sem) with
          | Some fa, Some fb ->
              if fa.l_bits <> fb.l_bits then
                add
                  (Field_resized
                     { semantic = sem; from_width = fa.l_bits; to_width = fb.l_bits });
              if fa.l_bit_off <> fb.l_bit_off then
                add
                  (Field_moved
                     { semantic = sem; from_bits = fa.l_bit_off; to_bits = fb.l_bit_off })
          | _ -> () (* appearance/disappearance is covered above or by
                       unmatched paths *))
        a.p_prov)
    pairs;
  (* TX side, coarsely: the accepted format sizes. *)
  let sizes (spec : Nic_spec.t) =
    List.sort Stdlib.compare (List.map Descparser.size spec.tx_formats)
  in
  let old_tx = sizes old_spec and new_tx = sizes new_spec in
  if old_tx <> new_tx then
    add (Tx_format_changed { from_sizes = old_tx; to_sizes = new_tx });
  List.rev !changes

let breaking = function
  | Semantic_removed _ | Path_removed _ -> true
  | Field_resized { from_width; to_width; _ } -> to_width < from_width
  | Semantic_added _ | Field_moved _ | Path_added _ | Tx_format_changed _ -> false

let pp_change ppf = function
  | Semantic_added s -> Format.fprintf ppf "new offload available: %s" s
  | Semantic_removed s ->
      Format.fprintf ppf "offload removed: %s (hardware users fall back to software)" s
  | Field_moved { semantic; from_bits; to_bits } ->
      Format.fprintf ppf "%s moved: bit %d -> bit %d (transparent after recompile)"
        semantic from_bits to_bits
  | Field_resized { semantic; from_width; to_width } ->
      Format.fprintf ppf "%s resized: %d -> %d bits" semantic from_width to_width
  | Path_added p ->
      Format.fprintf ppf "new completion layout: %dB providing {%s}" (Path.size p)
        (String.concat "," p.p_prov)
  | Path_removed p ->
      Format.fprintf ppf "completion layout removed: %dB providing {%s}" (Path.size p)
        (String.concat "," p.p_prov)
  | Tx_format_changed { from_sizes; to_sizes } ->
      Format.fprintf ppf "TX descriptor sizes changed: [%s] -> [%s]"
        (String.concat ";" (List.map string_of_int from_sizes))
        (String.concat ";" (List.map string_of_int to_sizes))

(* ------------------------------------------------------------------ *)
(* Evolution view: the symbolic checker's classification with per-path
   witnesses, computed over a pure interface summary. *)

let to_iface (spec : Nic_spec.t) : Opendesc_analysis.Evolution.iface =
  {
    Opendesc_analysis.Evolution.ev_nic = spec.nic_name;
    ev_paths =
      List.map
        (fun (p : Path.t) ->
          {
            Opendesc_analysis.Evolution.ev_index = p.p_index;
            ev_size_bytes = Path.size p;
            ev_fields =
              List.map
                (fun (f : Path.lfield) ->
                  {
                    Opendesc_analysis.Evolution.ev_name = f.l_name;
                    ev_semantic = f.l_semantic;
                    ev_bit_off = f.l_bit_off;
                    ev_bits = f.l_bits;
                  })
                p.p_layout.fields;
            ev_prov = p.p_prov;
            ev_configs = p.p_assignments;
          })
        spec.paths;
    ev_tx_sizes =
      List.sort Stdlib.compare (List.map Descparser.size spec.tx_formats);
  }

let check ?recompile_certificate ?cost (old_spec : Nic_spec.t)
    (new_spec : Nic_spec.t) =
  Opendesc_analysis.Evolution.check ?recompile_certificate ?cost
    (to_iface old_spec) (to_iface new_spec)

(* Certified evolution check (docs/CERTIFICATION.md): when the
   classification contains a Recompile-class entry, recompile the new
   revision against [intent] and translation-validate the result, then
   report whether the certificate the cache now holds covers the new
   contract hash. Without a Recompile entry no certificate is demanded
   (and none is computed). *)
let check_certified ?alpha ?tx_intent ?cost ~intent (old_spec : Nic_spec.t)
    (new_spec : Nic_spec.t) =
  let base =
    Opendesc_analysis.Evolution.check (to_iface old_spec) (to_iface new_spec)
  in
  let needs =
    List.exists
      (fun (e : Opendesc_analysis.Evolution.entry) ->
        e.e_class = Opendesc_analysis.Evolution.Recompile)
      base.r_entries
  in
  let current = Cache.contract_hash_of new_spec in
  if not needs then
    (check ~recompile_certificate:(None, current) ?cost old_spec new_spec, None)
  else begin
    let result = Cache.certify ?alpha ?tx_intent ~intent new_spec in
    let held =
      match Cache.certificate_status ?alpha ?tx_intent ~intent new_spec with
      | Cache.Cert_fresh c | Cache.Cert_stale c ->
          Some c.Opendesc_analysis.Certify.c_contract
      | Cache.Cert_missing -> None
    in
    ( check ~recompile_certificate:(held, current) ?cost old_spec new_spec,
      Some result )
  end

let pp ppf changes =
  match changes with
  | [] -> Format.fprintf ppf "no interface changes@."
  | _ ->
      let br, ok = List.partition breaking changes in
      if br <> [] then begin
        Format.fprintf ppf "breaking:@.";
        List.iter (Format.fprintf ppf "  - %a@." pp_change) br
      end;
      if ok <> [] then begin
        Format.fprintf ppf "non-breaking (absorbed by recompilation):@.";
        List.iter (Format.fprintf ppf "  - %a@." pp_change) ok
      end
