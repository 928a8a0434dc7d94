module D = Diagnostic

type input = {
  in_tenv : P4.Typecheck.t;
  in_catalogue : Catalogue.t option;
      (** the loaded deparser's catalogue, or [None] to locate and build it *)
  in_desc_parser : P4.Typecheck.parser_def option;
  in_registry : Registry_view.t;
  in_intent : (string * int) list option;  (** requested (semantic, width) *)
  in_line_offset : int;  (** prelude lines to subtract from spans *)
}

let contains_sub hay needle =
  let hay = String.lowercase_ascii hay in
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let is_intent_header (h : P4.Typecheck.header_def) =
  P4.Ast.find_annotation "intent" h.h_annots <> None
  || contains_sub h.h_name "intent"

(* ------------------------------------------------------------------ *)
(* Deparser preparation: the completion catalogue. *)

let describe_run (r : Dep_ir.run) =
  "[" ^ String.concat "; " (List.map (fun (em : Dep_ir.emit) -> em.e_arg) r.r_emits) ^ "]"

let run_semantics r = Layout.semantics (Dep_ir.fields r)

let last_emit_span (r : Dep_ir.run) =
  match List.rev r.r_emits with em :: _ -> Some em.Dep_ir.e_span | [] -> None

let prepare add (inp : input) : Catalogue.t option =
  let tenv = inp.in_tenv in
  let cat =
    match inp.in_catalogue with
    | Some cat -> Some cat
    | None -> (
        match Dep_ir.locate_deparser tenv with
        | Ok (Some ctrl) -> (
            match Catalogue.build tenv ctrl with
            | Ok cat -> Some cat
            | Error msg ->
                add (D.make ~span:ctrl.ct_span ~code:"OD002" ~severity:D.Error "%s" msg);
                None)
        | Ok None ->
            (* An intent description has no deparser by design; anything
               else is a malformed interface. *)
            if not (List.exists is_intent_header (P4.Typecheck.headers tenv))
            then add (D.make ~code:"OD002" ~severity:D.Error "%s" Dep_ir.no_deparser);
            None
        | Error msg ->
            add (D.make ~code:"OD002" ~severity:D.Error "%s" msg);
            None)
  in
  Option.iter
    (fun (cat : Catalogue.t) ->
      match (cat.ca_ctx_error, cat.ca_ctx) with
      | Some msg, Some (_, h) ->
          add (D.make ~span:h.h_span ~code:"OD002" ~severity:D.Error "%s" msg)
      | _ -> ())
    cat;
  cat

(* ------------------------------------------------------------------ *)
(* Pass 1: layout safety. *)

let slot_bytes (ctrl : P4.Typecheck.control_def) =
  Option.bind
    (P4.Ast.find_annotation "cmpt_slot" ctrl.ct_annots)
    P4.Ast.annotation_int

let layout_pass add (cat : Catalogue.t) =
  let slot = slot_bytes cat.ca_ctrl in
  List.iter
    (fun (g : Catalogue.group) ->
      let r = g.g_run in
      let desc = describe_run r in
      let span = last_emit_span r in
      if r.r_total_bits mod 8 <> 0 then
        add
          (D.make ?span ~code:"OD003" ~severity:D.Error
             "completion path %s totals %d bits, not a byte multiple; the \
              device cannot DMA it"
             desc r.r_total_bits)
      else begin
        let size = r.r_total_bits / 8 in
        match slot with
        | Some s when size > s ->
            add
              (D.make ?span ~code:"OD004" ~severity:D.Error
                 "completion path %s is %d bytes, exceeding the declared \
                  %d-byte DMA completion slot"
                 desc size s)
        | _ -> ()
      end;
      (* The same header emitted twice writes every field at two offsets. *)
      let seen_args = Hashtbl.create 4 in
      List.iter
        (fun (em : Dep_ir.emit) ->
          if Hashtbl.mem seen_args em.e_arg then
            add
              (D.make ~span:em.e_span ~code:"OD005" ~severity:D.Warning
                 "header %s is emitted twice on completion path %s; its \
                  fields are written twice at different offsets"
                 em.e_arg desc)
          else Hashtbl.add seen_args em.e_arg ())
        r.r_emits;
      (* A semantic carried twice on one path: only the first copy is
         read by accessors. Duplicates caused by re-emitting the same
         header are already covered by OD005. *)
      let header_count hname =
        List.length
          (List.filter
             (fun (em : Dep_ir.emit) -> em.e_header.h_name = hname)
             r.r_emits)
      in
      let seen_sems : (string, string) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (f : Layout.lfield) ->
          match f.l_semantic with
          | None -> ()
          | Some s -> (
              match Hashtbl.find_opt seen_sems s with
              | Some prev_header
                when prev_header = f.l_header && header_count f.l_header > 1 ->
                  () (* re-emitted header; OD005 already fired *)
              | Some _ ->
                  add
                    (D.make ~span:f.l_span ~code:"OD006" ~severity:D.Warning
                       "completion path %s carries semantic %S twice (only \
                        the first copy is read)"
                       desc s)
              | None -> Hashtbl.add seen_sems s f.l_header))
        (Dep_ir.fields r))
    cat.ca_groups

(* ------------------------------------------------------------------ *)
(* Pass 2: path feasibility and dead code. *)

let feasibility_pass add tenv (cat : Catalogue.t) =
  let ir = cat.ca_ir in
  (* OD007: emit sites reached by no run under any configuration. *)
  let reached = Hashtbl.create 8 in
  List.iter
    (fun (_, runs) ->
      List.iter
        (fun (cr : Catalogue.run) ->
          List.iter
            (fun (em : Dep_ir.emit) -> Hashtbl.replace reached em.e_id ())
            cr.run.r_emits)
        runs)
    cat.ca_runs;
  List.iter
    (fun (em : Dep_ir.emit) ->
      if not (Hashtbl.mem reached em.e_id) then
        add
          (D.make ~span:em.e_span ~code:"OD007" ~severity:D.Warning
             "emit of %s is dead: no context configuration reaches it"
             em.e_arg))
    ir.ir_emits;
  (* OD008: a branch predicate that evaluates the same way under every
     context configuration (evaluated standalone, so nesting under other
     branches does not mask infeasible predicates). Predicates reading
     locals are data-dependent and skipped. *)
  let consts = P4.Typecheck.const_env tenv in
  let ctx_name = Catalogue.ctx_name cat in
  let n_assignments = List.length cat.ca_assignments in
  List.iter
    (fun ((site, cond) : int * P4.Ast.expr) ->
      let outcomes =
        List.filter_map
          (fun a ->
            let ctx_env = Context.env_of ~param_name:ctx_name a in
            let env path =
              match ctx_env path with Some v -> Some v | None -> consts path
            in
            P4.Eval.eval_bool env cond)
          cat.ca_assignments
      in
      if List.length outcomes = n_assignments && outcomes <> [] then begin
        (* decidable from the configuration alone: the concrete
           enumeration is exact and governs this site (OD008) *)
        match List.sort_uniq Bool.compare outcomes with
        | [ b ] ->
            add
              (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD008"
                 ~severity:D.Warning
                 "branch predicate %s is always %b for every context \
                  configuration (%d checked); one side is unreachable"
                 (P4.Pretty.expr_to_string cond)
                 b n_assignments)
        | _ -> ()
      end
      else
        (* data-dependent: only the symbolic walk, which covers every
           configuration at once and also decides predicates over
           runtime descriptor bytes, can reason here *)
        match List.assoc_opt site cat.ca_verdicts with
        | None | Some [] -> () (* never reached along a feasible prefix *)
        | Some verdicts ->
            let all v = List.for_all (fun x -> x = v) verdicts in
            if all Absdom.BTrue || all Absdom.BFalse then
              let b = all Absdom.BTrue in
              add
                (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD018"
                   ~severity:D.Warning
                   "branch predicate %s depends on runtime data but is \
                    proved always %b by interval and known-bits analysis; \
                    the %s side's completion paths are unreachable for \
                    every configuration and every descriptor value"
                   (P4.Pretty.expr_to_string cond)
                   b
                   (if b then "false" else "true"))
            else
              add
                (D.make ~span:(P4.Ast.expr_span cond) ~code:"OD019"
                   ~severity:D.Info
                   "branch predicate %s cannot be decided from the context, \
                    even symbolically; completion-path feasibility is \
                    over-approximated (the layout is not selected by \
                    configuration alone)"
                   (P4.Pretty.expr_to_string cond)))
    ir.ir_ifs;
  (* OD009: context fields with no influence on any branch. *)
  match cat.ca_ctx with
  | None -> ()
  | Some (param, ctx_header) ->
      let influencing = Dep_ir.influencing ir in
      let whole_ctx_used = List.mem [ param.c_name ] influencing in
      List.iter
        (fun (f : P4.Typecheck.field) ->
          if
            (not whole_ctx_used)
            && not (List.mem [ param.c_name; f.f_name ] influencing)
          then
            add
              (D.make ~span:f.f_span ~code:"OD009" ~severity:D.Info
                 "context field %s.%s never influences a branch; it cannot \
                  select a completion layout"
                 ctx_header.h_name f.f_name))
        ctx_header.h_fields

(* ------------------------------------------------------------------ *)
(* Pass 2b: accessor certification (OD020). A synthesized accessor is a
   fixed-offset load chosen per configuration; it is only safe when the
   semantic it reads is written at that same offset on EVERY feasible
   completion the device may emit under that configuration. When
   undecidable (runtime-data) branches fork the runs of one assignment,
   each semantic must agree across the forks — otherwise the accessor
   can observe unwritten completion-ring bytes. Forked runs the symbolic
   walk proves unreachable are not feasible completions: an always-true
   runtime guard must not fail certification. *)

let certification_pass add (cat : Catalogue.t) =
  let reported : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (a, crs) ->
      let runs =
        List.filter_map
          (fun (cr : Catalogue.run) -> Option.map (fun _ -> cr.run) cr.feasible)
          crs
      in
      if List.length runs > 1 then
        let sems =
          List.concat_map run_semantics runs |> List.sort_uniq String.compare
        in
        List.iter
          (fun s ->
            if not (Hashtbl.mem reported s) then
              let placement r =
                List.find_opt
                  (fun (f : Layout.lfield) -> f.l_semantic = Some s)
                  (Dep_ir.fields r)
              in
              let placements = List.map placement runs in
              let positions =
                List.sort_uniq Stdlib.compare
                  (List.map
                     (Option.map (fun (f : Layout.lfield) -> (f.l_bit_off, f.l_bits)))
                     placements)
              in
              match positions with
              | [ Some _ ] -> () (* same offset and width on every fork *)
              | _ ->
                  Hashtbl.add reported s ();
                  let span =
                    List.find_map
                      (Option.map (fun (f : Layout.lfield) -> f.l_span))
                      placements
                  in
                  let where = function
                    | None -> "absent"
                    | Some (f : Layout.lfield) ->
                        Printf.sprintf "at bit %d (%d bits)" f.l_bit_off f.l_bits
                  in
                  let variants =
                    List.sort_uniq String.compare (List.map where placements)
                  in
                  add
                    (D.make ?span ~code:"OD020" ~severity:D.Error
                       "accessor for semantic %S cannot be certified: \
                        configuration %s admits %d feasible completions and \
                        the field is %s; a fixed-offset read can observe \
                        unwritten completion bytes"
                       s
                       (Format.asprintf "%a" Context.pp a)
                       (List.length runs)
                       (String.concat " in one but " variants)))
          sems)
    cat.ca_runs

(* ------------------------------------------------------------------ *)
(* Pass 3: contract consistency. *)

(* Headers whose contents actually cross the interface: emitted on some
   completion run, or named in any emit/extract call of any control or
   parser (packet streams included), or serving as the context. *)
let used_headers tenv (cat : Catalogue.t option) =
  let used = Hashtbl.create 16 in
  let note_header = function
    | P4.Typecheck.RHeader h -> Hashtbl.replace used h.P4.Typecheck.h_name ()
    | _ -> ()
  in
  let scan_expr tenv scope (e : P4.Ast.expr) =
    match e with
    | P4.Ast.ECall (P4.Ast.EMember (_, meth), _, [ arg ])
      when meth.name = "emit" || meth.name = "extract" -> (
        match P4.Typecheck.type_of_expr tenv scope arg with
        | ty -> note_header ty
        | exception P4.Typecheck.Type_error _ -> ())
    | _ -> ()
  in
  let rec scan_stmt tenv scope (s : P4.Ast.stmt) =
    match s with
    | P4.Ast.SCall e -> scan_expr tenv scope e
    | P4.Ast.SIf (_, th, el) ->
        List.iter (scan_stmt tenv scope) th;
        Option.iter (List.iter (scan_stmt tenv scope)) el
    | P4.Ast.SBlock b -> List.iter (scan_stmt tenv scope) b
    | _ -> ()
  in
  List.iter
    (fun (c : P4.Typecheck.control_def) ->
      let scope = P4.Typecheck.scope_of_control tenv c in
      List.iter (scan_stmt tenv scope) c.ct_body)
    (P4.Typecheck.controls tenv);
  List.iter
    (fun (p : P4.Typecheck.parser_def) ->
      let scope = P4.Typecheck.scope_of_params tenv p.pr_params in
      List.iter
        (fun (st : P4.Ast.parser_state) ->
          List.iter (scan_stmt tenv scope) st.st_stmts)
        p.pr_states)
    (P4.Typecheck.parsers tenv);
  (match cat with
  | Some cat -> (
      List.iter
        (fun (g : Catalogue.group) ->
          List.iter
            (fun (h : P4.Typecheck.header_def) -> Hashtbl.replace used h.h_name ())
            (Dep_ir.headers g.g_run))
        cat.ca_groups;
      match cat.ca_ctx with
      | Some (_, h) -> Hashtbl.replace used h.P4.Typecheck.h_name ()
      | None -> ())
  | None -> ());
  used

let contract_pass add (inp : input) (cat : Catalogue.t option)
    (tx_formats : Descparser.t list) =
  let tenv = inp.in_tenv in
  let registry = inp.in_registry in
  let reported_unknown = Hashtbl.create 8 in
  let unknown ?span s =
    if not (Hashtbl.mem reported_unknown s) then begin
      Hashtbl.add reported_unknown s ();
      add
        (D.make ?span ~code:"OD010" ~severity:D.Warning
           "unknown semantic %S (typo? register it or fix the annotation)" s)
    end
  in
  (* OD010 / OD011 over every @semantic field of every header. *)
  List.iter
    (fun (h : P4.Typecheck.header_def) ->
      List.iter
        (fun (f : P4.Typecheck.field) ->
          match f.f_semantic with
          | None -> ()
          | Some s ->
              if not (registry.Registry_view.known s) then unknown ~span:f.f_span s
              else (
                match registry.Registry_view.width s with
                | Some w when f.f_bits < w ->
                    add
                      (D.make ~span:f.f_span ~code:"OD011" ~severity:D.Warning
                         "field %s.%s (@semantic %S) is %d bits, narrower \
                          than the registry's %d bits; values will be \
                          truncated"
                         h.h_name f.f_name s f.f_bits w)
                | Some w when f.f_bits > w ->
                    add
                      (D.make ~span:f.f_span ~code:"OD011" ~severity:D.Info
                         "field %s.%s (@semantic %S) is %d bits, wider than \
                          the registry's %d bits (the upper bits are zero \
                          padding)"
                         h.h_name f.f_name s f.f_bits w)
                | _ -> ()))
        h.h_fields)
    (P4.Typecheck.headers tenv);
  (* OD012: declared contract surface nothing ever carries. *)
  let used = used_headers tenv cat in
  List.iter
    (fun (h : P4.Typecheck.header_def) ->
      let sems =
        List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields
      in
      if sems <> [] && (not (Hashtbl.mem used h.h_name)) && not (is_intent_header h)
      then
        add
          (D.make ~span:h.h_span ~code:"OD012" ~severity:D.Warning
             "header %s carries @semantic fields but is never emitted to a \
              completion nor extracted from a descriptor; its semantics are \
              unreachable"
             h.h_name))
    (P4.Typecheck.headers tenv);
  (* OD013: dominated paths — same Prov means the same Eq. 1 coverage for
     every intent, so the larger layout (or, on a size tie, the higher
     index) can never be selected. *)
  (match cat with
  | None -> ()
  | Some cat ->
      let paths =
        List.filter_map
          (fun (g : Catalogue.group) ->
            if g.g_run.r_total_bits mod 8 = 0 then
              Some (g.g_index, run_semantics g.g_run, g.g_run.r_total_bits / 8)
            else None)
          cat.ca_groups
      in
      List.iter
        (fun (ia, prov_a, sz_a) ->
          List.iter
            (fun (ib, prov_b, sz_b) ->
              if ia < ib && prov_a = prov_b then
                let span = cat.ca_ctrl.ct_span in
                let notes =
                  [ D.note (Printf.sprintf "shared semantics: {%s}" (String.concat ", " prov_a)) ]
                in
                if sz_a <> sz_b then
                  add
                    (D.make ~span ~notes ~code:"OD013" ~severity:D.Warning
                       "paths #%d and #%d provide the same semantics; the \
                        %d-byte layout can never be selected (Eq. 1 always \
                        prefers the %d-byte one)"
                       ia ib (max sz_a sz_b) (min sz_a sz_b))
                else
                  add
                    (D.make ~span ~notes ~code:"OD013" ~severity:D.Warning
                       "paths #%d and #%d provide the same semantics at the \
                        same size (%d bytes); path #%d can never be selected \
                        (ties break toward the lower index)"
                       ia ib sz_a ib))
            paths)
        paths);
  (* OD014: TX formats the host cannot use to send. *)
  List.iter
    (fun (f : Descparser.t) ->
      let sems =
        List.concat_map
          (fun ((_, h) : string * P4.Typecheck.header_def) ->
            List.filter_map
              (fun (fd : P4.Typecheck.field) -> fd.f_semantic)
              h.h_fields)
          f.d_extracts
      in
      if not (List.mem "buf_addr" sems) then
        let span =
          Option.map (fun (p : P4.Typecheck.parser_def) -> p.pr_span) inp.in_desc_parser
        in
        add
          (D.make ?span ~code:"OD014" ~severity:D.Warning
             "TX format #%d has no buf_addr field; the device cannot fetch \
              packets"
             f.d_index))
    tx_formats;
  (* OD015: an intent asking for hardware the NIC does not expose. *)
  match inp.in_intent with
  | None -> ()
  | Some fields ->
      let provided =
        match cat with
        | None -> []
        | Some cat ->
            List.concat_map
              (fun (g : Catalogue.group) -> run_semantics g.g_run)
              cat.ca_groups
            |> List.sort_uniq String.compare
      in
      List.iter
        (fun (s, _w) ->
          if not (registry.Registry_view.known s) then unknown s
          else if
            registry.Registry_view.hardware_only s
            && cat <> None
            && not (List.mem s provided)
          then
            add
              (D.make ~code:"OD015" ~severity:D.Error
                 "intent requests hardware-only semantic %S but no completion \
                  path of this NIC provides it; Eq. 1 has no software fallback"
                 s))
        fields

(* ------------------------------------------------------------------ *)
(* Pass 4: codegen verification. *)

(* Mirror of the accessor shapes the C and eBPF emitters synthesize
   (lib/opendesc/accessor.ml, codegen_c.ml, codegen_ebpf.ml): aligned
   power-of-two fields are direct loads of bytes [off/8 .. off/8+n-1];
   everything else is a byte walk over [off/8 .. (off+bits-1)/8]. Both
   shapes are straight-line with compile-time-constant bounds, so the
   constant-time obligation reduces to the width limit checked here. *)
let check_accessor_bounds ?(path_desc = "") ~size_bytes fields =
  List.concat_map
    (fun (f : Layout.lfield) ->
      if f.l_bits > 64 then
        match f.l_semantic with
        | Some s ->
            [
              D.make ~span:f.l_span ~code:"OD017" ~severity:D.Error
                "field %s.%s (@semantic %S) is %d bits wide; accessors are \
                 synthesized as constant-time loads of at most 64 bits, so \
                 this read is not synthesizable (the C and eBPF accessors \
                 would return a constant 0)"
                f.l_header f.l_name s f.l_bits;
            ]
        | None -> [] (* unannotated blobs are padding; nothing reads them *)
      else
        let first = f.l_bit_off / 8 in
        let last =
          if f.l_bit_off mod 8 = 0 && f.l_bits mod 8 = 0 then
            first + (f.l_bits / 8) - 1
          else (f.l_bit_off + f.l_bits - 1) / 8
        in
        if last >= size_bytes then
          [
            D.make ~span:f.l_span ~code:"OD016" ~severity:D.Error
              "accessor for %s.%s reads bytes %d..%d but Size(p)%s is %d \
               bytes; the C and eBPF accessors would read out of bounds"
              f.l_header f.l_name first last
              (if path_desc = "" then "" else " of path " ^ path_desc)
              size_bytes;
          ]
        else [])
    fields

let codegen_pass add (cat : Catalogue.t) =
  List.iter
    (fun (g : Catalogue.group) ->
      let r = g.g_run in
      if r.r_total_bits mod 8 = 0 then
        check_accessor_bounds ~path_desc:(describe_run r)
          ~size_bytes:(r.r_total_bits / 8) (Dep_ir.fields r)
        |> List.iter add)
    cat.ca_groups

(* ------------------------------------------------------------------ *)
(* Engine entry points. *)

let analyze (inp : input) : D.t list =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let cat = prepare add inp in
  Option.iter
    (fun cat ->
      layout_pass add cat;
      feasibility_pass add inp.in_tenv cat;
      certification_pass add cat;
      codegen_pass add cat)
    cat;
  let tx_formats =
    match inp.in_desc_parser with
    | None -> []
    | Some pd -> (
        match Descparser.enumerate inp.in_tenv pd with
        | Ok f -> f
        | Error msg ->
            add (D.make ~span:pd.pr_span ~code:"OD002" ~severity:D.Error "%s" msg);
            [])
  in
  contract_pass add inp cat tx_formats;
  !acc
  |> List.map (D.relocate ~lines:inp.in_line_offset)
  |> List.sort_uniq D.compare

let analyze_program ~registry ?intent ?(line_offset = 0) tenv =
  let desc_parser =
    List.find_opt Descparser.is_desc_parser (P4.Typecheck.parsers tenv)
  in
  analyze
    {
      in_tenv = tenv;
      in_catalogue = None;
      in_desc_parser = desc_parser;
      in_registry = registry;
      in_intent = intent;
      in_line_offset = line_offset;
    }

let analyze_source ~registry ?intent ?(prelude = "") src =
  let full = prelude ^ src in
  let off = List.length (String.split_on_char '\n' prelude) - 1 in
  match P4.Typecheck.check_string full with
  | tenv -> analyze_program ~registry ?intent ~line_offset:off tenv
  | exception P4.Typecheck.Type_error (msg, sp) ->
      [
        D.relocate ~lines:off
          (D.make ~span:sp ~code:"OD001" ~severity:D.Error "type error: %s" msg);
      ]
  | exception exn -> (
      match P4.Parser.error_to_string full exn with
      | Some s -> [ D.make ~code:"OD001" ~severity:D.Error "%s" s ]
      | None -> raise exn)

let failing ~werror ds =
  List.exists
    (fun (d : D.t) ->
      match d.D.d_severity with
      | D.Error -> true
      | D.Warning -> werror
      | D.Info -> false)
    ds
