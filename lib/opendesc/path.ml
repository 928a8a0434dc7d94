module Catalogue = Opendesc_analysis.Catalogue
module Layout = Opendesc_analysis.Layout

type lfield = Layout.lfield
type layout = Layout.t

type t = {
  p_index : int;
  p_emits : (string * P4.Typecheck.header_def) list;
  p_layout : layout;
  p_prov : string list;
  p_assignments : Opendesc_analysis.Context.assignment list;
}

let size t = t.p_layout.size_bytes
let provides t s = List.mem s t.p_prov
let field_for t s = Layout.field_for t.p_layout s

type pruning = {
  pr_syntactic : int;
  pr_feasible : int;
  pr_pruned : int;
  pr_runs : int;
  pr_configs : int;
}

let pruning_of (c : Catalogue.t) =
  {
    pr_syntactic = c.ca_syntactic;
    pr_feasible = c.ca_syntactic - c.ca_pruned;
    pr_pruned = c.ca_pruned;
    pr_runs = c.ca_executions;
    pr_configs = List.length c.ca_assignments;
  }

let of_catalogue (c : Catalogue.t) =
  (* The compiler only accepts layouts selected by configuration: the
     first forked branch of the first assignment that forks is the one
     to report. *)
  let undecided =
    List.find_map
      (fun (_, runs) ->
        List.find_map (fun (cr : Catalogue.run) -> cr.run.r_undecided) runs)
      c.ca_runs
  in
  let rec paths acc = function
    | [] -> Ok (List.rev acc)
    | (g : Catalogue.group) :: rest -> (
        let headers = Opendesc_analysis.Dep_ir.headers g.g_run in
        match Layout.of_headers headers with
        | Error _ as e -> e
        | Ok layout ->
            let p =
              {
                p_index = g.g_index;
                p_emits =
                  List.map
                    (fun (em : Opendesc_analysis.Dep_ir.emit) -> (em.e_arg, em.e_header))
                    g.g_run.r_emits;
                p_layout = layout;
                p_prov = Layout.semantics layout.fields;
                p_assignments = g.g_assigns;
              }
            in
            paths (p :: acc) rest)
  in
  match (c.ca_ctx_error, undecided) with
  | Some e, _ -> Error e
  | None, Some cond ->
      Error
        (Printf.sprintf
           "branch %s is not decidable from the context; OpenDesc requires \
            completion layouts to be selected by configuration"
           (P4.Pretty.expr_to_string cond))
  | None, None -> Result.map (fun ps -> (ps, pruning_of c)) (paths [] c.ca_groups)

let enumerate_core ~memoize tenv ctrl =
  Result.bind (Catalogue.build ~memoize tenv ctrl) of_catalogue

let enumerate_pruned tenv ctrl = enumerate_core ~memoize:true tenv ctrl
let enumerate tenv ctrl = Result.map fst (enumerate_pruned tenv ctrl)

let enumerate_product tenv ctrl =
  Result.map fst (enumerate_core ~memoize:false tenv ctrl)

let pp ppf t =
  Format.fprintf ppf "path#%d [%s] %dB prov={%s} cfgs=%d" t.p_index
    (String.concat "; " (List.map fst t.p_emits))
    t.p_layout.size_bytes
    (String.concat "," t.p_prov)
    (List.length t.p_assignments)
