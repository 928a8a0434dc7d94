(* A small IR of a completion deparser body: emit and branch sites are
   numbered in AST pre-order (then-branch before else-branch), the same
   encounter order the compiler's CFG uses, so diagnostics and path
   indices line up with `opendesc_cc paths`/`cfg` output.

   This is the one model of the deparser every tool reads: the CFG, the
   concrete runs behind path enumeration, the symbolic walk and the
   lint passes. The interpreter forks on undecidable branches, so the
   analysis still produces runs (marked inexact) for descriptions the
   compiler would reject; Path.enumerate refuses those runs. *)

type emit = {
  e_id : int;  (** site number, pre-order *)
  e_arg : string;  (** pretty-printed emitted expression *)
  e_header : P4.Typecheck.header_def;
  e_span : P4.Loc.span;
}

type node =
  | NEmit of emit
  | NIf of { i_id : int; i_cond : P4.Ast.expr; i_then : node list; i_else : node list }
  | NAssign of P4.Ast.expr * P4.Ast.expr
  | NDecl of string * P4.Ast.expr option
  | NReturn
  | NOther

type t = {
  ir_nodes : node list;
  ir_emits : emit list;  (** all emit sites, in site order *)
  ir_ifs : (int * P4.Ast.expr) list;  (** all branch sites, in site order *)
  ir_out : string;  (** the cmpt_out parameter name *)
}

let out_param (c : P4.Typecheck.control_def) =
  List.find_map
    (fun (p : P4.Typecheck.cparam) ->
      match p.c_typ with
      | P4.Typecheck.RExtern "cmpt_out" -> Some p.c_name
      | _ -> None)
    c.ct_params

let no_deparser = "no completion deparser found (no control takes a cmpt_out)"

let locate_deparser ?requested tenv =
  let has_cmpt_out c = out_param c <> None in
  match requested with
  | Some name -> (
      match P4.Typecheck.find_control tenv name with
      | Some c when has_cmpt_out c -> Ok (Some c)
      | Some _ -> Error (Printf.sprintf "control %s has no cmpt_out parameter" name)
      | None -> Error (Printf.sprintf "no control named %s" name))
  | None -> (
      let annotated (c : P4.Typecheck.control_def) =
        P4.Ast.find_annotation "cmpt_deparser" c.ct_annots <> None
      in
      let candidates = List.filter has_cmpt_out (P4.Typecheck.controls tenv) in
      match List.filter annotated candidates with
      | [ c ] -> Ok (Some c)
      | _ :: _ :: _ -> Error "multiple @cmpt_deparser controls"
      | [] -> (
          match candidates with
          | [ c ] -> Ok (Some c)
          | [] -> Ok None
          | _ -> Error "multiple deparser candidates; tag one with @cmpt_deparser"))

let emit_target out_name (e : P4.Ast.expr) =
  match e with
  | P4.Ast.ECall (P4.Ast.EMember (base, meth), _, [ arg ]) when meth.name = "emit"
    -> (
      match P4.Eval.path_of_expr base with
      | Some [ b ] when b = out_name -> Some arg
      | _ -> None)
  | _ -> None

exception Build_error of string

let of_control tenv (ctrl : P4.Typecheck.control_def) : (t, string) result =
  match out_param ctrl with
  | None ->
      Error
        (Printf.sprintf "control %s has no cmpt_out parameter" ctrl.ct_name)
  | Some out -> (
      let scope = P4.Typecheck.scope_of_control tenv ctrl in
      let next = ref 0 in
      let fresh () =
        let id = !next in
        next := id + 1;
        id
      in
      let emits = ref [] and ifs = ref [] in
      let rec build_block stmts = List.concat_map build_stmt stmts
      and build_stmt (s : P4.Ast.stmt) =
        match s with
        | P4.Ast.SCall e -> (
            match emit_target out e with
            | None -> [ NOther ]
            | Some arg -> (
                let id = fresh () in
                match P4.Typecheck.type_of_expr tenv scope arg with
                | P4.Typecheck.RHeader h ->
                    let em =
                      {
                        e_id = id;
                        e_arg = P4.Pretty.expr_to_string arg;
                        e_header = h;
                        e_span = P4.Ast.expr_span arg;
                      }
                    in
                    emits := em :: !emits;
                    [ NEmit em ]
                | ty ->
                    raise
                      (Build_error
                         (Printf.sprintf "emit of non-header %s : %s"
                            (P4.Pretty.expr_to_string arg)
                            (P4.Typecheck.rtyp_name ty)))))
        | P4.Ast.SIf (c, th, el) ->
            let id = fresh () in
            ifs := (id, c) :: !ifs;
            let i_then = build_block th in
            let i_else = match el with Some b -> build_block b | None -> [] in
            [ NIf { i_id = id; i_cond = c; i_then; i_else } ]
        | P4.Ast.SBlock b -> build_block b
        | P4.Ast.SAssign (l, r) -> [ NAssign (l, r) ]
        | P4.Ast.SVar (_, name, init) -> [ NDecl (name.name, init) ]
        | P4.Ast.SConst (_, name, v) -> [ NDecl (name.name, Some v) ]
        | P4.Ast.SReturn _ -> [ NReturn ]
        | P4.Ast.SEmpty -> []
      in
      match build_block ctrl.ct_body with
      | nodes ->
          Ok
            {
              ir_nodes = nodes;
              ir_emits = List.rev !emits;
              ir_ifs = List.rev !ifs;
              ir_out = out;
            }
      | exception Build_error msg -> Error msg
      | exception P4.Typecheck.Type_error (msg, _) -> Error msg)

(* Every variable path that can influence a branch decision: the read
   sets of all conditions, closed under local definitions. A context
   field outside this set cannot change the emit sequence. *)
let influencing t =
  let defs = ref [] and conds = ref [] in
  let rec collect nodes =
    List.iter
      (function
        | NIf { i_cond; i_then; i_else; _ } ->
            conds := P4.Eval.paths_in i_cond @ !conds;
            collect i_then;
            collect i_else
        | NAssign (l, r) -> (
            match P4.Eval.path_of_expr l with
            | Some p -> defs := (p, P4.Eval.paths_in r) :: !defs
            | None -> ())
        | NDecl (n, Some e) -> defs := ([ n ], P4.Eval.paths_in e) :: !defs
        | NEmit _ | NDecl (_, None) | NReturn | NOther -> ())
      nodes
  in
  collect t.ir_nodes;
  let seen = Hashtbl.create 8 in
  let rec close p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      List.iter (fun (d, reads) -> if d = p then List.iter close reads) !defs
    end
  in
  List.iter close !conds;
  Hashtbl.fold (fun p () acc -> p :: acc) seen []

(* ------------------------------------------------------------------ *)
(* Concrete interpretation under one context assignment. *)

type run = {
  r_emits : emit list;
  r_total_bits : int;
  r_undecided : P4.Ast.expr option;
      (** the first branch this run forked on; [None] when the context
          decided every branch (the run is exact) *)
}

let headers r = List.map (fun em -> em.e_header) r.r_emits
let fields r = Layout.fields (headers r)

(* Two runs emit the same completion when they emit the same
   expressions of the same headers, whichever sites they went through. *)
let key r = List.map (fun em -> (em.e_arg, em.e_header.h_name)) r.r_emits

type state = {
  locals : (string list * P4.Eval.value) list;
  bits : int;
  emits : emit list;  (* reversed *)
  undecided : P4.Ast.expr option;
  stopped : bool;
}

let max_forks = 64

let run ~consts ~ctx_env t : run list =
  let env_of st path =
    match List.assoc_opt path st.locals with
    | Some v -> Some v
    | None -> ( match ctx_env path with Some v -> Some v | None -> consts path)
  in
  let set_local st path v =
    { st with locals = (path, v) :: List.remove_assoc path st.locals }
  in
  let rec exec_nodes sts nodes = List.fold_left exec_node sts nodes
  and exec_node sts node =
    let allow_fork = List.length sts < max_forks in
    List.concat_map (fun st -> exec_one allow_fork st node) sts
  and exec_one allow_fork st node =
    if st.stopped then [ st ]
    else
      match node with
      | NEmit em ->
          [ { st with bits = st.bits + em.e_header.h_bits; emits = em :: st.emits } ]
      | NIf { i_cond; i_then; i_else; _ } -> (
          match P4.Eval.eval_bool (env_of st) i_cond with
          | Some true -> exec_nodes [ st ] i_then
          | Some false -> exec_nodes [ st ] i_else
          | None ->
              let st =
                if st.undecided = None then { st with undecided = Some i_cond }
                else st
              in
              if allow_fork then
                exec_nodes [ st ] i_then @ exec_nodes [ st ] i_else
              else exec_nodes [ st ] i_then)
      | NAssign (l, r) -> (
          match P4.Eval.path_of_expr l with
          | Some p -> [ set_local st p (P4.Eval.eval (env_of st) r) ]
          | None -> [ st ])
      | NDecl (n, init) ->
          let v =
            match init with
            | Some e -> P4.Eval.eval (env_of st) e
            | None -> P4.Eval.VUnknown
          in
          [ set_local st [ n ] v ]
      | NReturn -> [ { st with stopped = true } ]
      | NOther -> [ st ]
  in
  let init = { locals = []; bits = 0; emits = []; undecided = None; stopped = false } in
  exec_nodes [ init ] t.ir_nodes
  |> List.map (fun st ->
         {
           r_emits = List.rev st.emits;
           r_total_bits = st.bits;
           r_undecided = st.undecided;
         })

(* The branch decisions of one concrete walk under a fully-valued [env]:
   [(site, taken)] in the order taken, or [None] when some predicate on
   the walk is undecidable there (an extern-driven input). Unlike [run]
   it never forks; the symbolic executor's soundness checks compare its
   result against the decisions of their leaves. *)
exception Stop_walk
exception Undecidable_walk

let concrete_decisions t env0 =
  let locals : (string list, P4.Eval.value) Hashtbl.t = Hashtbl.create 8 in
  let env path =
    match Hashtbl.find_opt locals path with Some v -> Some v | None -> env0 path
  in
  let decisions = ref [] in
  let rec exec nodes = List.iter exec1 nodes
  and exec1 = function
    | NEmit _ | NOther -> ()
    | NIf { i_id; i_cond; i_then; i_else } -> (
        match P4.Eval.eval_bool env i_cond with
        | Some b ->
            decisions := (i_id, b) :: !decisions;
            exec (if b then i_then else i_else)
        | None -> raise Undecidable_walk)
    | NAssign (l, r) -> (
        match P4.Eval.path_of_expr l with
        | Some p -> Hashtbl.replace locals p (P4.Eval.eval env r)
        | None -> ())
    | NDecl (n, init) ->
        Hashtbl.replace locals [ n ]
          (match init with Some e -> P4.Eval.eval env e | None -> P4.Eval.VUnknown)
    | NReturn -> raise Stop_walk
  in
  match exec t.ir_nodes with
  | () | (exception Stop_walk) -> Some (List.rev !decisions)
  | exception Undecidable_walk -> None
