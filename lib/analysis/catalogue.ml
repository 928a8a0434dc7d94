(* The completion catalogue of one deparser, built once from its IR:
   the context assignments, the concrete runs under each (memoised on
   the context fields that can influence a branch), one symbolic walk
   deciding which runs are feasible, and the runs grouped by emitted
   completion. Path enumeration, the lint engine, certification and
   the cost bound all read this one structure. *)

type run = { run : Dep_ir.run; group : int; feasible : int option }

type group = {
  g_index : int;
  g_run : Dep_ir.run;
  g_assigns : Context.assignment list;
}

type t = {
  ca_ctrl : P4.Typecheck.control_def;
  ca_ir : Dep_ir.t;
  ca_ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  ca_ctx_error : string option;
  ca_assignments : Context.assignment list;
  ca_runs : (Context.assignment * run list) list;
  ca_executions : int;
  ca_syntactic : int;
  ca_pruned : int;
  ca_verdicts : (int * Absdom.abool list) list;
  ca_groups : group list;
  ca_feasible : group list;
}

let ctx_name t = match t.ca_ctx with Some (p, _) -> p.c_name | None -> "ctx"

(* The groups [index] sorts runs into, each with its first run and every
   assignment that has a run in it. *)
let collect n index runs =
  let first = Array.make n None and assigns = Array.make n [] in
  List.iter
    (fun (a, crs) ->
      List.iter
        (fun cr ->
          Option.iter
            (fun i ->
              if Option.is_none first.(i) then first.(i) <- Some cr.run;
              match assigns.(i) with
              | a' :: _ when a' == a -> () (* two forks of one assignment *)
              | l -> assigns.(i) <- a :: l)
            (index cr))
        crs)
    runs;
  List.init n (fun i ->
      { g_index = i; g_run = Option.get first.(i); g_assigns = List.rev assigns.(i) })

let build ?(memoize = true) tenv (ctrl : P4.Typecheck.control_def) =
  match Dep_ir.of_control tenv ctrl with
  | Error _ as e -> e
  | Ok ir ->
      let ctx = Context.find_param ctrl in
      let name = match ctx with Some (p, _) -> p.c_name | None -> "ctx" in
      let assignments, ctx_error =
        match ctx with
        | None -> ([ [] ], None)
        | Some (_, h) -> (
            match Context.enumerate h with
            | Ok a -> (a, None)
            | Error e -> ([ [] ], Some e))
      in
      let consts = P4.Typecheck.const_env tenv in
      let sym =
        Symexec.exec
          ~base:(Symexec.base_env ~consts ~ctx ~params:ctrl.ct_params ())
          ir
      in
      (* A run is a completion the device can emit unless the symbolic
         walk proved its path condition unsatisfiable. *)
      let feasible_sites = Hashtbl.create 16 in
      List.iter
        (fun (l : Symexec.leaf) ->
          if l.lf_feasible then Hashtbl.replace feasible_sites l.lf_emit_ids ())
        sym.sx_leaves;
      (* Runs are numbered into groups as they execute: a memoised run
         is shared by later assignments, so execution order is also the
         order in which assignments first meet each completion. *)
      let number tbl k =
        match Hashtbl.find_opt tbl k with
        | Some i -> i
        | None ->
            let i = Hashtbl.length tbl in
            Hashtbl.add tbl k i;
            i
      in
      let groups = Hashtbl.create 8 and feasible = Hashtbl.create 8 in
      let executions = ref 0 in
      let execute a =
        incr executions;
        Dep_ir.run ~consts ~ctx_env:(Context.env_of ~param_name:name a) ir
        |> List.map (fun (r : Dep_ir.run) ->
               let k = Dep_ir.key r in
               let sites = List.map (fun (em : Dep_ir.emit) -> em.e_id) r.r_emits in
               {
                 run = r;
                 group = number groups k;
                 feasible =
                   (if Hashtbl.mem feasible_sites sites then Some (number feasible k)
                    else None);
               })
      in
      (* Fields outside the influencing set cannot change a run, so one
         execution per projection onto that set covers the product. Every
         assignment lists the fields in the same order, so the projection
         is a fixed mask over that order. *)
      let infl = Dep_ir.influencing ir in
      let mask =
        List.map (fun (f, _) -> List.mem [ name; f ] infl) (List.hd assignments)
      in
      let rec project mask a =
        match (mask, a) with
        | true :: mask, (_, v) :: a -> v :: project mask a
        | false :: mask, _ :: a -> project mask a
        | _ -> []
      in
      let memo = Hashtbl.create 16 in
      let runs_of a =
        let key = project mask a in
        match Hashtbl.find_opt memo key with
        | Some rs -> rs
        | None ->
            let rs = execute a in
            Hashtbl.add memo key rs;
            rs
      in
      let runs =
        List.map (fun a -> (a, if memoize then runs_of a else execute a)) assignments
      in
      Ok
        {
          ca_ctrl = ctrl;
          ca_ir = ir;
          ca_ctx = ctx;
          ca_ctx_error = ctx_error;
          ca_assignments = assignments;
          ca_runs = runs;
          ca_executions = !executions;
          ca_syntactic = List.length sym.sx_leaves;
          ca_pruned = sym.sx_pruned;
          ca_verdicts = sym.sx_verdicts;
          ca_groups = collect (Hashtbl.length groups) (fun cr -> Some cr.group) runs;
          ca_feasible = collect (Hashtbl.length feasible) (fun cr -> cr.feasible) runs;
        }

let runs_for t a =
  match List.find_opt (fun (a', _) -> Context.equal a a') t.ca_runs with
  | Some (_, rs) -> rs
  | None -> []
