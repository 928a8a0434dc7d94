module Ir = Opendesc_analysis.Dep_ir

type vertex = {
  v_id : int;
  v_emit : string;
  v_header : P4.Typecheck.header_def;
  v_sem : string list;
  v_size : int;
}

type edge = { e_src : int; e_dst : int; e_label : string }

type t = {
  vertices : vertex list;
  edges : edge list;
  leaves : int list;
  ends : (int * string) list;
      (* final frontier: vertex id (or root) with the predicate label
         pending when the body finished there *)
}

let root = -1

exception Analysis_error of string

let semantics_of_header (h : P4.Typecheck.header_def) =
  List.filter_map (fun (f : P4.Typecheck.field) -> f.f_semantic) h.h_fields

type builder = {
  mutable vertices : vertex list;
  mutable edges : edge list;
  mutable next_id : int;
  mutable returned : (int * string) list;  (* reversed *)
}

(* The frontier is the set of (vertex id, pending edge label) pairs that
   the next emitted vertex must be linked from. Labels accumulate across
   nested conditionals until an emit consumes them; a return ends the
   body there, carrying its frontier to the final ends. *)
let rec walk_nodes b frontier nodes = List.fold_left (walk_node b) frontier nodes

and walk_node b frontier (n : Ir.node) =
  match n with
  | Ir.NEmit em ->
      let h = em.e_header in
      let v =
        {
          v_id = b.next_id;
          v_emit = em.e_arg;
          v_header = h;
          v_sem = semantics_of_header h;
          v_size = P4.Typecheck.header_bytes h;
        }
      in
      b.next_id <- b.next_id + 1;
      b.vertices <- v :: b.vertices;
      List.iter
        (fun (src, label) ->
          b.edges <- { e_src = src; e_dst = v.v_id; e_label = label } :: b.edges)
        frontier;
      [ (v.v_id, "") ]
  | Ir.NIf { i_cond; i_then; i_else; _ } ->
      let cond_s = P4.Pretty.expr_to_string i_cond in
      let with_label lbl (src, pending) =
        (src, if pending = "" then lbl else pending ^ " && " ^ lbl)
      in
      let then_frontier =
        walk_nodes b (List.map (with_label cond_s) frontier) i_then
      in
      let else_frontier =
        walk_nodes b (List.map (with_label ("!" ^ cond_s)) frontier) i_else
      in
      then_frontier @ else_frontier
  | Ir.NReturn ->
      b.returned <- List.rev_append frontier b.returned;
      []
  | Ir.NAssign _ | Ir.NDecl _ | Ir.NOther -> frontier

let of_ir (ir : Ir.t) =
  let b = { vertices = []; edges = []; next_id = 0; returned = [] } in
  let final_frontier = walk_nodes b [ (root, "") ] ir.ir_nodes in
  let ends = List.rev b.returned @ final_frontier in
  {
    vertices = List.rev b.vertices;
    edges = List.rev b.edges;
    leaves = List.sort_uniq compare (List.map fst ends);
    ends;
  }

let build tenv c =
  match Ir.of_control tenv c with
  | Ok ir -> of_ir ir
  | Error msg -> raise (Analysis_error msg)

let vertex (t : t) id = List.find (fun v -> v.v_id = id) t.vertices

let walks (t : t) =
  (* DFS from root along edges; a walk terminates wherever the body could
     finish (an entry of [ends]), carrying that entry's pending label. *)
  let succs id = List.filter (fun e -> e.e_src = id) t.edges in
  let rec go id labels visited =
    let here =
      List.filter_map
        (fun (eid, pending) ->
          if eid = id then
            let labels = if pending = "" then labels else pending :: labels in
            Some (List.rev labels, List.rev visited)
          else None)
        t.ends
    in
    here
    @ List.concat_map
        (fun e ->
          let lbls = if e.e_label = "" then labels else e.e_label :: labels in
          go e.e_dst lbls (vertex t e.e_dst :: visited))
        (succs id)
  in
  go root [] []

let to_dot (t : t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph cmpt_deparser {\n  rankdir=TB;\n";
  Buffer.add_string buf "  root [shape=point];\n";
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d [shape=box, label=\"emit(%s)\\n%s, %dB\"];\n" v.v_id
           v.v_emit
           (String.concat "," v.v_sem)
           v.v_size))
    t.vertices;
  List.iter
    (fun e ->
      let src = if e.e_src = root then "root" else Printf.sprintf "v%d" e.e_src in
      let label = if e.e_label = "" then "" else Printf.sprintf " [label=\"%s\"]" e.e_label in
      Buffer.add_string buf (Printf.sprintf "  %s -> v%d%s;\n" src e.e_dst label))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf (t : t) =
  Format.fprintf ppf "cfg: %d vertices, %d edges, leaves [%s]" (List.length t.vertices)
    (List.length t.edges)
    (String.concat ";" (List.map string_of_int t.leaves))
