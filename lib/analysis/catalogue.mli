(** The completion catalogue of one deparser (§4 step 2), built once.

    From the {!Dep_ir} of the completion deparser: every context
    assignment ({!Context.enumerate}), the concrete runs under each —
    memoised on the context fields that can influence a branch
    ({!Dep_ir.influencing}), so the number of executions is the size of
    the projected configuration space — one {!Symexec} walk deciding
    which runs are feasible, and the runs grouped by emitted completion.

    [Opendesc.Path.enumerate], the lint engine, certification and the
    cost bound all read this structure; [Opendesc.Nic_spec.load] builds
    it once per description. *)

type run = {
  run : Dep_ir.run;
  group : int;  (** index of the run's completion in {!t.ca_groups} *)
  feasible : int option;
      (** index of the run's completion in {!t.ca_feasible}; [None] when
          the symbolic walk proved the run's path condition
          unsatisfiable (only forked, inexact runs can be) *)
}

(** One distinct completion: the runs emitting the same expressions of
    the same headers, whichever emit sites they went through. *)
type group = {
  g_index : int;  (** encounter order over assignments, then forks *)
  g_run : Dep_ir.run;  (** the first run of the group *)
  g_assigns : Context.assignment list;
      (** every assignment with a run in the group, in order *)
}

type t = {
  ca_ctrl : P4.Typecheck.control_def;
  ca_ir : Dep_ir.t;
  ca_ctx : (P4.Typecheck.cparam * P4.Typecheck.header_def) option;
  ca_ctx_error : string option;
      (** why the context space could not be enumerated; the runs then
          cover the single empty assignment *)
  ca_assignments : Context.assignment list;
  ca_runs : (Context.assignment * run list) list;
      (** per assignment, its runs — several when undecidable branches
          forked *)
  ca_executions : int;  (** concrete deparser executions performed *)
  ca_syntactic : int;  (** root-to-leaf paths of the decision tree *)
  ca_pruned : int;  (** of which proved unreachable *)
  ca_verdicts : (int * Absdom.abool list) list;
      (** {!Symexec.result.sx_verdicts}: per branch site, the abstract
          verdict at each feasible occurrence *)
  ca_groups : group list;  (** every distinct completion *)
  ca_feasible : group list;
      (** the distinct completions of feasible runs, indexed among
          themselves; equal to [ca_groups] when every run is exact *)
}

val build :
  ?memoize:bool -> P4.Typecheck.t -> P4.Typecheck.control_def -> (t, string) result
(** Errors when the IR cannot be built: no [cmpt_out] parameter, or an
    emit of a non-header anywhere in the body. [~memoize:false] executes
    the deparser once per assignment of the full product (the reference
    the memoised build is tested against). *)

val ctx_name : t -> string
(** The context parameter's name (["ctx"] when there is none). *)

val runs_for : t -> Context.assignment -> run list
(** The runs of one enumerated assignment; [[]] for a configuration
    outside the context domains. *)
