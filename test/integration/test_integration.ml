(* Cross-library integration tests: the Figure-1 compilation matrix, full
   RX datapaths driven from compiled artifacts, application-level metadata
   correctness, and the evolvability scenarios (firmware upgrade, new
   custom semantics) the paper motivates. *)

open Opendesc

let check = Alcotest.check
let ai = Alcotest.int
let ai64 = Alcotest.int64
let ab = Alcotest.bool
let asl = Alcotest.(list string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* The Figure-1 matrix: one intent, every NIC, golden hardware/software
   splits. *)

let fig1 = Nic_models.Catalog.fig1_intent

let compile_for name =
  let models = Nic_models.Catalog.all () in
  let model = Option.get (Nic_models.Catalog.find name models) in
  (model, Compile.run_exn ~intent:fig1 model.spec)

let split c =
  (List.sort compare (Compile.hardware c), List.sort compare (Compile.missing c))

let test_fig1_e1000_legacy () =
  let _, c = compile_for "e1000-legacy" in
  let hw, sw = split c in
  check asl "hw" [ "ip_checksum"; "vlan" ] hw;
  check asl "sw" [ "kvs_key"; "rss" ] sw

let test_fig1_e1000_newer () =
  (* Fig. 6 economics: keep the checksum in hardware, recompute rss. *)
  let _, c = compile_for "e1000-newer" in
  let hw, sw = split c in
  check asl "hw" [ "ip_checksum" ] hw;
  check asl "sw" [ "kvs_key"; "rss"; "vlan" ] sw

let test_fig1_bluefield_provides_kvs () =
  let _, c = compile_for "bluefield-kvs_key" in
  let hw, _ = split c in
  check ab "kvs key from the programmable slot" true (List.mem "kvs_key" hw)

let test_fig1_qdma_all_hardware () =
  let _, c = compile_for "qdma-programmable" in
  let _, sw = split c in
  check asl "nothing in software" [] sw;
  check ai "16-byte completion" 16 (Path.size (Compile.path c))

let test_fig1_all_nics_compile () =
  List.iter
    (fun (m : Nic_models.Model.t) ->
      match Compile.run ~intent:fig1 m.spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s failed: %s" m.spec.nic_name e)
    (Nic_models.Catalog.all ())

(* ------------------------------------------------------------------ *)
(* End-to-end: compile -> configure device -> traffic -> application
   reads metadata, hardware or software, and every value is right. *)

(* The application-side read: hardware bindings read the completion,
   software bindings run the shim. This is the generated-driver runtime
   in miniature. *)
let app_read (compiled : Compile.t) env (rx_pkt : bytes) len cmpt sem =
  match List.assoc sem compiled.bindings with
  | Compile.Hardware a -> a.a_get cmpt
  | Compile.Software f ->
      let pkt = Packet.Pkt.sub rx_pkt ~len in
      f.compute env pkt (Packet.Pkt.parse pkt)

let test_end_to_end_kvs_traffic_on_all_nics () =
  let workload () = Packet.Workload.make ~seed:21L Packet.Workload.(Kvs { key_len = 6 }) in
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let compiled = Compile.run_exn ~intent:fig1 m.spec in
      let device = Driver.Device.create_exn ~config:compiled.config m in
      let env = Softnic.Feature.make_env () in
      let w = workload () in
      for _ = 1 to 32 do
        let pkt = Packet.Workload.next w in
        assert (Driver.Device.rx_inject device pkt);
        match Driver.Device.rx_consume device with
        | None -> Alcotest.fail "no rx"
        | Some (buf, len, cmpt) ->
            let view = Packet.Pkt.parse pkt in
            (* kvs_key must be right whether it came from the BlueField
               slot, the QDMA format, or the software shim. *)
            let expected_key = Softnic.Kvs.key64_of_pkt pkt view in
            check ai64
              (m.spec.nic_name ^ " kvs_key")
              expected_key
              (app_read compiled env buf len cmpt "kvs_key");
            (* vlan: these packets are untagged -> 0 everywhere. *)
            check ai64 (m.spec.nic_name ^ " vlan") 0L
              (app_read compiled env buf len cmpt "vlan")
      done)
    (Nic_models.Catalog.all ())

let test_end_to_end_rss_steering_agreement () =
  (* The classic use: steer by hash. Hardware-provided hash (mlx5 mini
     CQE) must equal what software steering would compute, for the same
     key. *)
  let model = Nic_models.Mlx5.model () in
  let intent = Intent.make [ ("rss", 32) ] in
  let compiled = Compile.run_exn ~intent model.spec in
  check ai "mini cqe selected" 8 (Path.size (Compile.path compiled));
  let device = Driver.Device.create_exn ~config:compiled.config model in
  let key = (Driver.Device.env device).rss_key in
  let w = Packet.Workload.make ~seed:9L Packet.Workload.Min_size in
  for _ = 1 to 64 do
    let pkt = Packet.Workload.next w in
    assert (Driver.Device.rx_inject device pkt);
    match Driver.Device.rx_consume device with
    | None -> Alcotest.fail "no rx"
    | Some (_, _, cmpt) ->
        let hw = app_read compiled (Softnic.Feature.make_env ()) Bytes.empty 0 cmpt "rss" in
        let sw = Softnic.Toeplitz.hash_pkt ~key pkt (Packet.Pkt.parse pkt) in
        check ai64 "hw hash == sw hash" (Int64.logand (Int64.of_int32 sw) 0xFFFFFFFFL) hw
  done

let test_unsat_reported_at_compile_time () =
  (* inline crypto results cannot be software-synthesized; a fixed NIC
     must reject the intent instead of failing at runtime. *)
  let model = Nic_models.E1000.newer () in
  let intent = Intent.make [ ("rss", 32); ("inline_crypto_tag", 64) ] in
  match Compile.run ~intent model.spec with
  | Error e -> check ab "unsatisfiable" true (contains e "unsatisfiable")
  | Ok _ -> Alcotest.fail "expected compile-time rejection"

(* ------------------------------------------------------------------ *)
(* Evolvability scenarios *)

(* Firmware upgrade: the same logical completion with fields reordered
   and a new field inserted. Applications recompile against the new
   description and keep working — no code changes. *)
let firmware_v1 =
  {|
header ctx_t { bit<1> unused; }
header cmpt_t {
  @semantic("rss") bit<32> hash;
  @semantic("pkt_len") bit<16> len;
  bit<16> status;
}
control CD(cmpt_out o, in ctx_t ctx, in cmpt_t m) { apply { o.emit(m); } }
|}

let firmware_v2 =
  {|
header ctx_t { bit<1> unused; }
header cmpt_t {
  @semantic("pkt_len") bit<16> len;
  @semantic("vlan") bit<16> new_vlan_field;
  @semantic("rss") bit<32> hash;
  bit<16> status;
  bit<16> rsvd;
}
control CD(cmpt_out o, in ctx_t ctx, in cmpt_t m) { apply { o.emit(m); } }
|}

let test_firmware_upgrade_keeps_app_working () =
  let intent = Intent.make [ ("rss", 32); ("pkt_len", 16) ] in
  let run_version src =
    let spec = Nic_spec.load_exn ~name:"fw" ~kind:Nic_spec.Fixed_function src in
    let compiled = Compile.run_exn ~intent spec in
    let rss_acc =
      match List.assoc "rss" compiled.bindings with
      | Compile.Hardware a -> a
      | Compile.Software _ -> Alcotest.fail "rss should be hardware in both versions"
    in
    (compiled, rss_acc)
  in
  let _, acc_v1 = run_version firmware_v1 in
  let _, acc_v2 = run_version firmware_v2 in
  (* The field moved: offsets differ, yet both accessors are correct for
     their own layout. *)
  check ai "v1 offset" 0 acc_v1.a_bit_off;
  check ai "v2 offset" 32 acc_v2.a_bit_off;
  (* v2 additionally surfaces the new field with zero app changes. *)
  let spec_v2 = Nic_spec.load_exn ~name:"fw2" ~kind:Nic_spec.Fixed_function firmware_v2 in
  let c_vlan =
    Compile.run_exn ~intent:(Intent.make [ ("vlan", 16) ]) spec_v2
  in
  check asl "new offload immediately usable" [ "vlan" ] (Compile.hardware c_vlan)

let test_nic_diff_firmware_revisions () =
  let load name src = Nic_spec.load_exn ~name ~kind:Nic_spec.Fixed_function src in
  let v1 = load "fw-a" firmware_v1 and v2 = load "fw-b" firmware_v2 in
  let changes = Nic_diff.compare v1 v2 in
  (* v1 -> v2: vlan added, rss moved, pkt_len moved; nothing breaking. *)
  check ab "vlan added" true
    (List.mem (Nic_diff.Semantic_added "vlan") changes);
  check ab "rss moved" true
    (List.exists
       (function Nic_diff.Field_moved { semantic = "rss"; _ } -> true | _ -> false)
       changes);
  check ab "upgrade is non-breaking" true
    (not (List.exists Nic_diff.breaking changes));
  (* The reverse direction removes vlan: breaking. *)
  let downgrade = Nic_diff.compare v2 v1 in
  check ab "downgrade removes vlan" true
    (List.mem (Nic_diff.Semantic_removed "vlan") downgrade);
  check ab "downgrade is breaking" true (List.exists Nic_diff.breaking downgrade)

let test_nic_diff_identity () =
  let m = Nic_models.Mlx5.model () in
  check ab "self-diff is empty" true (Nic_diff.compare m.spec m.spec = [])

let test_nic_diff_report_renders () =
  let load name src = Nic_spec.load_exn ~name ~kind:Nic_spec.Fixed_function src in
  let s =
    Format.asprintf "%a" Nic_diff.pp
      (Nic_diff.compare (load "a" firmware_v1) (load "b" firmware_v2))
  in
  check ab "mentions recompilation" true (contains s "recompilation")

(* ------------------------------------------------------------------ *)
(* Symbolic pruning: the memoized, feasibility-pruned enumeration must be
   observationally identical to the brute-force configuration product. *)

let test_memoized_enumeration_identical () =
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let spec = m.spec in
      match Path.enumerate_product spec.tenv spec.deparser with
      | Error e -> Alcotest.failf "%s: %s" spec.nic_name e
      | Ok product ->
          check ab (spec.nic_name ^ ": identical paths") true
            (Stdlib.compare product spec.paths = 0))
    (Nic_models.Catalog.all ())

let test_qdma_pruning_census () =
  let models = Nic_models.Catalog.all () in
  let m = Option.get (Nic_models.Catalog.find "qdma-programmable" models) in
  let p = m.spec.pruning in
  check ab "at least one leaf proved infeasible" true (p.Path.pr_pruned >= 1);
  check ai "census adds up" p.Path.pr_syntactic
    (p.Path.pr_feasible + p.Path.pr_pruned);
  check ab "memoization never runs more than the product" true
    (p.Path.pr_runs <= p.Path.pr_configs)

let test_accessor_certified_ranges () =
  (* Synthesized accessors carry the value range proved by the domain. *)
  let _, c = compile_for "e1000-newer" in
  let csum =
    match List.assoc "ip_checksum" c.bindings with
    | Compile.Hardware a -> a
    | Compile.Software _ -> Alcotest.fail "ip_checksum is hardware here"
  in
  check ab "16-bit field range" true (csum.a_range = (0L, 0xFFFFL));
  let lf =
    {
      Path.l_name = "flag";
      l_header = "h";
      l_semantic = Some "flag";
      l_bit_off = 0;
      l_bits = 8;
      l_span = P4.Loc.dummy;
    }
  in
  let clamped = Accessor.of_lfield ~registry_bits:1 lf in
  check ab "registry clamps the certified range" true
    (clamped.a_range = (0L, 1L));
  let blob = Accessor.of_lfield { lf with Path.l_bits = 128 } in
  check ab "blob fields carry no range" true (blob.a_range = (0L, 0L))

(* New application-defined semantic: declared in the intent with @cost,
   implemented in software, offloaded only by the programmable NIC. *)
let test_custom_semantic_lifecycle () =
  let intent_src =
    {|
@intent
header wants_t {
  @semantic("tenant_id") @cost(95) bit<32> tenant;
  @semantic("rss") bit<32> hash;
}
|}
  in
  let tenv = Prelude.check intent_src in
  let header = Option.get (P4.Typecheck.find_header tenv "wants_t") in
  let intent = Result.get_ok (Intent.of_program tenv) in
  let registry = Semantic.default () in
  (match Intent.register_custom_semantics registry header with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Software reference implementation: tenant = top byte of dst ip. *)
  let softnic = Softnic.Registry.builtin () in
  Softnic.Registry.register softnic
    {
      Softnic.Feature.semantic = "tenant_id";
      width_bits = 32;
      cost_cycles = 95.0;
      compute =
        (fun _ pkt v ->
          if v.is_ipv4 then
            Int64.of_int32 (Int32.shift_right_logical (Packet.Pkt.ipv4_dst pkt v) 24)
          else 0L);
    };
  (* Fixed NIC: tenant_id falls back to the software shim. *)
  let fixed = Nic_models.E1000.newer () in
  let c_fixed = Compile.run_exn ~registry ~softnic ~intent fixed.spec in
  check ab "software on fixed NIC" true (List.mem "tenant_id" (Compile.missing c_fixed));
  (* Programmable NIC (QDMA): synthesized description provides it. *)
  let qdma = Nic_models.Qdma.model ~intent ~registry () in
  let c_qdma = Compile.run_exn ~registry ~softnic ~intent qdma.spec in
  check ab "hardware on programmable NIC" true
    (List.mem "tenant_id" (Compile.hardware c_qdma))

(* ------------------------------------------------------------------ *)
(* Conformance validation *)

let test_validation_all_nics_conform () =
  (* Every behavioural model must pass its own contract: probe packets
     through the device, accessors vs software reference. *)
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let compiled = Compile.run_exn ~alpha:0.05 ~intent:fig1 m.spec in
      let device = Driver.Device.create_exn ~config:compiled.config m in
      let report = Driver.Validate.run ~probes:48 ~device ~compiled () in
      if not (Driver.Validate.conforms report) then
        Alcotest.failf "%s does not conform:@.%s" m.spec.nic_name
          (Format.asprintf "%a" Driver.Validate.pp report);
      check ab
        (m.spec.nic_name ^ " checked something")
        true
        (report.checked <> []))
    (Nic_models.Catalog.all ())

let test_validation_catches_lying_device () =
  (* A device whose silicon disagrees with its shipped description: the
     rss field is written with a wrong value. Validation must name it. *)
  let honest = Nic_models.Mlx5.model () in
  let lying =
    {
      honest with
      Nic_models.Model.resolve =
        (fun f ->
          let honest_f = honest.resolve f in
          if f.l_semantic = Some "rss" then fun env pkt view ->
            Int64.logxor (honest_f env pkt view) 0xDEADL
          else honest_f);
    }
  in
  let intent = Intent.make [ ("rss", 32); ("pkt_len", 32) ] in
  let compiled = Compile.run_exn ~intent lying.spec in
  let device = Driver.Device.create_exn ~config:compiled.config lying in
  let report = Driver.Validate.run ~probes:16 ~device ~compiled () in
  check ab "mismatches found" true (not (Driver.Validate.conforms report));
  check ab "rss named" true
    (List.for_all
       (fun (m : Driver.Validate.mismatch) -> m.mm_semantic = "rss")
       report.mismatches);
  check ab "pkt_len still clean" true
    (not
       (List.exists
          (fun (m : Driver.Validate.mismatch) -> m.mm_semantic = "pkt_len")
          report.mismatches))

let test_validation_skips_nondeterministic () =
  let m = Nic_models.Mlx5.model () in
  let intent = Intent.make [ ("wire_timestamp", 64); ("rss", 32) ] in
  let compiled = Compile.run_exn ~alpha:0.05 ~intent m.spec in
  let device = Driver.Device.create_exn ~config:compiled.config m in
  let report = Driver.Validate.run ~probes:8 ~device ~compiled () in
  check ab "timestamp unchecked" true (List.mem "wire_timestamp" report.unchecked);
  check ab "rss checked" true (List.mem "rss" report.checked);
  check ab "conforms" true (Driver.Validate.conforms report)

(* End-to-end property: for random intents over software-checkable
   semantics and random NICs, compile -> configure -> probe -> every
   hardware field conforms to the reference. *)
let prop_random_intents_conform =
  let checkable =
    [| "rss"; "vlan"; "pkt_len"; "csum_ok"; "ip_id"; "l3_type"; "l4_type";
       "flow_id"; "l4_checksum"; "lro_num_seg" |]
  in
  QCheck.Test.make ~name:"random intents: device conforms end to end" ~count:30
    QCheck.(triple (int_bound 6) (int_range 1 4) (int_bound 1000))
    (fun (nic_idx, n_sems, seed) ->
      let models = Nic_models.Catalog.all () in
      let model = List.nth models (nic_idx mod List.length models) in
      (* pick n distinct semantics pseudo-randomly *)
      let rng = Packet.Rng.create (Int64.of_int (seed + 17)) in
      let picked = Array.copy checkable in
      Packet.Rng.shuffle rng picked;
      let sems = Array.to_list (Array.sub picked 0 n_sems) in
      let intent = Intent.make (List.map (fun s -> (s, 32)) sems) in
      match Compile.run ~intent model.spec with
      | Error _ -> false (* these intents are always satisfiable *)
      | Ok compiled -> (
          match Driver.Device.create ~config:compiled.config model with
          | Error _ -> false
          | Ok device ->
              let report = Driver.Validate.run ~probes:12 ~device ~compiled () in
              Driver.Validate.conforms report))

(* ------------------------------------------------------------------ *)
(* Generated sources for every NIC are well-formed *)

let test_generated_sources_all_nics () =
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let c = Compile.run_exn ~intent:fig1 m.spec in
      let csrc = Compile.c_source c in
      let esrc = Compile.ebpf_source c in
      check ab (m.spec.nic_name ^ " c guard") true (contains csrc "#ifndef");
      check ab (m.spec.nic_name ^ " c endif") true (contains csrc "#endif");
      check ab (m.spec.nic_name ^ " ebpf xdp") true (contains esrc "SEC(\"xdp\")");
      (* braces balance in generated C *)
      let balance s =
        String.fold_left
          (fun acc ch -> if ch = '{' then acc + 1 else if ch = '}' then acc - 1 else acc)
          0 s
      in
      check ai (m.spec.nic_name ^ " c braces") 0 (balance csrc);
      check ai (m.spec.nic_name ^ " ebpf braces") 0 (balance esrc))
    (Nic_models.Catalog.all ())

(* When a C compiler is present, the generated sources must survive
   -Wall -Wextra -Werror — the strongest well-formedness check available. *)
let gcc_available = Sys.command "gcc --version > /dev/null 2>&1" = 0

let test_generated_c_compiles_with_gcc () =
  if not gcc_available then ()
  else
    List.iter
      (fun (m : Nic_models.Model.t) ->
        let c = Compile.run_exn ~intent:fig1 m.spec in
        List.iter
          (fun (kind, src) ->
            let f = Filename.temp_file "opendesc" ".c" in
            let oc = open_out f in
            output_string oc src;
            close_out oc;
            let rc =
              Sys.command
                (Printf.sprintf
                   "gcc -std=c11 -Wall -Wextra -Werror -fsyntax-only %s" f)
            in
            Sys.remove f;
            if rc <> 0 then
              Alcotest.failf "%s %s does not compile" m.spec.nic_name kind)
          [ ("header", Compile.c_source c); ("datapath", Compile.datapath_source c) ])
      (Nic_models.Catalog.all ())

let test_datapath_structure () =
  let c = Compile.run_exn ~intent:fig1 (Nic_models.E1000.newer ()).spec in
  let src = Compile.datapath_source c in
  check ab "rx burst" true (contains src "rx_burst");
  check ab "tx prepare" true (contains src "tx_prepare");
  check ab "meta struct" true (contains src "struct opendesc_e1000_newer_meta");
  check ab "dd-bit poll" true (contains src "completion not ready");
  check ab "softnic shim call" true (contains src "opendesc_soft_rss(pkt, len)")

let test_report_paths_for_all_nics () =
  List.iter
    (fun (m : Nic_models.Model.t) ->
      let s = Format.asprintf "%a" Report.paths m.spec in
      check ab (m.spec.nic_name ^ " report") true (contains s m.spec.nic_name))
    (Nic_models.Catalog.all ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "integration"
    [
      ( "fig1-matrix",
        [
          Alcotest.test_case "e1000 legacy" `Quick test_fig1_e1000_legacy;
          Alcotest.test_case "e1000 newer (fig6 economics)" `Quick test_fig1_e1000_newer;
          Alcotest.test_case "bluefield kvs slot" `Quick test_fig1_bluefield_provides_kvs;
          Alcotest.test_case "qdma all hardware" `Quick test_fig1_qdma_all_hardware;
          Alcotest.test_case "all nics compile" `Quick test_fig1_all_nics_compile;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "kvs traffic on all nics" `Quick
            test_end_to_end_kvs_traffic_on_all_nics;
          Alcotest.test_case "rss steering agreement" `Quick
            test_end_to_end_rss_steering_agreement;
          Alcotest.test_case "unsat at compile time" `Quick
            test_unsat_reported_at_compile_time;
        ] );
      ( "evolvability",
        [
          Alcotest.test_case "firmware upgrade" `Quick
            test_firmware_upgrade_keeps_app_working;
          Alcotest.test_case "custom semantic lifecycle" `Quick
            test_custom_semantic_lifecycle;
          Alcotest.test_case "firmware diff" `Quick test_nic_diff_firmware_revisions;
          Alcotest.test_case "diff identity" `Quick test_nic_diff_identity;
          Alcotest.test_case "diff report" `Quick test_nic_diff_report_renders;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "memoized = product" `Quick
            test_memoized_enumeration_identical;
          Alcotest.test_case "qdma census" `Quick test_qdma_pruning_census;
          Alcotest.test_case "certified ranges" `Quick
            test_accessor_certified_ranges;
        ] );
      ( "validation",
        [
          Alcotest.test_case "all nics conform" `Quick test_validation_all_nics_conform;
          Alcotest.test_case "lying device caught" `Quick
            test_validation_catches_lying_device;
          Alcotest.test_case "nondeterministic skipped" `Quick
            test_validation_skips_nondeterministic;
          QCheck_alcotest.to_alcotest prop_random_intents_conform;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "sources well-formed" `Quick test_generated_sources_all_nics;
          Alcotest.test_case "gcc -Werror clean" `Slow test_generated_c_compiles_with_gcc;
          Alcotest.test_case "datapath structure" `Quick test_datapath_structure;
          Alcotest.test_case "reports render" `Quick test_report_paths_for_all_nics;
        ] );
    ]
