(* The repository benchmark. Each workload drives the public interfaces
   of packet, softnic, p4, opendesc, opendesc_analysis, nic_models and
   driver, timing every call from outside; no library is changed for it.
   Load comes from this one process with at most two running domains (a
   producer and one worker). See README.md for the workloads, metrics and
   the layer each per-layer metric should move. *)

module Q = Perfbench.Quantile
module Tr = Perfbench.Trace
module Ck = Perfbench.Checks
module W = Packet.Workload
module Par = Driver.Parallel
module Mq = Driver.Mq
module Dev = Driver.Device
module F = Driver.Fault

(* ------------------------------------------------------------------ *)
(* Command line                                                       *)

let workloads =
  [ "rx_hw_min64"; "rx_shim_kvs"; "control_catalog"; "live_swap_e1000" ]

let usage =
  "main.exe --workload <" ^ String.concat "|" workloads
  ^ "> --seed <n> --seconds <s> --trace <0|1>"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let workload_arg, seed_arg, seconds_arg, traced =
  let w = ref "" and seed = ref None and secs = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string w, " workload name");
      ("--seed", Arg.Int (fun n -> seed := Some n), " input seed");
      ("--seconds", Arg.Set_int secs, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !w workloads) then die "unknown workload %S\n%s" !w usage;
  let seed = match !seed with Some s -> s | None -> die "missing --seed" in
  if !secs < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (!w, seed, !secs, !trace = 1)

let seed64 = Int64.of_int seed_arg

(* ------------------------------------------------------------------ *)
(* Clock, results and output                                          *)

let now = Tr.now_ns
let secs_of ns = float_of_int ns *. 1e-9
(* The instant [frac] of the run length from now. *)
let deadline frac = now () + int_of_float (frac *. float_of_int seconds_arg *. 1e9)

let attempted = ref 0
let failed = ref 0
let failures = ref []

(* Every checked unit counts its operations as attempted and, when any
   of its conditions fails, all of them as failed. *)
let check ~what ~ops conds =
  attempted := !attempted + ops;
  failed := !failed + Ck.failed_ops ~attempted:ops conds;
  List.iter (fun c -> failures := (what ^ ": " ^ c) :: !failures) conds

let metrics = ref []
let metric name unit v = metrics := (name, unit, v) :: !metrics

(* A named figure printed for the reader but not part of the JSON line:
   the headline names the workloads are discussed under. *)
let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let emit () =
  let ms = List.rev !metrics in
  List.iter (fun (n, u, v) -> note "%-34s %14.6g %s" n v u) ms;
  let failures = List.rev !failures in
  List.iteri (fun i f -> if i < 20 then Printf.printf "  FAILED %s\n" f) failures;
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) ms in
  let correct = !failed = 0 && failures = [] && !attempted > 0 && finite in
  Printf.printf "  fail_pct = %.4f %% (%d of %d operations)\n"
    (100.0 *. float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  let fields =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " fields);
  exit (if correct then 0 else 1)

(* Growable sample store. *)
let samples () = ref []
let push r v = r := v :: !r
let arr r = Array.of_list (List.rev !r)
let median r = Q.median (arr r)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up runs [setup_reps] times in an untraced run (its median is
   setup_s); the last result is the one measured. *)
let setup_reps = 7

let setup f =
  let reps = if traced then 1 else setup_reps in
  let times = Array.make reps 0.0 and last = ref None in
  for i = 0 to reps - 1 do
    let t0 = now () in
    last := Some (f ());
    times.(i) <- secs_of (now () - t0)
  done;
  if not traced then metric "setup_s" "s" (Q.median times);
  Gc.full_major ();
  Option.get !last

(* Runs [f] until [until] has passed and at least [min] times. *)
let repeat ~until ~min f =
  let n = ref 0 in
  while !n < min || now () < until do
    f ();
    incr n
  done

(* ------------------------------------------------------------------ *)
(* Shared configuration                                               *)

let queues = 4
let batch = 64
let flows = 64
let ring_capacity = 4096
let queue_depth = 1024
let stack_of compiled _ = Driver.Hoststacks.opendesc_batched ~compiled

(* A p90 needs 100 samples for ten to lie beyond it. *)
let p90_samples = 100

let mq_for ?(queue_depth = queue_depth) (compiled : Opendesc.Compile.t) model =
  Mq.create_exn ~queue_depth
    ~configs:(Array.make queues compiled.Opendesc.Compile.config)
    model

let lost (c : F.counters) =
  c.rx_accepted + c.duplicates - c.delivered - c.quarantined

(* ------------------------------------------------------------------ *)
(* Layer trace                                                        *)

let layers =
  [|
    "burst"; "workload"; "mq.steer"; "pktring.push"; "pktring.pop";
    "device.inject"; "device.harvest"; "decode"; "contract"; "p4.lex";
    "p4.parse"; "p4.typecheck"; "nic_spec.load"; "path.enumerate";
    "compile.run"; "certify"; "costbound";
  |]

let l_burst = 0
and l_gen = 1
and l_steer = 2
and l_push = 3
and l_pop = 4
and l_inject = 5
and l_harvest = 6
and l_decode = 7
and l_contract = 8
and l_lex = 9
and l_parse = 10
and l_typecheck = 11
and l_load = 12
and l_enumerate = 13
and l_compile = 14
and l_certify = 15
and l_costbound = 16

let tr = Tr.create ~capacity:(if traced then 1 lsl 18 else 1) layers

let span layer ~parent ~burst t0 =
  let t1 = now () in
  ignore (Tr.add tr ~layer ~parent ~burst ~start:t0 ~stop:t1);
  t1

(* How a walk reaches a queue: straight to the device, or through a
   fault wrapper (live_swap_e1000's datapath). *)
type port = {
  inject : int -> bytes -> int -> unit;
  harvest : int -> Dev.burst -> int;
  pending : int -> int;
  finish : unit -> unit;
}

let direct mq =
  {
    inject = (fun q buf len -> ignore (Dev.rx_inject_raw (Mq.queue mq q) buf ~len));
    harvest = (fun q b -> Dev.rx_consume_batch (Mq.queue mq q) b);
    pending = (fun q -> Dev.rx_available (Mq.queue mq q));
    finish = ignore;
  }

let faulty fqs =
  {
    inject =
      (fun q buf len ->
        ignore (F.rx_inject fqs.(q) (Packet.Pkt.create (Bytes.sub buf 0 len))));
    harvest = (fun q b -> F.harvest fqs.(q) b);
    pending = (fun q -> F.rx_available fqs.(q));
    finish = (fun () -> Array.iter F.flush fqs);
  }

type walk = {
  mutable w_pkts : int;
  mutable w_wall : int;
  mutable w_inject_words : float;
  mutable w_decode_words : float;
  mutable w_harvested : int;
  mutable w_harvests : int;  (** non-empty harvests *)
  mutable w_dma : int;
  mutable w_drops : int;
  mutable w_runs : int;  (** handoff runs, the span burst ids *)
}

let walk_zero () =
  {
    w_pkts = 0; w_wall = 0; w_inject_words = 0.0; w_decode_words = 0.0;
    w_harvested = 0; w_harvests = 0; w_dma = 0; w_drops = 0; w_runs = 0;
  }

(* One pass of [pkts] packets through the datapath layers in sequence,
   as the parallel engine's producer and worker run them: generation,
   steering and handoff push, then pop, device inject, harvest and
   decode. A span covers one layer's work on one handoff run of
   [batch * queues] packets (one harvest burst for harvest and decode),
   so clock reads stay negligible next to ~40 ns decodes. Returns the
   consumer digest and the packets delivered. *)
let walk_pass w ~mq ~port ~stack ~workload ~pkts =
  let nq = Mq.queues mq in
  let devices = Array.init nq (Mq.queue mq) in
  Array.iter Dev.reset_counters devices;
  let run = batch * nq in
  let ring =
    Par.Pktring.create ~capacity:(2 * run) ~slot_size:(Dev.buf_size devices.(0))
  in
  let bursts = Mq.bursts ~capacity:batch mq in
  let cache = Mq.make_steer_cache () in
  let env = Softnic.Feature.make_env () in
  let consumers = Array.init nq stack in
  let pk = Array.make run (Packet.Pkt.create Bytes.empty) in
  let qs = Array.make run 0 and slots = Array.make run 0 in
  let sink = ref 0L and delivered = ref 0 in
  let t_start = now () in
  let harvest_queue ~parent ~burst q =
    let b = bursts.(q) in
    let continue = ref true in
    while !continue do
      let t0 = now () in
      let n = port.harvest q b in
      let t1 = span l_harvest ~parent ~burst t0 in
      if n > 0 then begin
        w.w_harvested <- w.w_harvested + n;
        w.w_harvests <- w.w_harvests + 1;
        let m0 = Gc.minor_words () in
        sink := Int64.add !sink (consumers.(q).Driver.Stack.bt_consume Driver.Cost.null env b);
        let m1 = Gc.minor_words () in
        ignore (span l_decode ~parent ~burst t1);
        w.w_decode_words <- w.w_decode_words +. (m1 -. m0);
        delivered := !delivered + n
      end
      else continue := port.pending q > 0
    done
  in
  let off = ref 0 in
  while !off < pkts do
    let m = min run (pkts - !off) in
    let burst = w.w_runs in
    w.w_runs <- burst + 1;
    let t0 = now () in
    let parent = Tr.open_span tr ~layer:l_burst ~parent:(-1) ~burst ~start:t0 in
    for i = 0 to m - 1 do
      pk.(i) <- W.next workload
    done;
    let t1 = span l_gen ~parent ~burst t0 in
    for i = 0 to m - 1 do
      qs.(i) <- Mq.steer_cached mq cache pk.(i)
    done;
    let t2 = span l_steer ~parent ~burst t1 in
    for i = 0 to m - 1 do
      let p = pk.(i) in
      if not (Par.Pktring.try_push ring p.Packet.Pkt.buf ~len:p.len ~qid:qs.(i))
      then failwith "handoff ring full"
    done;
    Par.Pktring.flush ring;
    let t3 = span l_push ~parent ~burst t2 in
    (* The walk is single-threaded, so a released slot keeps its bytes
       until the next run's pushes: pop first, then inject from the
       slots, to time the two layers apart. *)
    for i = 0 to m - 1 do
      slots.(i) <- Par.Pktring.peek ring;
      Par.Pktring.advance ring
    done;
    let t4 = span l_pop ~parent ~burst t3 in
    let m0 = Gc.minor_words () in
    for i = 0 to m - 1 do
      let s = slots.(i) in
      port.inject (Par.Pktring.qid ring s) (Par.Pktring.buf ring s)
        (Par.Pktring.len ring s)
    done;
    let m1 = Gc.minor_words () in
    ignore (span l_inject ~parent ~burst t4);
    w.w_inject_words <- w.w_inject_words +. (m1 -. m0);
    for q = 0 to nq - 1 do
      harvest_queue ~parent ~burst q
    done;
    Tr.close_span tr parent ~layer:l_burst ~start:t0 ~stop:(now ());
    off := !off + m
  done;
  port.finish ();
  for q = 0 to nq - 1 do
    harvest_queue ~parent:(-1) ~burst:(-1) q
  done;
  w.w_pkts <- w.w_pkts + pkts;
  w.w_wall <- w.w_wall + (now () - t_start);
  w.w_dma <- w.w_dma + Array.fold_left (fun a d -> a + Dev.dma_bytes d) 0 devices;
  w.w_drops <- w.w_drops + Array.fold_left (fun a d -> a + Dev.drops d) 0 devices;
  (!sink, !delivered)

let per w x = x /. float_of_int (max 1 w.w_pkts)

let sum_layers ls = List.fold_left (fun a l -> a + Tr.layer_ns tr l) 0 ls

let walk_covered () =
  sum_layers [ l_gen; l_steer; l_push; l_pop; l_inject; l_harvest; l_decode ]

let control_covered () =
  sum_layers
    [ l_lex; l_parse; l_typecheck; l_load; l_enumerate; l_compile; l_certify;
      l_costbound ]

let walk_metrics w =
  let ns l = per w (float_of_int (Tr.layer_ns tr l)) in
  metric "workload.gen_ns_per_pkt" "ns" (ns l_gen);
  metric "mq.steer_ns_per_pkt" "ns" (ns l_steer);
  metric "pktring.push_ns_per_pkt" "ns" (ns l_push);
  metric "pktring.pop_ns_per_pkt" "ns" (ns l_pop);
  metric "device.inject_ns_per_pkt" "ns" (ns l_inject);
  metric "device.inject_words_per_pkt" "words" (per w w.w_inject_words);
  metric "device.harvest_ns_per_pkt" "ns" (ns l_harvest);
  metric "device.burst_fill" "ratio"
    (float_of_int w.w_harvested /. float_of_int (max 1 (w.w_harvests * batch)));
  metric "device.dma_bytes_per_pkt" "B" (per w (float_of_int w.w_dma));
  metric "device.drops" "count" (float_of_int w.w_drops);
  metric "decode.ns_per_pkt" "ns" (ns l_decode);
  metric "decode.words_per_pkt" "words" (per w w.w_decode_words);

(* ------------------------------------------------------------------ *)
(* Control plane: one contract, cold, from P4 source                  *)

type pair = {
  nic : string;
  kind : Opendesc.Nic_spec.kind;
  source : string;
  intent : Opendesc.Intent.t;
}

let pair_of_spec (spec : Opendesc.Nic_spec.t) intent =
  { nic = spec.nic_name; kind = spec.kind; source = spec.p4_source; intent }

(* The ledger and the static bound are compared at the burst size the
   cost_bound experiment uses. *)
let bound_burst = 32

type contract = { bound : float; certified : bool }

(* Source text + intent -> certified, cost-bounded contract, with the
   compile cache cleared so nothing is reused. *)
let build_contract p =
  Opendesc.Cache.clear ();
  match Opendesc.Nic_spec.load ~name:p.nic ~kind:p.kind p.source with
  | Error e -> Error e
  | Ok spec -> (
      match Opendesc.Compile.run ~intent:p.intent spec with
      | Error e -> Error e
      | Ok c ->
          let certified = Result.is_ok (Opendesc.Compile.certify c) in
          let bound =
            Opendesc_analysis.Costbound.plan_bound ~burst:bound_burst
              (Opendesc.Compile.to_plan c)
          in
          Ok { bound; certified })

let check_contract p ledger = function
  | Error e -> check ~what:p.nic ~ops:1 [ e ]
  | Ok c ->
      check ~what:p.nic ~ops:1
        (Ck.contract ~certified:c.certified ~bound:c.bound ~ledger)

(* The same path, one public call per span. [nic_spec.load] re-runs the
   frontend the three spans before it time on their own. *)
type control = {
  mutable c_ops : int;
  mutable c_wall : int;
  mutable c_tokens : int;
  mutable c_feasible : int;
  mutable c_pruned : int;
  mutable c_runs : int;
}

let traced_contract c ~burst p =
  Opendesc.Cache.clear ();
  let full = Opendesc.Prelude.source ^ p.source in
  let t0 = now () in
  let parent = Tr.open_span tr ~layer:l_contract ~parent:(-1) ~burst ~start:t0 in
  let tokens = P4.Lexer.tokenize full in
  let t1 = span l_lex ~parent ~burst t0 in
  let prog = P4.Parser.parse_program full in
  let t2 = span l_parse ~parent ~burst t1 in
  ignore (P4.Typecheck.check prog);
  let t3 = span l_typecheck ~parent ~burst t2 in
  let spec = Opendesc.Nic_spec.load_exn ~name:p.nic ~kind:p.kind p.source in
  let t4 = span l_load ~parent ~burst t3 in
  let pruning =
    match Opendesc.Path.enumerate_pruned spec.tenv spec.deparser with
    | Ok (_, pr) -> pr
    | Error e -> failwith e
  in
  let t5 = span l_enumerate ~parent ~burst t4 in
  let compiled = Opendesc.Compile.run_exn ~intent:p.intent spec in
  let t6 = span l_compile ~parent ~burst t5 in
  let certified = Result.is_ok (Opendesc.Compile.certify compiled) in
  let t7 = span l_certify ~parent ~burst t6 in
  ignore
    (Opendesc_analysis.Costbound.plan_bound ~burst:bound_burst
       (Opendesc.Compile.to_plan compiled));
  let t8 = span l_costbound ~parent ~burst t7 in
  Tr.close_span tr parent ~layer:l_contract ~start:t0 ~stop:t8;
  c.c_ops <- c.c_ops + 1;
  c.c_wall <- c.c_wall + (t8 - t0);
  c.c_tokens <- c.c_tokens + List.length tokens;
  c.c_feasible <- c.c_feasible + pruning.pr_feasible;
  c.c_pruned <- c.c_pruned + pruning.pr_pruned;
  c.c_runs <- c.c_runs + pruning.pr_runs;
  check ~what:("traced " ^ p.nic) ~ops:0
    (if certified then [] else [ "does not certify" ])

(* Cold contracts for [frac] of the run, then warm cache lookups. *)
let control_leg pairs ~frac =
  let c =
    { c_ops = 0; c_wall = 0; c_tokens = 0; c_feasible = 0; c_pruned = 0; c_runs = 0 }
  in
  let until = deadline frac in
  let sweeps = ref 0 in
  repeat ~until ~min:1 (fun () ->
      List.iter (traced_contract c ~burst:!sweeps) pairs;
      incr sweeps);
  let specs =
    List.map
      (fun p -> (p, Opendesc.Nic_spec.load_exn ~name:p.nic ~kind:p.kind p.source))
      pairs
  in
  List.iter
    (fun (p, s) -> ignore (Opendesc.Cache.run_exn ~intent:p.intent s))
    specs;
  let lookups = 2000 in
  let t0 = now () in
  for _ = 1 to lookups / List.length specs do
    List.iter
      (fun (p, s) -> ignore (Opendesc.Cache.run_exn ~intent:p.intent s))
      specs
  done;
  let warm_ns =
    float_of_int (now () - t0)
    /. float_of_int (lookups / List.length specs * List.length specs)
  in
  let us l = float_of_int (Tr.layer_ns tr l) /. 1e3 /. float_of_int c.c_ops in
  let per x = float_of_int x /. float_of_int c.c_ops in
  metric "p4.lex_us" "us" (us l_lex);
  metric "p4.parse_us" "us" (us l_parse -. us l_lex);
  metric "p4.typecheck_us" "us" (us l_typecheck);
  metric "p4.tokens" "count" (per c.c_tokens);
  metric "nic_spec.load_us" "us" (us l_load);
  metric "path.enumerate_us" "us" (us l_enumerate);
  metric "path.feasible" "count" (per c.c_feasible);
  metric "path.pruned" "count" (per c.c_pruned);
  metric "path.runs" "count" (per c.c_runs);
  metric "compile.run_us" "us" (us l_compile);
  metric "certify_us" "us" (us l_certify);
  metric "costbound_us" "us" (us l_costbound);
  metric "cache.warm_ns" "ns" warm_ns;
  c

(* ------------------------------------------------------------------ *)
(* Live swap                                                          *)

type swap_cfg = {
  old_spec : Opendesc.Nic_spec.t;
  new_spec : Opendesc.Nic_spec.t;
  s_intent : Opendesc.Intent.t;
  s_profile : W.profile;
  plan : F.plan;
  s_pkts : int;
}

let swap_batch = 32

(* Handoff ring, packets per swap run and the swap point: the producer
   has filled the ring by then, so each pause drains a full ring, and a
   hundred runs (about a second) fit inside one quiet spell of the host.
   Every run needs a fresh datapath, so its device rings are sized to
   what the run holds in flight rather than to the rx workloads' depth,
   which keeps the garbage each run leaves (and the GC work that lands
   in later pauses) small. *)
let swap_ring = 256
let swap_depth = 256
let swap_pkts = 512
let swap_at = 384

type swap_run = {
  res : Par.result;
  sw : Par.swap_outcome;
  verdict_s : float;
  verdict_hits : float;  (** compile-cache hit ratio inside the verdict *)
  faults : F.counters;
}

let revision_a_datapath cfg compiled_old =
  mq_for ~queue_depth:swap_depth compiled_old (fun () -> Nic_models.Model.make cfg.old_spec)

(* One hot swap on a revision-A datapath, fresh unless given (a swapped
   one serves revision B). The compile cache is cleared first, so the
   verdict pays recompile + certify as new firmware does; it comes from
   the public [Upgrade.dry_run] gate and is timed inside the swap
   callback. *)
let swap_once ?mq cfg ~compiled_old ~account =
  let mq =
    match mq with Some mq -> mq | None -> revision_a_datapath cfg compiled_old
  in
  let branded = { cfg.new_spec with nic_name = cfg.old_spec.nic_name } in
  Opendesc.Cache.clear ();
  let verdict_s = ref 0.0 and verdict_hits = ref 0.0 in
  let swap () =
    let t0 = now () in
    let cmd =
      match
        Driver.Upgrade.dry_run ~intent:cfg.s_intent ~old_spec:cfg.old_spec
          ~new_spec:cfg.new_spec ()
      with
      | Ok { o_action = Driver.Upgrade.Applied; o_compiled_new = Some c; _ } ->
          Par.Swap_apply
            {
              sc_config = c.config;
              sc_model = (fun () -> Nic_models.Model.make branded);
              sc_stack = stack_of c;
            }
      | Ok _ | Error _ -> Par.Swap_refuse
    in
    verdict_s := secs_of (now () - t0);
    let c = Opendesc.Cache.stats () in
    verdict_hits := float_of_int c.hits /. float_of_int (max 1 (c.hits + c.misses));
    cmd
  in
  let res, sw =
    Par.hot_swap ~domains:1 ~batch:swap_batch ~ring_capacity:swap_ring ~account
      ~plan:cfg.plan ~mq
      ~stack:(stack_of compiled_old) ~pkts:cfg.s_pkts ~at:swap_at
      ~swap
      ~workload:(W.make ~seed:seed64 cfg.s_profile)
      ()
  in
  let faults =
    match res.faults with
    | Some cs -> F.counters_sum (Array.to_list cs)
    | None -> F.counters_zero ()
  in
  check ~what:"live swap" ~ops:1
    (Ck.swap ~applied:(sw.sw_action = Par.Sw_applied)
       ~reconciles:(F.reconciles faults) ~lost:(lost faults) ~torn:sw.sw_torn
       ~upgrade_errors:sw.sw_upgrade_errors ~stranded:res.stranded
       ~drops:res.drops);
  { res; sw; verdict_s = !verdict_s; verdict_hits = !verdict_hits; faults }

let model_cycles (r : Par.result) =
  Array.fold_left max 0.0 r.domain_cycles /. float_of_int (max 1 r.pkts)

(* The upgrade and fault layers over [frac] of the run (at least five
   swaps), plus the evolution checker on the revision pair. *)
let swap_leg cfg ~compiled_old ~frac =
  let verdicts = samples () and drains = samples () and inflight = samples () in
  let hits = samples () in
  let fc = ref [] in
  repeat ~until:(deadline frac) ~min:5 (fun () ->
      let s = swap_once cfg ~compiled_old ~account:false in
      push verdicts (s.verdict_s *. 1e3);
      push drains ((s.sw.sw_pause_s -. s.verdict_s) *. 1e3);
      push inflight (float_of_int s.sw.sw_inflight);
      push hits s.verdict_hits;
      fc := s.faults :: !fc);
  let checks = samples () in
  for _ = 1 to 20 do
    let t0 = now () in
    ignore (Opendesc.Nic_diff.check cfg.old_spec cfg.new_spec);
    push checks (float_of_int (now () - t0) /. 1e3)
  done;
  metric "upgrade.verdict_ms" "ms" (median verdicts);
  metric "upgrade.drain_ms" "ms" (median drains);
  metric "upgrade.inflight_at_swap" "count" (median inflight);
  metric "nic_diff.check_us" "us" (median checks);
  metric "cache.hit_ratio" "ratio" (median hits);
  let runs = float_of_int (List.length !fc) in
  let c = F.counters_sum !fc in
  let mean x = float_of_int x /. runs in
  metric "fault.injected" "count" (mean c.injected);
  metric "fault.detected" "count" (mean c.detected);
  metric "fault.quarantined" "count" (mean c.quarantined);
  metric "fault.duplicates" "count" (mean c.duplicates);
  metric "fault.retries" "count" (mean c.retries);
  metric "fault.detection_ratio" "ratio"
    (if c.contract_violating = 0 then 1.0
     else float_of_int c.detected /. float_of_int c.contract_violating)

(* ------------------------------------------------------------------ *)
(* Shared per-layer pieces                                            *)

(* Toeplitz over the workload's own flow table, as 4-tuples and as the
   same flows in IPv4-mapped IPv6 form. *)
let toeplitz_metrics workload =
  let n = W.flows workload in
  let tuples = Array.init n (W.flow_of workload) in
  let v6 a =
    let b = Bytes.make 16 '\000' in
    Bytes.set_uint16_be b 10 0xffff;
    Bytes.set_int32_be b 12 a;
    b
  in
  let mapped =
    Array.map (fun (t : Packet.Fivetuple.t) -> (v6 t.src_ip, v6 t.dst_ip)) tuples
  in
  let reps = max 1 (4096 / n) in
  let acc = ref 0l in
  let time hash =
    let t0 = now () in
    for _ = 1 to reps do
      for i = 0 to n - 1 do
        acc := Int32.logxor !acc (hash i)
      done
    done;
    float_of_int (now () - t0) /. float_of_int (reps * n)
  in
  metric "toeplitz.ipv4_ns_per_hash" "ns"
    (time (fun i -> Softnic.Toeplitz.hash_flow tuples.(i)));
  metric "toeplitz.ipv6_ns_per_hash" "ns"
    (time (fun i ->
         let src, dst = mapped.(i) and t = tuples.(i) in
         Softnic.Toeplitz.hash_ipv6_flow ~src ~dst ~src_port:t.src_port
           ~dst_port:t.dst_port ()))

(* The cost ledger's categories, per packet ([soft] sums every SoftNIC
   shim's [soft_<semantic>] charge). *)
let ledger_metrics breakdown =
  let get k = Option.value ~default:0.0 (List.assoc_opt k breakdown) in
  List.iter
    (fun k -> metric ("model." ^ k ^ "_cycles_per_pkt") "cycles" (get k))
    [ "ring"; "refill"; "doorbell"; "desc_load"; "accessor"; "sw_parse" ];
  metric "model.soft_cycles_per_pkt" "cycles"
    (List.fold_left
       (fun a (k, v) -> if String.starts_with ~prefix:"soft_" k then a +. v else a)
       0.0 breakdown)

let trace_summary ~covered ~wall ~ops ~untraced_ops =
  let coverage = 100.0 *. float_of_int covered /. float_of_int (max 1 wall) in
  let traced_ops = float_of_int ops /. secs_of wall in
  metric "trace.coverage_pct" "%" coverage;
  metric "trace.overhead_x" "ratio" (untraced_ops /. traced_ops);
  note "traced: %d ops at %.1f/s (untraced %.1f/s); layer spans cover %.1f %% \
        of traced wall time" ops traced_ops untraced_ops coverage

let write_spans () =
  let file =
    Filename.concat "_build"
      (Printf.sprintf "perfbench-spans-%s-%d.tsv" workload_arg seed_arg)
  in
  Tr.write tr file;
  note "spans: %d stored (%d past capacity) in %s" (Tr.stored tr)
    (Tr.overflow tr) file

(* ------------------------------------------------------------------ *)
(* The measured loop shared by every workload                         *)

(* What one repetition of a workload's operation observed. *)
type obs = {
  rate : float;  (** operations per second *)
  lat_ms : float list;  (** one latency per operation timed *)
  words : float;  (** minor words per operation *)
  idle : int * int * int;  (** engine spins, parks, wakes *)
}

type loop = {
  rates : float list ref;
  lats : float list ref;
  words : float list ref;
  spins : float list ref;
  parks : float list ref;
  wakes : float list ref;
  minor_gcs : float list ref;
  major_gcs : float list ref;
}

let run_loop ~frac ~min rep =
  let l =
    {
      rates = samples (); lats = samples (); words = samples ();
      spins = samples (); parks = samples (); wakes = samples ();
      minor_gcs = samples (); major_gcs = samples ();
    }
  in
  repeat ~until:(deadline frac) ~min (fun () ->
      let g0 = Gc.quick_stat () in
      let o = rep () in
      let g1 = Gc.quick_stat () in
      let s, p, w = o.idle in
      push l.rates o.rate;
      List.iter (push l.lats) o.lat_ms;
      push l.words o.words;
      push l.spins (float_of_int s);
      push l.parks (float_of_int p);
      push l.wakes (float_of_int w);
      push l.minor_gcs (float_of_int (g1.minor_collections - g0.minor_collections));
      push l.major_gcs (float_of_int (g1.major_collections - g0.major_collections)));
  l

(* Latency percentiles over the fastest window of consecutive
   repetitions holding a hundred latency samples (a p90 needs ten beyond
   it). [period] is how many latency samples one repetition gives. *)
let latency_window ~period = (p90_samples + period - 1) / period

let latency l ~period =
  let reps = latency_window ~period in
  let rates = arr l.rates in
  match Q.fastest_window ~size:reps rates with
  | Some i ->
      let w = Array.sub (arr l.lats) (i * period) (reps * period) in
      (Q.median w, Option.get (Q.percentile 0.9 w))
  | None ->
      check ~what:"latency" ~ops:0
        [ Printf.sprintf "%d repetitions, fewer than the %d a p90 needs"
            (Array.length rates) reps ];
      (nan, nan)

(* Throughput is the best repetition's rate: the host's speed drifts for
   seconds at a time, and the best repetition is the estimator that
   repeats from run to run. *)
let e2e_metrics l ~cycles =
  let rates = arr l.rates in
  let ops = Array.fold_left Float.max 0.0 rates in
  metric "ops_per_s" "1/s" ops;
  metric "model_cycles_per_op" "cycles" cycles;
  metric "minor_words_per_op" "words" (median l.words);
  metric "peak_heap_mb" "MB" (heap_mb ());
  note "%d repetitions; host noise: repetition rates spread %.3f (IQR / \
        median) in this run"
    (Array.length rates) (Q.iqr_share rates);
  ops

let latency_metrics l ~period =
  let p50, p90 = latency l ~period in
  metric "latency.op_ms_p50" "ms" p50;
  metric "latency.op_ms_p90" "ms" p90

let loop_layer_metrics l =
  metric "parallel.spins" "count" (median l.spins);
  metric "parallel.parks" "count" (median l.parks);
  metric "parallel.wakes" "count" (median l.wakes);
  metric "gc.minor_collections" "count" (median l.minor_gcs);
  metric "gc.major_collections" "count" (median l.major_gcs)

let idle_of (r : Par.result) = (r.stats.spins, r.stats.parks, r.stats.wakes)

(* ------------------------------------------------------------------ *)
(* rx_hw_min64 and rx_shim_kvs                                        *)

type rx = {
  model : unit -> Nic_models.Model.t;
  rx_intent : Opendesc.Intent.t;
  profile : W.profile;
}

let rx_hw_min64 =
  {
    model = Nic_models.Mlx5.model;
    rx_intent =
      Opendesc.Intent.make
        (List.map (fun s -> (s, 32)) [ "rss"; "pkt_len"; "vlan"; "csum_ok" ]);
    profile = W.Min_size;
  }

let rx_shim_kvs =
  {
    model = Nic_models.E1000.legacy;
    rx_intent = Nic_models.Catalog.fig1_intent;
    profile = W.Kvs { key_len = 16 };
  }

(* Packets per engine run: short, so that the hundred runs a p90 window
   needs (well under a second) fit inside one quiet spell of the host. *)
let rx_pkts = 512

type rx_state = {
  compiled : Opendesc.Compile.t;
  spec : Opendesc.Nic_spec.t;
  mq : Mq.t;
  pkts : Packet.Pkt.t array;
}

(* Spec load from P4 source, cold compile, queue creation, and the
   generation and steering the engine's [~pregen] does before its clock
   starts. *)
let rx_setup c () =
  let m = c.model () in
  Opendesc.Cache.clear ();
  let compiled = Opendesc.Cache.run_exn ~intent:c.rx_intent m.spec in
  let mq = mq_for compiled c.model in
  let workload = W.make ~seed:seed64 ~flows c.profile in
  let pkts = Array.init rx_pkts (fun _ -> W.next workload) in
  let cache = Mq.make_steer_cache () in
  Array.iter (fun p -> ignore (Mq.steer_cached mq cache p)) pkts;
  { compiled; spec = m.spec; mq; pkts }

(* The digest the sequential batched path gives for the same packets. *)
let sequential_digest c s =
  let mq = mq_for s.compiled c.model in
  let bursts = Mq.bursts ~capacity:batch mq in
  let stack = Driver.Hoststacks.opendesc_batched ~compiled:s.compiled in
  let env = Softnic.Feature.make_env () in
  let sink = ref 0L and delivered = ref 0 in
  let drain () =
    let n =
      Mq.drain_batched mq bursts ~f:(fun _ b ->
          sink := Int64.add !sink (stack.bt_consume Driver.Cost.null env b))
    in
    delivered := !delivered + n;
    n
  in
  Array.iteri
    (fun i p ->
      ignore (Mq.rx_inject mq p);
      if (i + 1) mod batch = 0 then ignore (drain ()))
    s.pkts;
  while drain () > 0 do () done;
  check ~what:"sequential reference" ~ops:0
    (Ck.delivery ~offered:rx_pkts ~delivered:!delivered ~stranded:0 ~drops:0);
  !sink

let rx_run c s ~account ~reference =
  let r =
    Par.run ~domains:1 ~batch ~ring_capacity ~account ~pregen:true ~mq:s.mq
      ~stack:(stack_of s.compiled) ~pkts:rx_pkts
      ~workload:(W.make ~seed:seed64 ~flows c.profile)
      ()
  in
  check ~what:"datapath" ~ops:rx_pkts
    (Ck.datapath ~offered:rx_pkts ~delivered:r.pkts ~stranded:r.stranded
       ~drops:r.drops ~sink:r.sink ~reference);
  r

let rx_rep c s ~reference () =
  let r = rx_run c s ~account:false ~reference in
  {
    rate = float_of_int r.pkts /. r.wall_s;
    lat_ms = [ r.wall_s *. 1e3 ];
    words = r.minor_words_per_pkt;
    idle = idle_of r;
  }

let rx_workload c =
  let s = setup (rx_setup c) in
  let reference = sequential_digest c s in
  if not traced then begin
    let l = run_loop ~frac:1.0 ~min:p90_samples (rx_rep c s ~reference) in
    let acct = rx_run c s ~account:true ~reference in
    let ops = e2e_metrics l ~cycles:(model_cycles acct) in
    let p50, p90 = latency l ~period:1 in
    note "rx_mpps = %.6f Mpps, model_cycles_per_pkt = %.4f cycles, engine \
          run of %d packets p50 = %.4f ms, p90 = %.4f ms"
      (ops /. 1e6) (model_cycles acct) rx_pkts p50 p90
  end
  else begin
    let l = run_loop ~frac:0.2 ~min:p90_samples (rx_rep c s ~reference) in
    loop_layer_metrics l;
    latency_metrics l ~period:1;
    let w = walk_zero () in
    repeat ~until:(deadline 0.35) ~min:1 (fun () ->
        let sink, delivered =
          walk_pass w ~mq:s.mq ~port:(direct s.mq) ~stack:(stack_of s.compiled)
            ~workload:(W.make ~seed:seed64 ~flows c.profile) ~pkts:rx_pkts
        in
        check ~what:"traced datapath" ~ops:0
          (Ck.datapath ~offered:rx_pkts ~delivered ~stranded:0 ~drops:0 ~sink
             ~reference));
    walk_metrics w;
    trace_summary ~covered:(walk_covered ()) ~wall:w.w_wall ~ops:w.w_pkts
      ~untraced_ops:(median l.rates);
    toeplitz_metrics (W.make ~seed:seed64 ~flows c.profile);
    ledger_metrics (rx_run c s ~account:true ~reference).stats.breakdown;
    ignore (control_leg [ pair_of_spec s.spec c.rx_intent ] ~frac:0.15);
    swap_leg
      {
        old_spec = s.spec;
        new_spec = s.spec;
        s_intent = c.rx_intent;
        s_profile = c.profile;
        plan = F.zero_plan seed64;
        s_pkts = swap_pkts;
      }
      ~compiled_old:s.compiled ~frac:0.2
  end

(* ------------------------------------------------------------------ *)
(* control_catalog                                                    *)

let rss_len = Opendesc.Intent.make [ ("rss", 32); ("pkt_len", 16) ]

(* Packets per contract for the ledger the bound must contain. *)
let ledger_pkts = 512

type entry = {
  pair : pair;
  nic_model : Nic_models.Model.t;
  compiled_c : Opendesc.Compile.t;
  ledger : Driver.Stats.t;
}

(* Load the catalogue (every NIC's spec from P4 source) and measure
   each contract's decode ledger on the batched stack. *)
let control_setup () =
  List.concat_map
    (fun intent ->
      List.map
        (fun (m : Nic_models.Model.t) ->
          let compiled = Opendesc.Cache.run_exn ~intent m.spec in
          let device = Dev.create_exn ~config:compiled.config m in
          let ledger =
            Driver.Stack.run_batched ~pkts:ledger_pkts ~batch:bound_burst
              ~device
              ~workload:(W.make ~seed:seed64 W.Min_size)
              (Driver.Hoststacks.opendesc_batched ~compiled)
          in
          { pair = pair_of_spec m.spec intent; nic_model = m; compiled_c = compiled; ledger })
        (Nic_models.Catalog.all ~intent ()))
    [ Nic_models.Catalog.fig1_intent; rss_len ]

let control_rep entries bounds () =
  let lat = ref [] in
  let m0 = Gc.minor_words () in
  let t0 = now () in
  List.iteri
    (fun i e ->
      let t = now () in
      let r = build_contract e.pair in
      push lat (secs_of (now () - t) *. 1e3);
      Result.iter (fun c -> bounds.(i) <- c.bound) r;
      check_contract e.pair e.ledger.cycles_per_pkt r)
    entries;
  let wall = secs_of (now () - t0) in
  let n = float_of_int (List.length entries) in
  {
    rate = n /. wall;
    lat_ms = List.rev !lat;
    words = (Gc.minor_words () -. m0) /. n;
    idle = (0, 0, 0);
  }

let control_workload () =
  let entries = setup control_setup in
  let period = List.length entries in
  let bounds = Array.make period nan in
  let rep = control_rep entries bounds in
  if not traced then begin
    let l = run_loop ~frac:1.0 ~min:(latency_window ~period) rep in
    let mean_bound =
      Array.fold_left ( +. ) 0.0 bounds /. float_of_int (Array.length bounds)
    in
    ignore (e2e_metrics l ~cycles:mean_bound);
    let p50, p90 = latency l ~period in
    note "contract_ms_p50 = %.4f ms, contract_ms_p90 = %.4f ms" p50 p90
  end
  else begin
    let l = run_loop ~frac:0.15 ~min:(latency_window ~period) rep in
    loop_layer_metrics l;
    latency_metrics l ~period;
    let c = control_leg (List.map (fun e -> e.pair) entries) ~frac:0.35 in
    trace_summary ~covered:(control_covered ()) ~wall:c.c_wall ~ops:c.c_ops
      ~untraced_ops:(median l.rates);
    let w = walk_zero () in
    repeat ~until:(deadline 0.15) ~min:1 (fun () ->
        List.iter
          (fun e ->
            let mq = mq_for e.compiled_c (fun () -> e.nic_model) in
            let _, delivered =
              walk_pass w ~mq ~port:(direct mq) ~stack:(stack_of e.compiled_c)
                ~workload:(W.make ~seed:seed64 W.Min_size) ~pkts:ledger_pkts
            in
            check ~what:("traced " ^ e.pair.nic) ~ops:0
              (Ck.delivery ~offered:ledger_pkts ~delivered ~stranded:0 ~drops:0))
          entries);
    walk_metrics w;
    toeplitz_metrics (W.make ~seed:seed64 W.Min_size);
    ledger_metrics
      (Driver.Stats.merge ~name:"catalogue" (List.map (fun e -> e.ledger) entries))
        .breakdown;
    let legacy = (Nic_models.E1000.legacy ()).spec in
    let newer = (Nic_models.E1000.newer ()).spec in
    swap_leg
      {
        old_spec = legacy;
        new_spec = newer;
        s_intent = rss_len;
        s_profile = W.Min_size;
        plan = F.zero_plan seed64;
        s_pkts = swap_pkts;
      }
      ~compiled_old:(Opendesc.Cache.run_exn ~intent:rss_len legacy)
      ~frac:0.2
  end

(* ------------------------------------------------------------------ *)
(* live_swap_e1000                                                    *)

let read_firmware name =
  let path = Filename.concat "examples/firmware" name in
  if not (Sys.file_exists path) then die "firmware fixture %s not found" path;
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Both revisions from P4 source, the cold rev A compile and the first
   rev A datapath. *)
let swap_setup () =
  let load name =
    Opendesc.Nic_spec.load_exn ~name:(Filename.remove_extension name)
      ~kind:Opendesc.Nic_spec.Fixed_function (read_firmware name)
  in
  let old_spec = load "e1000_rev_a.p4" and new_spec = load "e1000_rev_b.p4" in
  Opendesc.Cache.clear ();
  let compiled_old = Opendesc.Cache.run_exn ~intent:rss_len old_spec in
  let cfg =
    {
      old_spec;
      new_spec;
      s_intent = rss_len;
      s_profile = W.Imix;
      plan = F.default_plan seed64;
      s_pkts = swap_pkts;
    }
  in
  (cfg, compiled_old, revision_a_datapath cfg compiled_old)

let swap_rep cfg ~compiled_old ~first () =
  let mq = !first in
  first := None;
  let s = swap_once ?mq cfg ~compiled_old ~account:false in
  {
    rate = float_of_int s.res.pkts /. s.res.wall_s;
    lat_ms = [ s.sw.sw_pause_s *. 1e3 ];
    words = s.res.minor_words_per_pkt;
    idle = idle_of s.res;
  }

let swap_workload () =
  let cfg, compiled_old, mq = setup swap_setup in
  let rep = swap_rep cfg ~compiled_old ~first:(ref (Some mq)) in
  if not traced then begin
    let l = run_loop ~frac:1.0 ~min:p90_samples rep in
    let acct = swap_once cfg ~compiled_old ~account:true in
    let ops = e2e_metrics l ~cycles:(model_cycles acct.res) in
    let p50, p90 = latency l ~period:1 in
    note "swap_pause_ms_p50 = %.4f ms, swap_pause_ms_p90 = %.4f ms, \
          rx_mpps = %.6f Mpps" p50 p90 (ops /. 1e6)
  end
  else begin
    let l = run_loop ~frac:0.2 ~min:p90_samples rep in
    loop_layer_metrics l;
    latency_metrics l ~period:1;
    let w = walk_zero () in
    repeat ~until:(deadline 0.3) ~min:1 (fun () ->
        let mq =
          mq_for compiled_old (fun () -> Nic_models.Model.make cfg.old_spec)
        in
        let fqs = Mq.wrap_chaos ~plan:cfg.plan mq in
        ignore
          (walk_pass w ~mq ~port:(faulty fqs) ~stack:(stack_of compiled_old)
             ~workload:(W.make ~seed:seed64 cfg.s_profile) ~pkts:swap_pkts);
        let c = F.counters_sum (Array.to_list (Array.map F.counters fqs)) in
        check ~what:"traced chaos datapath" ~ops:0
          (Ck.chaos ~reconciles:(F.reconciles c) ~lost:(lost c)));
    walk_metrics w;
    trace_summary ~covered:(walk_covered ()) ~wall:w.w_wall ~ops:w.w_pkts
      ~untraced_ops:(median l.rates);
    toeplitz_metrics (W.make ~seed:seed64 cfg.s_profile);
    ledger_metrics (swap_once cfg ~compiled_old ~account:true).res.stats.breakdown;
    ignore
      (control_leg
         [ pair_of_spec cfg.old_spec rss_len; pair_of_spec cfg.new_spec rss_len ]
         ~frac:0.1);
    swap_leg cfg ~compiled_old ~frac:0.2
  end

let () =
  Printf.printf "perfbench: workload %s, seed %d, %d s, trace %b\n%!"
    workload_arg seed_arg seconds_arg traced;
  (match workload_arg with
  | "rx_hw_min64" -> rx_workload rx_hw_min64
  | "rx_shim_kvs" -> rx_workload rx_shim_kvs
  | "control_catalog" -> control_workload ()
  | _ -> swap_workload ());
  if traced then write_spans ();
  emit ()
