(* Tests for the benchmark's own code: order statistics (against values
   Python's statistics module gives), the percentile sample rule, the
   output checks and the span recorder. *)

module Q = Perfbench.Quantile
module Ck = Perfbench.Checks
module Tr = Perfbench.Trace

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_median () =
  Alcotest.check close "odd" 3.0 (Q.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check close "even" 2.5 (Q.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check close "single" 7.0 (Q.median [| 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.median: empty sample")
    (fun () -> ignore (Q.median [||]))

(* Expected values: statistics.quantiles(data, n=4) in CPython 3.11. *)
let test_quartiles () =
  Alcotest.check triple "two" (0.75, 1.5, 2.25) (Q.quartiles [| 2.; 1. |]);
  Alcotest.check triple "three" (1.0, 2.0, 3.0) (Q.quartiles [| 1.; 2.; 3. |]);
  Alcotest.check triple "five" (1.5, 3.0, 4.5) (Q.quartiles [| 5.; 1.; 4.; 2.; 3. |]);
  Alcotest.check triple "ten" (2.75, 5.5, 8.25)
    (Q.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "seven" (2.0, 3.5, 9.0)
    (Q.quartiles [| 3.5; 1.25; 9.; 2.; 2.; 7.; 11. |]);
  Alcotest.check close "iqr share" 1.0
    (Q.iqr_share (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_percentile_rule () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option close)) "p90 of 100 has ten beyond" (Some 90.0)
    (Q.percentile 0.9 (xs 100));
  Alcotest.(check (option close)) "p90 of 99 has nine beyond" None
    (Q.percentile 0.9 (xs 99));
  Alcotest.(check (option close)) "p99 needs 1000" None
    (Q.percentile 0.99 (xs 999));
  Alcotest.(check (option close)) "p99 of 1000" (Some 990.0)
    (Q.percentile 0.99 (xs 1000));
  Alcotest.(check (option close)) "p50 of 20" (Some 10.0)
    (Q.percentile 0.5 (xs 20))

let test_fastest_window () =
  let xs = [| 1.; 5.; 4.; 2.; 2.; 1.; 7.; 8.; 9. |] in
  Alcotest.(check (option int)) "highest median of three" (Some 6)
    (Q.fastest_window ~size:3 xs);
  Alcotest.(check (option int)) "earliest on ties" (Some 1)
    (Q.fastest_window ~size:2 [| 1.; 5.; 5.; 1.; 5.; 5. |]);
  Alcotest.(check (option int)) "too few" None (Q.fastest_window ~size:4 [| 1.; 2.; 3. |])

let strings = Alcotest.(list string)

let test_checks () =
  let dp ?(delivered = 10) ?(stranded = 0) ?(drops = 0) ?(sink = 5L) () =
    Ck.datapath ~offered:10 ~delivered ~stranded ~drops ~sink ~reference:5L
  in
  Alcotest.check strings "clean datapath" [] (dp ());
  Alcotest.(check int) "digest" 1 (List.length (dp ~sink:6L ()));
  Alcotest.(check int) "short" 1 (List.length (dp ~delivered:9 ()));
  Alcotest.(check int) "drops and stranded" 2 (List.length (dp ~drops:1 ~stranded:1 ()));
  Alcotest.check strings "contract inside bound" []
    (Ck.contract ~certified:true ~bound:10.0 ~ledger:10.0);
  Alcotest.(check int) "contract over bound" 1
    (List.length (Ck.contract ~certified:true ~bound:10.0 ~ledger:10.1));
  Alcotest.(check int) "uncertified" 1
    (List.length (Ck.contract ~certified:false ~bound:10.0 ~ledger:1.0));
  let sw ?(applied = true) ?(reconciles = true) ?(lost = 0) ?(torn = 0) ?(drops = 0) () =
    Ck.swap ~applied ~reconciles ~lost ~torn ~upgrade_errors:0 ~stranded:0 ~drops
  in
  Alcotest.check strings "clean swap" [] (sw ());
  Alcotest.(check int) "refused" 1 (List.length (sw ~applied:false ()));
  Alcotest.(check int) "lost and torn" 2 (List.length (sw ~lost:1 ~torn:1 ()));
  Alcotest.(check int) "unreconciled" 1 (List.length (sw ~reconciles:false ()));
  Alcotest.(check int) "device drops" 1 (List.length (sw ~drops:2 ()));
  Alcotest.(check int) "failed ops, clean" 0 (Ck.failed_ops ~attempted:7 []);
  Alcotest.(check int) "failed ops, any failure" 7 (Ck.failed_ops ~attempted:7 [ "x" ])

let test_trace () =
  let t = Tr.create ~capacity:2 [| "parent"; "child" |] in
  let p = Tr.open_span t ~layer:0 ~parent:(-1) ~burst:0 ~start:100 in
  ignore (Tr.add t ~layer:1 ~parent:p ~burst:0 ~start:110 ~stop:150);
  Tr.close_span t p ~layer:0 ~start:100 ~stop:200;
  Alcotest.(check int) "overflowing span" (-1)
    (Tr.add t ~layer:1 ~parent:p ~burst:1 ~start:200 ~stop:230);
  Alcotest.(check int) "child total counts the overflow" 70 (Tr.layer_ns t 1);
  Alcotest.(check int) "parent total" 100 (Tr.layer_ns t 0);
  Alcotest.(check int) "stored" 2 (Tr.stored t);
  Alcotest.(check int) "overflow" 1 (Tr.overflow t);
  Alcotest.(check int) "child spans" 2 (Tr.layer_spans t 1)

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "percentile needs ten beyond" `Quick test_percentile_rule;
          Alcotest.test_case "fastest window" `Quick test_fastest_window;
        ] );
      ("checks", [ Alcotest.test_case "output checks" `Quick test_checks ]);
      ("trace", [ Alcotest.test_case "span recorder" `Quick test_trace ]);
    ]
