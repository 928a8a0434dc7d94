let cond ok name acc = if ok then acc else name :: acc

let delivery ~offered ~delivered ~stranded ~drops =
  []
  |> cond (drops = 0) (Printf.sprintf "%d device drops" drops)
  |> cond (stranded = 0) (Printf.sprintf "%d packets stranded" stranded)
  |> cond (delivered = offered)
       (Printf.sprintf "delivered %d of %d offered" delivered offered)

let datapath ~offered ~delivered ~stranded ~drops ~sink ~reference =
  delivery ~offered ~delivered ~stranded ~drops
  |> cond (Int64.equal sink reference) "digest differs from the sequential path"

let contract ~certified ~bound ~ledger =
  []
  |> cond (ledger <= bound *. (1.0 +. 1e-7))
       (Printf.sprintf "ledger %.3f cycles/pkt exceeds bound %.3f" ledger bound)
  |> cond certified "does not certify"

let chaos ~reconciles ~lost =
  []
  |> cond (lost = 0) (Printf.sprintf "%d packets lost" lost)
  |> cond reconciles "fault counters do not reconcile"

let swap ~applied ~reconciles ~lost ~torn ~upgrade_errors ~stranded ~drops =
  chaos ~reconciles ~lost
  |> cond (drops = 0) (Printf.sprintf "%d device drops" drops)
  |> cond (stranded = 0) (Printf.sprintf "%d packets stranded" stranded)
  |> cond (upgrade_errors = 0)
       (Printf.sprintf "%d device upgrades refused" upgrade_errors)
  |> cond (torn = 0) (Printf.sprintf "%d torn epoch flips" torn)
  |> cond applied "swap not applied"

let failed_ops ~attempted = function [] -> 0 | _ -> attempted
