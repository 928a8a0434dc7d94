type t = {
  names : string array;
  layer : int array;
  parent : int array;
  burst : int array;
  start : int array;
  stop : int array;
  totals : int array;
  counts : int array;
  mutable n : int;
  mutable overflow : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ~capacity names =
  let a () = Array.make capacity 0 in
  let nl = Array.length names in
  {
    names;
    layer = a ();
    parent = a ();
    burst = a ();
    start = a ();
    stop = a ();
    totals = Array.make nl 0;
    counts = Array.make nl 0;
    n = 0;
    overflow = 0;
  }

let store t ~layer ~parent ~burst ~start ~stop =
  if t.n >= Array.length t.layer then begin
    t.overflow <- t.overflow + 1;
    -1
  end
  else begin
    let i = t.n in
    t.layer.(i) <- layer;
    t.parent.(i) <- parent;
    t.burst.(i) <- burst;
    t.start.(i) <- start;
    t.stop.(i) <- stop;
    t.n <- i + 1;
    i
  end

let add t ~layer ~parent ~burst ~start ~stop =
  t.totals.(layer) <- t.totals.(layer) + (stop - start);
  t.counts.(layer) <- t.counts.(layer) + 1;
  store t ~layer ~parent ~burst ~start ~stop

let open_span t ~layer ~parent ~burst ~start =
  t.counts.(layer) <- t.counts.(layer) + 1;
  store t ~layer ~parent ~burst ~start ~stop:start

let close_span t id ~layer ~start ~stop =
  t.totals.(layer) <- t.totals.(layer) + (stop - start);
  if id >= 0 then t.stop.(id) <- stop

let layer_ns t l = t.totals.(l)
let layer_spans t l = t.counts.(l)
let stored t = t.n
let overflow t = t.overflow

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\tlayer\tparent\tburst\tstart_ns\tend_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.layer.(i))
          t.parent.(i) t.burst.(i) t.start.(i) t.stop.(i)
      done)
