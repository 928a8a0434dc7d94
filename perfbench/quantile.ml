let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.median: empty sample";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Quantile.quartiles: need at least two samples";
  let s = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let min_beyond = 10

let percentile p xs =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Quantile.percentile: p";
  let n = Array.length xs in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  if n = 0 || n - rank < min_beyond then None
  else Some (sorted xs).(max 0 (rank - 1))

let fastest_window ~size xs =
  let n = Array.length xs in
  if size < 1 || n < size then None
  else begin
    let best = ref 0 and best_med = ref neg_infinity in
    for i = 0 to n - size do
      let m = median (Array.sub xs i size) in
      if m > !best_med then begin
        best := i;
        best_med := m
      end
    done;
    Some !best
  end
