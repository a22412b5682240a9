(* Order statistics over repeated samples.  [quartiles] follows Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so the spread
   printed here is the one a reader recomputes from the raw values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median: the benchmark's spread. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

(* Rank-interpolated percentile of a log-bucketed histogram: the sample
   of rank [p * (n-1)] is placed inside its bucket by its position among
   the bucket's samples, so the estimate moves smoothly with the data
   instead of snapping to bucket edges. *)
let hist_percentile h p =
  let module H = Otfgc_support.Histogram in
  let n = H.count h in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let result = ref (float_of_int (H.max_value h)) in
    let seen = ref 0 in
    let found = ref false in
    H.iter h (fun ~lo ~hi ~count ->
        if (not !found) && rank < float_of_int (!seen + count) then begin
          found := true;
          let pos = (rank -. float_of_int !seen +. 0.5) /. float_of_int count in
          result := float_of_int lo +. (pos *. float_of_int (hi + 1 - lo))
        end;
        seen := !seen + count);
    Float.max (float_of_int (H.min_value h))
      (Float.min (float_of_int (H.max_value h)) !result)
