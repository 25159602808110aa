let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = min (ld - 1) (max 1 (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let iqr_frac xs =
  let q1, q2, q3 = quartiles xs in
  (q3 -. q1) /. q2

let min_beyond = 10

type tail = {
  value : float;
  pct : float;
  beyond : int;
  block : int;
  blocks : int;
  spread : float;
}

let block_tail xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.block_tail: no samples";
  let a = sorted xs in
  if n <= min_beyond then
    { value = a.(n - 1); pct = 100.; beyond = 0; block = n; blocks = 1; spread = 0. }
  else
    {
      value = a.(n - 1 - min_beyond);
      pct = 100. *. float_of_int (n - min_beyond) /. float_of_int n;
      beyond = min_beyond;
      block = n;
      blocks = 1;
      spread = 0.;
    }

let tail ~block xs =
  let n = Array.length xs in
  if block < 1 then invalid_arg "Stats.tail: block < 1";
  let blocks = n / block in
  if blocks = 0 then block_tail xs
  else
    let per = Array.init blocks (fun b -> block_tail (Array.sub xs (b * block) block)) in
    let values = Array.map (fun t -> t.value) per in
    {
      (per.(0)) with
      value = median values;
      blocks;
      spread = (if blocks < 2 then 0. else iqr_frac values);
    }

let fail_frac ~attempted ~failed =
  if attempted < 1 || failed < 0 || failed > attempted then
    invalid_arg "Stats.fail_frac";
  float_of_int failed /. float_of_int attempted
