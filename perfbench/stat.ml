(* Summary statistics over measured samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default); nan on
   no samples, so a missing measurement can never pass for a number. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0. xs

let geomean xs =
  match xs with
  | [] -> Float.nan
  | _ -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

let share part whole = if whole > 0. then part /. whole else 0.
