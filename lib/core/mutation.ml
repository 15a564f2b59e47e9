type params = {
  a : float;
  sigma_shrink : float;
  sigma_stretch : float;
  fm : float;
}

let default = { a = 0.2; sigma_shrink = 5.; sigma_stretch = 5.; fm = 0.33 }

let validate p =
  if not (0. <= p.a && p.a <= 1.) then Error "a must lie in [0, 1]"
  else if not (p.sigma_shrink >= 0.) then Error "sigma_shrink must be >= 0"
  else if not (p.sigma_stretch >= 0.) then Error "sigma_stretch must be >= 0"
  else if not (0. < p.fm && p.fm <= 1.) then Error "fm must lie in ]0, 1]"
  else Ok p

let validate_exn p =
  match validate p with
  | Ok p -> p
  | Error msg -> invalid_arg ("Mutation: " ^ msg)

(* One draw of C under params already validated: a Bernoulli(a) draw,
   then one normal draw. *)
let adjust rng p =
  if Emts_prng.bernoulli rng ~p:p.a then begin
    let x1 = Emts_prng.normal rng ~mu:0. ~sigma:p.sigma_shrink in
    -(int_of_float (Float.abs x1) + 1)
  end
  else begin
    let x2 = Emts_prng.normal rng ~mu:0. ~sigma:p.sigma_stretch in
    int_of_float (Float.abs x2) + 1
  end

let draw_adjustment rng p = adjust rng (validate_exn p)

let allele_count p ~generation ~total_generations ~genome_length =
  ignore (validate_exn p);
  if total_generations < 1 then
    invalid_arg "Mutation.allele_count: total_generations must be >= 1";
  if generation < 1 || generation > total_generations then
    invalid_arg "Mutation.allele_count: generation out of range";
  if genome_length < 1 then
    invalid_arg "Mutation.allele_count: genome_length must be >= 1";
  let fraction =
    1. -. (float_of_int (generation - 1) /. float_of_int total_generations)
  in
  let m =
    int_of_float (Float.round (fraction *. p.fm *. float_of_int genome_length))
  in
  max 1 (min genome_length m)

let mutate rng p ~procs ~generation ~total_generations genome =
  if procs < 1 then invalid_arg "Mutation.mutate: procs must be >= 1";
  let n = Array.length genome in
  if n = 0 then invalid_arg "Mutation.mutate: empty genome";
  let m = allele_count p ~generation ~total_generations ~genome_length:n in
  let child = Array.copy genome in
  (* All m positions first, then one adjustment per position in sample
     order: the order the stream is drawn in. *)
  let positions = Emts_prng.sample_without_replacement rng ~k:m ~n in
  for j = 0 to m - 1 do
    let i = positions.(j) in
    child.(i) <- Int.max 1 (Int.min procs (child.(i) + adjust rng p))
  done;
  child
