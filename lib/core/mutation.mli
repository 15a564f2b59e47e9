(** The EMTS mutation operator (paper Sections III-C and III-D).

    Each mutated allele is adjusted by [C] processors, where

    - with probability [1 - a] the allocation *stretches*:
      [C = +(|X2| + 1)], [X2 ~ N(0, sigma_stretch)];
    - with probability [a] it *shrinks*: [C = -(|X1| + 1)],
      [X1 ~ N(0, sigma_shrink)].

    Small adjustments are more likely than large ones, adjustments of 0
    are impossible, and shrinking is less likely than stretching
    (paper default [a = 0.2]).  Note the sign convention: Equation (1)
    of the paper as printed contradicts both its prose ("the number of
    processors ... decreases with a probability of 20%") and Figure 3;
    we follow prose and figure (see DESIGN.md).

    The number of mutated alleles anneals over generations:
    [m(u) = (1 - (u-1)/U) * f_m * V] for 1-based generation [u], so the
    first generation changes [f_m * V] alleles (33% with the paper's
    [f_m = 0.33]) and later generations progressively fewer, never less
    than one. *)

type params = {
  a : float;              (** shrink probability, in [0, 1]; default 0.2 *)
  sigma_shrink : float;   (** sigma_1 >= 0; default 5 *)
  sigma_stretch : float;  (** sigma_2 >= 0; default 5 *)
  fm : float;             (** initial mutated fraction, in ]0, 1]; default 0.33 *)
}

val default : params
(** The paper's setting: [a = 0.2], [sigma_1 = sigma_2 = 5],
    [f_m = 0.33]. *)

val validate : params -> (params, string) result

val draw_adjustment : Emts_prng.t -> params -> int
(** One draw of [C]: never 0, negative with probability [a]. *)

val allele_count :
  params -> generation:int -> total_generations:int -> genome_length:int -> int
(** [m(u)] as above, at least 1; requires
    [1 <= generation <= total_generations] and positive length. *)

val mutate :
  Emts_prng.t ->
  params ->
  procs:int ->
  generation:int ->
  total_generations:int ->
  int array ->
  int array
(** Returns a fresh genome with [m(u)] distinct alleles adjusted and
    clamped into [1, procs].  The input is not modified.  The positions
    come first, from one {!Emts_prng.sample_without_replacement}; then
    each position, in sample order, takes one {!draw_adjustment}.

    One call validates the params once and allocates, for a genome of
    [n] alleles: the child ([n + 1] words), the sampler's scratch
    ([n + 1]) and its [m(u)]-element sample, plus about 6 words per
    mutated allele for the floats boxed where they cross into
    {!Emts_prng} ([bernoulli]'s [p], [normal]'s [sigma] and result). *)
