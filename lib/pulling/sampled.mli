(** Randomised resilience boosting in the pulling model
    (Sections 5.2-5.5; Theorem 4, Corollaries 4-5).

    The deterministic construction of Theorem 1 reads {e all} N states
    each round, at two places only: the majority votes electing the
    leader block (and its round counter R), and the phase-king quorum
    counts. Both are threshold tests, so both survive sampling: with
    [M = Theta(log eta)] uniform samples, a 2/3-fraction test on the
    samples decides an (N-F)-quorum correctly with probability
    [1 - eta^-kappa] (Lemma 8), and a per-block sample of size M contains
    a majority of non-faulty nodes w.h.p. (Lemma 9).

    Per round, a node pulls:
    - its [n - 1] block peers (the inner counter runs on full
      information inside the small block),
    - [M] states from every block ([k * M]) for the leader vote,
    - [M] states from the whole network for the phase-king counts,
    - the expected king: the node remembers the previous round counter
      [R] in its state and pulls node [(R+1)/3] when the next
      instruction will be a king round. After stabilisation the
      prediction is always right; before it, nothing is guaranteed
      anyway.

    Total: [n - 1 + (k+1)M + 1 = O(n + k log eta)] pulls — Theorem 4's
    bound — versus [N - 1] for broadcast.

    The {e oblivious} variant ([construct_oblivious]) draws all sample
    links once from a dedicated seed and reuses them every round, and
    pulls all [F+2] potential kings instead of predicting (a static pull
    set cannot adapt to [R]). Against an adversary that picks the faulty
    set independently of those coins this is Corollary 5's pseudo-random
    counter: with high probability over the link seed the execution
    stabilises, and from then on behaves fully deterministically.

    {b Execution.} The spec's per-run kernel ({!Pull_spec.t.fresh_kernel})
    steps each block's inner counter through one instance of the inner
    codec's flat kernel, reads counter views from tables, and counts the
    phase-king samples in an integer histogram. The tables (block
    slots, peer lists, counter views) are immutable and per spec: the
    first kernel builds them, not [construct], so a spec that never runs
    costs only its plan, and every later kernel on any domain shares
    them. Mutable scratch is per kernel, so one spec can serve
    concurrent runs. *)

type 's state = {
  inner : 's;
  a : int option;
  d : bool;
  prev_r : int;  (** last observed round counter R, for king prediction *)
}

type t_params = {
  boost : Counting.Boost.params;
  samples : int;  (** M *)
  pulls_per_round : int;  (** worst-case pulls of a non-faulty node *)
}

type 's t = {
  spec : 's state Pull_spec.t;
  params : t_params;
  inner : 's Algo.Spec.t;
}

val construct :
  inner:'s Algo.Spec.t -> k:int -> big_f:int -> big_c:int -> samples:int ->
  's t
(** Adaptive sampling (fresh coins every round). Raises
    [Invalid_argument] on invalid Theorem 1 parameters, [samples < 1], or
    an [inner] spec without a codec. *)

val construct_oblivious :
  inner:'s Algo.Spec.t ->
  k:int ->
  big_f:int ->
  big_c:int ->
  samples:int ->
  links_seed:int ->
  's t
(** Fixed-links pseudo-random variant (Corollary 5). *)
