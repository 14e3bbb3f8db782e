(** Deterministic splittable pseudo-random number generator.

    The implementation is SplitMix64 (Steele, Lea, Flood 2014). All
    randomness in the repository — arbitrary initial states, Byzantine
    message fabrication, sampling in the pulling model — flows through
    this module so that every experiment is reproducible from a seed.

    The generator state is an unboxed 64-bit word, so {!int}, {!bits},
    {!bool} and {!float} allocate nothing per draw. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy t] duplicates the generator; the copy and the original then
    evolve independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from it.
    Streams of the parent and the child are statistically independent. *)

val split_into : t -> t -> unit
(** [split_into t dst] advances [t] exactly as [split t] does and
    reseeds [dst] to the state [split t] would have returned, so [dst]
    then draws the child's stream. It allocates nothing: a caller that
    splits per operation can keep one scratch generator. *)

val skip : t -> unit
(** [skip t] advances [t] by one draw, like [ignore (next_int64 t)] but
    without computing or boxing the output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** 30 uniformly random non-negative bits, as in [Random.bits]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)], by rejection sampling
    over the top 61 bits of {!next_int64}: a draw [r] is accepted iff
    [r < 2^61 - (2^61 mod bound)], and yields [r mod bound]. [bound = 1]
    consumes no draw. Raises [Invalid_argument] if [bound <= 0] or
    [bound > 2^61]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct values from
    [\[0, n)]. Raises [Invalid_argument] if [k > n] or [k < 0]. *)

val sample_with_replacement : t -> int -> int -> int list
(** [sample_with_replacement t k n] draws [k] values uniformly (multiset)
    from [\[0, n)]. *)
