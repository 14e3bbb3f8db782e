(** First-class representation of a synchronous counting algorithm.

    Following Section 2 of the paper, a deterministic algorithm is a tuple
    [A = (X, g, h)]: a state set [X], a transition function
    [g : \[n\] x X^n -> X], and an output function [h : \[n\] x X -> \[c\]].
    In every synchronous round each node broadcasts its state, receives the
    vector of states of all [n] nodes (with slots of Byzantine senders
    replaced by arbitrary values, possibly different per recipient), and
    applies [g].

    A value of type ['s t] packages the tuple together with the metadata
    needed by the rest of the repository:

    - the simulator needs [random_state] (arbitrary initial states and
      Byzantine message fabrication) and [equal_state]/[pp_state];
    - the model checker additionally needs [all_states] and
      [compare_state];
    - the resilience-boosting construction of Theorem 1 composes specs
      into specs of a richer state type;
    - [state_bits] carries the paper's space complexity
      [S(A) = ceil(log2 |X|)].

    Randomised algorithms (the baseline of Table 1 rows citing
    Dolev-Welch) use the [rng] argument of [transition] and set
    [deterministic = false]; deterministic algorithms must ignore [rng]. *)

type kernel = { step : self:int -> rng:Stdx.Rng.t -> int array -> int }
(** A transition kernel operating directly on packed integer state codes:
    [step ~self ~rng received] is [encode (g(self, decode received))].
    Kernels may own mutable scratch buffers, so a kernel value must be
    confined to one simulation run (see {!codec.fresh_kernel}). *)

type 's codec = {
  num_states : int;  (** [|X|]; codes are dense in [\[0, num_states)] *)
  encode_state : 's -> int;
      (** injective, order-preserving w.r.t. [compare_state] *)
  decode_state : int -> 's;  (** left inverse of [encode_state] *)
  output_code : self:int -> int -> int;
      (** [h] in code space: [output_code ~self (encode_state s)
          = output ~self s] *)
  random_code : Stdx.Rng.t -> int;
      (** [random_state] in code space: [random_code rng =
          encode_state (random_state rng)], {e consuming the rng
          stream identically} — flat adversary kernels fabricate
          random messages through this, so any divergence (value or
          draw count) breaks the engine's draw-for-draw agreement
          with the boxed reference simulator.
          {!validate} spot-checks both on fresh streams. *)
  fresh_kernel : unit -> kernel;
      (** a fresh kernel with private scratch; called once per engine run
          so concurrent runs over a shared spec never race *)
}
(** Dense integer encoding of the state set [X], the contract behind the
    simulation engine, which runs on packed state vectors only. The
    encoding is a bijection between [X] and [\[0, num_states)] that agrees
    with [compare_state]'s order, and the kernel computes exactly the
    spec's [transition] in code space — certified against a boxed
    reference simulator in the test suite. *)

type 's t = {
  name : string;  (** human-readable, e.g. ["boost(k=3,F=3) over triv"] *)
  n : int;  (** number of nodes the algorithm runs on *)
  f : int;  (** claimed resilience: tolerated Byzantine nodes *)
  c : int;  (** counts modulo [c]; outputs lie in [\[0, c)] *)
  deterministic : bool;
  state_bits : int;  (** [S(A) = ceil(log2 |X|)] *)
  equal_state : 's -> 's -> bool;
  compare_state : 's -> 's -> int;  (** total order, for sets/maps *)
  pp_state : Format.formatter -> 's -> unit;
  random_state : Stdx.Rng.t -> 's;
      (** uniform-ish sample of [X]; used for arbitrary initial states and
          as a building block of Byzantine behaviour *)
  all_states : 's list option;
      (** full enumeration of [X] when tractable (enables model checking);
          [None] for composed algorithms with astronomically many states *)
  transition : self:int -> rng:Stdx.Rng.t -> 's array -> 's;
      (** [transition ~self ~rng received] is [g(self, received)];
          [received.(j)] is the message from node [j] as seen by [self]
          (non-faulty [j] send their true state, and
          [received.(self)] is the node's own state) *)
  output : self:int -> 's -> int;  (** [h(self, state)], in [\[0, c)] *)
  codec : 's codec option;
      (** dense int encoding of [X]; required to simulate the spec (the
          engine runs on packed state codes only). [None] only for
          specs whose states do not fit a 62-bit code, or that are
          planned or model-checked but never simulated *)
}

val codec_exn : who:string -> 's t -> 's codec
(** [codec_exn ~who spec] is [spec]'s codec. Raises [Invalid_argument]
    prefixed with [who], naming the spec and its [state_bits], when it
    has none. *)

val generic_kernel :
  n:int ->
  transition:(self:int -> rng:Stdx.Rng.t -> 's array -> 's) ->
  encode_state:('s -> int) ->
  decode_state:(int -> 's) ->
  unit ->
  kernel
(** Reference kernel: decode every received code into a private scratch
    array, apply [transition], encode the result. Always exact, never
    fast — the building block for specs without a hand-written flat
    kernel. *)

val identity_codec :
  ?random_code:(Stdx.Rng.t -> int) ->
  num_states:int ->
  transition:(self:int -> rng:Stdx.Rng.t -> int array -> int) ->
  output:(self:int -> int -> int) ->
  unit ->
  int codec
(** Codec for specs whose state type is already a dense [int] in
    [\[0, num_states)]: encoding is the identity and the kernel is the
    spec's own transition. [random_code] defaults to a uniform
    [Rng.int rng num_states] draw — override it iff the spec's
    [random_state] samples differently (the two must stay in draw-level
    lockstep; see {!codec.random_code}). *)

val derive_codec : 's t -> 's codec option
(** [derive_codec spec] builds a codec from [all_states] (sorted by
    [compare_state]; encoding by binary search, kernel via
    {!generic_kernel}). [None] when [all_states] is [None]. *)

val with_derived_codec : 's t -> 's t
(** [with_derived_codec spec] is [spec] with [codec] replaced by
    [derive_codec spec]. *)

val validate : 's t -> (unit, string) result
(** Structural sanity checks: [n >= 1], [0 <= f], [c >= 1],
    [state_bits >= 1], and when [all_states] is available, that outputs of
    all states at all nodes lie in [\[0, c)], that [X] is closed under
    [transition] from honest vectors, and that [state_bits] is at least
    [ceil(log2 |X|)]. When [codec] is present, additionally checks
    [num_states >= 1], that [state_bits] covers [num_states], and (given
    [all_states]) that the codec round-trips every state inside
    [\[0, num_states)]. *)

val validate_exn : 's t -> 's t
(** [validate_exn spec] is [spec], or raises [Invalid_argument] with the
    failure reason. *)

val counter_values : 's t -> 's array -> int array
(** [counter_values spec states] evaluates [h] node-wise: the per-node
    outputs of a full state vector. *)

type packed = Packed : 's t -> packed
(** Existential wrapper so heterogeneously-typed levels of the recursive
    construction can live in one list. *)

val packed_name : packed -> string
val packed_n : packed -> int
val packed_f : packed -> int
val packed_c : packed -> int
val packed_state_bits : packed -> int
