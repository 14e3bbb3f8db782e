(** Byzantine adversary strategies.

    Section 2: up to [f] nodes are Byzantine and may exhibit arbitrary
    behaviour, *including sending different messages to every node* in
    the same round. The simulator is a full-information adversary
    playground: each round the strategy sees the true states of all nodes
    and fabricates, for every faulty sender, one message per recipient.

    Strategies are generic in the state type: they fabricate messages only
    through the spec's [random_state], by replaying true states of other
    nodes (current or past), or by simulating recipients' transitions.
    This is exactly the power a real adversary has without knowing the
    state type's internal semantics, and it is enough to break naive
    algorithms (see the ablation benches).

    Each standard strategy has one implementation, a flat kernel over
    packed state codes ({!flat_crafter}); its boxed {!crafter} is the same
    kernel behind a codec adapter. {!greedy_confusion} has no flat
    kernel: its crafter takes and returns boxed states, so the engine
    bridges it, but its lookahead runs in code space. The one-line
    semantics below are the specification: the reference simulator of
    the test suite ([test/engine_ref]) implements each of them
    independently over boxed states, and the engine must match it draw
    for draw. *)

type 's crafter = {
  craft :
    spec:'s Algo.Spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    faulty:int array ->
    's array array;
      (** [craft ... ] returns [msgs] with [msgs.(fi).(r)] = the message
          the [fi]-th faulty node sends to recipient [r] this round. *)
}

type flat_env = {
  n : int;  (** node count — fixes the [out] row stride *)
  random_code : Stdx.Rng.t -> int;
      (** the spec codec's {!Algo.Spec.codec.random_code}: a random
          state in code space, consuming the rng exactly like the
          spec's [random_state] *)
}
(** Everything a flat kernel may know about the algorithm it attacks:
    the node count and a code-space random sampler. Deliberately no
    decoder — flat kernels are zero-decode by construction. *)

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:Statebuf.t ->
    faulty:int array ->
    out:int array ->
    unit;
      (** Code-space crafting: read the packed current
          states, write the crafted message codes into the preallocated
          [out] with [out.(fi * n + r)] = the code the [fi]-th faulty
          node sends to recipient [r]. Only slots of the current faulty
          set may be written ([out] is engine-owned scratch, not
          cleared between rounds).

          {b RNG stream contract:} a kernel draws every random state
          through {!flat_env.random_code}, in the order its strategy's
          documented semantics implies (faulty index outer, recipient
          inner). The reference simulator makes the same draws over
          boxed states; the differential suite in [test_flat.ml] holds
          the engine to it round for round. *)
}

type 's t = {
  name : string;
  benign : bool;
      (** Structural marker for non-attacking strategies: [true] only for
          {!benign}. Suite membership ({!hostile_suite}) keys on this tag,
          not on the display name. *)
  fresh : unit -> 's crafter;
      (** A new stateful crafter per run (history buffers etc.). For the
          standard strategies this is the flat kernel behind an adapter:
          encode the states through the spec's codec, run the kernel,
          decode the message rows. It raises [Invalid_argument] on a spec
          without a codec. *)
  fresh_flat : (flat_env -> flat_crafter) option;
      (** The strategy's code-level kernel, used by the engine; a fresh
          stateful instance per phase. [None] ({!greedy_confusion}) makes
          the engine bridge the phase: decode the states, call [craft],
          re-encode the messages. *)
}

val name : 's t -> string

val benign : unit -> 's t
(** Faulty nodes behave exactly like correct ones. *)

val stuck : unit -> 's t
(** Crash-like: faulty nodes keep broadcasting the state they held when
    the run started (a stuck register in the circuit interpretation). *)

val random_consistent : unit -> 's t
(** Each faulty node draws a fresh random state each round and sends it to
    everyone (non-equivocating noise). *)

val random_equivocate : unit -> 's t
(** Each faulty node sends an independent random state to every recipient
    every round — the max-entropy Byzantine strategy. *)

val mimic : offset:int -> unit -> 's t
(** Each faulty node impersonates a correct node (chosen by rotating over
    correct ids with [offset]), sending that node's true current state.
    Creates plausible-but-duplicated views. When every node is faulty
    (n = f) there is nobody to impersonate: each faulty node replays its
    own state instead of crashing. *)

val split_brain : unit -> 's t
(** Equivocation attack: recipients with even id receive the current
    state of one correct node, odd ids that of another — the classic
    strategy to drive two halves of the network apart. With an empty
    correct set (n = f), falls back to replaying each faulty node's own
    state. *)

val stale : delay:int -> unit -> 's t
(** Replay the faulty node's own true state from [delay] rounds ago
    (a frozen/laggy subsystem). [delay = 0] is truthful; in the first
    [delay] rounds, before enough history exists, the current state is
    sent (the history fallback). Raises [Invalid_argument] on negative
    [delay]. *)

val replay_correct : delay:int -> unit -> 's t
(** Replay a *correct* node's state from [delay] rounds ago: stale but
    internally consistent information. With an empty correct set (n = f),
    replays the faulty node's own old state. Same [delay] contract as
    {!stale}: [>= 0] (raises [Invalid_argument] otherwise), current state
    until history fills. *)

val flip_flop : unit -> 's t
(** Alternate between two random states drawn once at the start (the
    odd-round state first), switching every round; recipients with odd
    id see the phase inverted. *)

val greedy_confusion : pool:int -> unit -> 's t
(** The one strategy without a flat kernel. One-step lookahead attack:
    for each correct recipient, pick from a candidate pool (the true
    states of the correct nodes, in id order, then [pool] random states)
    the message that, assuming everyone else tells the truth, maximises
    the spread of next-round outputs among correct nodes; ties go to the
    first candidate. Faulty recipients get the sender's true state. Every
    probe transition — one truthful baseline per correct node, then the
    candidates in order — steps on its own [Rng.split] of the adversary
    stream (reseeded into one scratch generator per crafter with
    [Rng.split_into], so a probe allocates no generator). The strongest
    generic strategy in the suite.

    The boxed crafter runs the lookahead in code space, with one codec
    kernel per crafter: each round it encodes the states once, and each
    probe rewrites the sender's slot of a shared received vector, which
    the Boost kernel's received-vector cache patches as a one-slot
    change. Since a candidate adds at most one distinct output to the
    baseline's, the first candidate whose output lies outside it wins,
    and the scan stops there; each remaining candidate still advances
    the stream by one split's draw ([Rng.skip]), so executions are the
    same draw for draw. Cost per round, with [nc] correct nodes: [n] encodes, [nc]
    baseline kernel steps, at most [nc * (nc + pool)] probe steps per
    faulty node, and one decode per random candidate that wins. Raises
    [Invalid_argument] on a negative [pool]. *)

val standard_suite : unit -> 's t list
(** The adversaries used by tests and experiments: benign, stuck,
    random_consistent, random_equivocate, mimic, split_brain, stale,
    replay_correct, flip_flop. (Excludes [greedy_confusion], which is run
    separately because of its cost.) *)

val hostile_suite : unit -> 's t list
(** [standard_suite] minus the strategies tagged [benign]. *)
