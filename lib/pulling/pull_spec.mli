(** Algorithms for the synchronous pulling model (Section 5.1).

    In every round each node (1) contacts a subset of nodes by pulling
    their state, (2) contacted nodes respond with their state as of the
    beginning of the round, and (3) everyone updates. The communication
    cost is attributed to the {e pulling} node — in the circuit
    interpretation, the puller powers the link — so the figure of merit
    is the maximum number of pulls a non-faulty node performs per round.

    Faulty nodes may answer with arbitrary states, differently to every
    puller; pull {e requests} of faulty nodes cost nothing to honest
    nodes and are ignored by the simulator. *)

type 's kernel = {
  pulls : self:int -> rng:Stdx.Rng.t -> 's -> int array -> int;
      (** [pulls ~self ~rng own targets] writes this round's targets,
          chosen from [own] before any message is received, into
          [targets.(0 .. p-1)] and returns [p <= pull_budget]; duplicates
          allowed (sampling with replacement), each occurrence is paid
          for *)
  transition :
    self:int ->
    rng:Stdx.Rng.t ->
    own:'s ->
    targets:int array ->
    responses:'s array ->
    's;
      (** [responses.(i)] is the state answering [targets.(i)], for the
          [p] targets of this round's [pulls] call (same order,
          duplicates included) *)
}
(** One round of the algorithm at one node. A kernel may own mutable
    scratch, so it must be confined to one simulation run (see
    {!t.fresh_kernel}). The caller owns [targets] and [responses] (both
    of length at least [pull_budget]) and may overwrite them after
    [transition] returns. *)

type 's t = {
  name : string;
  n : int;
  f : int;
  c : int;
  state_bits : int;
  deterministic : bool;
  equal_state : 's -> 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
  random_state : Stdx.Rng.t -> 's;
  pull_budget : int;  (** worst-case pulls of a non-faulty node per round *)
  fresh_kernel : unit -> 's kernel;
      (** a fresh kernel with private scratch; called once per run so
          concurrent runs over a shared spec never race. Read-only
          tables may be built on the first call and shared by every
          later kernel, on any domain ({!Sampled} does, through
          {!Stdx.Once}) *)
  output : self:int -> 's -> int;
}

val validate_exn : 's t -> 's t
