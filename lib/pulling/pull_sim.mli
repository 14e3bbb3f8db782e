(** Simulator for the pulling model, with per-node message accounting.

    A run makes one kernel from the spec ({!Pull_spec.t.fresh_kernel})
    and one instance of the responder ({!responder.fresh}), and reuses its target, response, output and state buffers across
    rounds. The RNG layout is fixed: a master stream seeded by [seed]
    splits, in order, the initial-state stream, the responder stream
    and one stream per node. *)

type 's respond =
  spec:'s Pull_spec.t ->
  rng:Stdx.Rng.t ->
  round:int ->
  states:'s array ->
  target:int ->
  puller:int ->
  's
(** What faulty node [target] answers to [puller] this round. [states] is
    a buffer the simulator reuses, so a responder may keep its elements
    but not the array. *)

type 's responder = {
  resp_name : string;
  fresh : unit -> 's respond;
      (** a per-run instance: anything a responder remembers (the stuck
          responder's frozen answers) lives in the instance, which the
          simulator makes once per run, so one responder value serves
          any number of runs, sequential or concurrent *)
}

val truthful_responder : unit -> 's responder
val random_responder : unit -> 's responder
(** A fresh random state per request — per-puller equivocation. *)

val stuck_responder : unit -> 's responder
(** Always answers with the state the target held at the first request
    of the run. *)

val mirror_responder : unit -> 's responder
(** Answers with the puller's own current state — a flattery attack that
    always confirms whatever the asker already believes. *)

val standard_responders : unit -> 's responder list

type 's run = {
  spec : 's Pull_spec.t;
  faulty : int array;
  seed : int;
  rounds : int;
  outputs : int array array;  (** [outputs.(t).(v)] *)
  states : 's array array;
  max_pulls : int;  (** max pulls per round by a non-faulty node *)
  total_pulls : int;  (** summed over non-faulty nodes and all rounds *)
  bits_pulled_per_round : float;
      (** average bits received per non-faulty node per round *)
}

val run :
  ?init:'s array ->
  spec:'s Pull_spec.t ->
  responder:'s responder ->
  faulty:int list ->
  rounds:int ->
  seed:int ->
  unit ->
  's run
(** Full-trace simulation: materialises every state/output row. For
    verdict-only sweeps prefer {!run_stream}, which replays the exact
    same execution (identical RNG stream) without storing the trace. *)

type 's stream = {
  verdict : Sim.Online.verdict;
  rounds_simulated : int;
      (** rounds actually executed; < [rounds] iff [early_exit] *)
  early_exit : bool;
  final_states : 's array;
  stream_max_pulls : int;  (** as [max_pulls], over the simulated prefix *)
  stream_total_pulls : int;  (** as [total_pulls], over the simulated prefix *)
}

val run_stream :
  ?init:'s array ->
  ?early_exit:bool ->
  min_suffix:int ->
  spec:'s Pull_spec.t ->
  responder:'s responder ->
  faulty:int list ->
  rounds:int ->
  seed:int ->
  unit ->
  's stream
(** Streaming counterpart of {!run}: O(n) live state, online
    stabilisation detection, and (unless [~early_exit:false]) an early
    exit as soon as the clean counting suffix reaches [min_suffix]. With
    [~early_exit:false] the verdict is identical to running
    [Sim.Stabilise.of_outputs] over the full trace of {!run} with the
    same arguments. *)

val correct_ids : 's run -> int list
