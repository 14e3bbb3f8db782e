(* Reference semantics of the broadcast model, written straight from
   Section 2 of the paper and deliberately naive: boxed states, a full
   n x n message matrix built afresh every round, the spec's boxed
   [transition] and [output], and boxed copies of the standard adversary
   strategies written from their one-line descriptions in
   [adversary.mli]. The differential tests in test_flat.ml and the
   engine bench hold Sim.Engine to it, state for state and draw for
   draw.

   It shares no code with Sim.Engine, Statebuf, the codecs or the flat
   adversary kernels. What it does share is the RNG layout (a master
   stream split into init, adversary, one stream per node, corruption),
   the schedule data type, and Adversary.greedy_confusion's crafter,
   which is that strategy's only implementation. *)

type 's crafter =
  spec:'s Algo.Spec.t ->
  rng:Stdx.Rng.t ->
  round:int ->
  states:'s array ->
  faulty:int array ->
  's array array
(* [msgs.(fi).(r)]: what the fi-th faulty node sends recipient r. *)

let correct_of n faulty =
  List.filter (fun v -> not (Array.mem v faulty)) (List.init n Fun.id)
  |> Array.of_list

let rows faulty n msg =
  Array.mapi (fun fi sender -> Array.init n (fun r -> msg fi sender r)) faulty

(* History of state vectors seen by a crafter, newest first: [delay]
   rounds back, or the current vector while too few exist. *)
let remember history states delay =
  history := Array.copy states :: !history;
  match List.nth_opt !history delay with
  | Some old -> old
  | None -> states

(* The standard strategies, each a fresh crafter per phase. *)

(* Faulty nodes behave exactly like correct ones. *)
let benign () : 's crafter =
 fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
  rows faulty (Array.length states) (fun _ sender _ -> states.(sender))

(* Faulty nodes keep sending the state they held when first asked. *)
let stuck () : 's crafter =
  let frozen = ref None in
  fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
    let held =
      match !frozen with
      | Some h -> h
      | None ->
        let h = Array.map (fun v -> states.(v)) faulty in
        frozen := Some h;
        h
    in
    rows faulty (Array.length states) (fun fi _ _ -> held.(fi))

(* A fresh random state per faulty node per round, sent to everyone. *)
let random_consistent () : 's crafter =
 fun ~spec ~rng ~round:_ ~states ~faulty ->
  let drawn = Array.map (fun _ -> spec.Algo.Spec.random_state rng) faulty in
  rows faulty (Array.length states) (fun fi _ _ -> drawn.(fi))

(* An independent random state to every recipient. *)
let random_equivocate () : 's crafter =
 fun ~spec ~rng ~round:_ ~states ~faulty ->
  rows faulty (Array.length states) (fun _ _ _ ->
      spec.Algo.Spec.random_state rng)

(* Impersonate the correct node picked by rotating over correct ids. *)
let mimic offset () : 's crafter =
 fun ~spec:_ ~rng:_ ~round ~states ~faulty ->
  let n = Array.length states in
  let correct = correct_of n faulty in
  let nc = Array.length correct in
  rows faulty n (fun fi sender _ ->
      if nc = 0 then states.(sender)
      else states.(correct.((fi + offset + round) mod nc)))

(* Even recipients see the first correct node, odd ones the last. *)
let split_brain () : 's crafter =
 fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
  let n = Array.length states in
  let correct = correct_of n faulty in
  let nc = Array.length correct in
  rows faulty n (fun _ sender r ->
      if nc = 0 then states.(sender)
      else if r mod 2 = 0 then states.(correct.(0))
      else states.(correct.(nc - 1)))

(* The faulty node's own state from [delay] rounds ago. *)
let stale delay () : 's crafter =
  let history = ref [] in
  fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
    let old = remember history states delay in
    rows faulty (Array.length states) (fun _ sender _ -> old.(sender))

(* A correct node's state from [delay] rounds ago. *)
let replay_correct delay () : 's crafter =
  let history = ref [] in
  fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
    let n = Array.length states in
    let old = remember history states delay in
    let correct = correct_of n faulty in
    let nc = Array.length correct in
    rows faulty n (fun fi sender _ ->
        if nc = 0 then old.(sender) else old.(correct.(fi mod nc)))

(* Two random states drawn once, the odd-phase one first; recipient r
   sees the even-phase one when round + r is even. *)
let flip_flop () : 's crafter =
  let pair = ref None in
  fun ~spec ~rng ~round ~states ~faulty ->
    let s0, s1 =
      match !pair with
      | Some p -> p
      | None ->
        let s1 = spec.Algo.Spec.random_state rng in
        let s0 = spec.Algo.Spec.random_state rng in
        pair := Some (s0, s1);
        (s0, s1)
    in
    rows faulty (Array.length states) (fun _ _ r ->
        if (round + r) mod 2 = 0 then s0 else s1)

(* The reference crafter for a library strategy, chosen by its name. *)
let crafter_of (adversary : 's Sim.Adversary.t) : unit -> 's crafter =
  let name = Sim.Adversary.name adversary in
  let param fmt = Scanf.sscanf_opt name fmt Fun.id in
  match name with
  | "benign" -> benign
  | "stuck" -> stuck
  | "random-consistent" -> random_consistent
  | "random-equivocate" -> random_equivocate
  | "split-brain" -> split_brain
  | "flip-flop" -> flip_flop
  | _ -> (
    match
      ( param "mimic(+%d)%!",
        param "stale(%d)%!",
        param "replay-correct(%d)%!",
        param "greedy-confusion(%d)%!" )
    with
    | Some offset, _, _, _ -> mimic offset
    | _, Some delay, _, _ -> stale delay
    | _, _, Some delay, _ -> replay_correct delay
    | _, _, _, Some _ ->
      fun () -> (adversary.Sim.Adversary.fresh ()).Sim.Adversary.craft
    | _ -> invalid_arg ("Engine_ref: no reference strategy for " ^ name))

type 's run = {
  states : 's array array;  (** [states.(t)]: the vector observed at round t *)
  outputs : int array array;  (** [outputs.(t).(v)] = h(v, states.(t).(v)) *)
  corruptions : (int * int list) list;
      (** [(round, sorted victims)] per transient event, in order *)
}

(* Execute [schedule] over its whole horizon. *)
let run_schedule ?init ~(spec : 's Algo.Spec.t) ~(schedule : 's Sim.Schedule.t)
    ~seed () =
  let n = spec.Algo.Spec.n in
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let corrupt_rng = Stdx.Rng.split master in
  let phases = Array.of_list schedule.Sim.Schedule.phases in
  let starts =
    Array.mapi
      (fun i _ ->
        let s = ref 0 in
        for j = 0 to i - 1 do
          s := !s + phases.(j).Sim.Schedule.duration
        done;
        !s)
      phases
  in
  let total =
    Array.fold_left (fun acc p -> acc + p.Sim.Schedule.duration) 0 phases
  in
  let events =
    List.stable_sort
      (fun a b -> compare a.Sim.Schedule.round b.Sim.Schedule.round)
      schedule.Sim.Schedule.events
  in
  let states =
    ref
      (match init with
      | Some s -> Array.copy s
      | None -> Array.init n (fun _ -> spec.Algo.Spec.random_state init_rng))
  in
  (* The phase in force at round t is the last one starting at or before
     t; every phase entered gets a fresh crafter, even one lasting zero
     rounds. *)
  let phase = ref (-1) in
  let faulty = ref [||] in
  let craft = ref (benign ()) in
  let enter t =
    while !phase + 1 < Array.length phases && starts.(!phase + 1) <= t do
      incr phase;
      let p = phases.(!phase) in
      faulty := Array.of_list (List.sort_uniq compare p.Sim.Schedule.faulty);
      craft := crafter_of p.Sim.Schedule.adversary ()
    done
  in
  let out_states = Array.make (total + 1) [||] in
  let out_outputs = Array.make (total + 1) [||] in
  let corruptions = ref [] in
  for t = 0 to total do
    enter t;
    (* Transient events strike correct nodes before the row is seen. *)
    List.iter
      (fun e ->
        if e.Sim.Schedule.round = t then begin
          let correct = correct_of n !faulty in
          let k = min e.Sim.Schedule.victims (Array.length correct) in
          let picks =
            Stdx.Rng.sample_without_replacement corrupt_rng k
              (Array.length correct)
          in
          let next = Array.copy !states in
          List.iter
            (fun i ->
              next.(correct.(i)) <- spec.Algo.Spec.random_state corrupt_rng)
            picks;
          states := next;
          corruptions :=
            (t, List.sort compare (List.map (fun i -> correct.(i)) picks))
            :: !corruptions
        end)
      events;
    let cur = !states in
    out_states.(t) <- Array.copy cur;
    out_outputs.(t) <-
      Array.mapi (fun v s -> spec.Algo.Spec.output ~self:v s) cur;
    if t < total then begin
      let fa = !faulty in
      let crafted =
        if Array.length fa = 0 then [||]
        else !craft ~spec ~rng:adv_rng ~round:t ~states:cur ~faulty:fa
      in
      (* message.(u).(v): what node u sends node v this round. *)
      let message =
        Array.init n (fun u ->
            Array.init n (fun v ->
                let fi = ref (-1) in
                Array.iteri (fun i w -> if w = u then fi := i) fa;
                if !fi < 0 then cur.(u) else crafted.(!fi).(v)))
      in
      states :=
        Array.init n (fun v ->
            let received = Array.init n (fun u -> message.(u).(v)) in
            spec.Algo.Spec.transition ~self:v ~rng:node_rng.(v) received)
    end
  done;
  {
    states = out_states;
    outputs = out_outputs;
    corruptions = List.rev !corruptions;
  }

(* A static run: one adversary and faulty set for [rounds] rounds. *)
let run ?init ~spec ~adversary ~faulty ~rounds ~seed () =
  run_schedule ?init ~spec
    ~schedule:
      {
        Sim.Schedule.phases =
          [ { Sim.Schedule.adversary; faulty; duration = rounds } ];
        events = [];
      }
    ~seed ()
