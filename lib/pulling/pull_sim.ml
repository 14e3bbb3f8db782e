type 's respond =
  spec:'s Pull_spec.t ->
  rng:Stdx.Rng.t ->
  round:int ->
  states:'s array ->
  target:int ->
  puller:int ->
  's

type 's responder = { resp_name : string; fresh : unit -> 's respond }

let truthful_responder () =
  {
    resp_name = "truthful";
    fresh =
      (fun () ~spec:_ ~rng:_ ~round:_ ~states ~target ~puller:_ ->
        states.(target));
  }

let random_responder () =
  {
    resp_name = "random";
    fresh =
      (fun () ~spec ~rng ~round:_ ~states:_ ~target:_ ~puller:_ ->
        spec.Pull_spec.random_state rng);
  }

let stuck_responder () =
  {
    resp_name = "stuck";
    fresh =
      (fun () ->
        let frozen = Hashtbl.create 8 in
        fun ~spec:_ ~rng:_ ~round:_ ~states ~target ~puller:_ ->
          match Hashtbl.find_opt frozen target with
          | Some s -> s
          | None ->
            Hashtbl.replace frozen target states.(target);
            states.(target));
  }

let mirror_responder () =
  {
    resp_name = "mirror";
    fresh =
      (fun () ~spec:_ ~rng:_ ~round:_ ~states ~target:_ ~puller ->
        states.(puller));
  }

let standard_responders () =
  [
    truthful_responder ();
    random_responder ();
    stuck_responder ();
    mirror_responder ();
  ]

type 's run = {
  spec : 's Pull_spec.t;
  faulty : int array;
  seed : int;
  rounds : int;
  outputs : int array array;
  states : 's array array;
  max_pulls : int;
  total_pulls : int;
  bits_pulled_per_round : float;
}

(* Shared stepping core. [observe ~round ~states ~outputs] is called for
   every simulated round (including round 0) and decides whether to keep
   going; the RNG stream layout is identical for every caller so the
   streaming and full-trace entry points replay the same execution.

   One kernel and one responder instance serve the whole run, and every
   per-round array is a buffer reused across rounds: the state vectors
   are double-buffered, and [observe] sees the live buffers, so it must
   copy what it keeps. *)
let simulate ?init ~(spec : 's Pull_spec.t) ~responder ~faulty ~rounds ~seed
    ~observe () =
  let n = spec.Pull_spec.n in
  if rounds < 0 then invalid_arg "Pull_sim.run: negative rounds";
  let sorted = List.sort_uniq Int.compare faulty in
  if List.length sorted <> List.length faulty then
    invalid_arg "Pull_sim.run: duplicate faulty ids";
  if List.exists (fun v -> v < 0 || v >= n) faulty then
    invalid_arg "Pull_sim.run: faulty id out of range";
  if List.length faulty > spec.Pull_spec.f then
    invalid_arg "Pull_sim.run: too many faulty nodes";
  let faulty = Array.of_list sorted in
  let is_faulty = Array.make n false in
  Array.iter (fun v -> is_faulty.(v) <- true) faulty;
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let initial =
    match init with
    | Some s ->
      if Array.length s <> n then invalid_arg "Pull_sim.run: init length";
      Array.copy s
    | None -> Array.init n (fun _ -> spec.Pull_spec.random_state init_rng)
  in
  let kernel = spec.Pull_spec.fresh_kernel () in
  let respond = responder.fresh () in
  let budget = spec.Pull_spec.pull_budget in
  let targets = Array.make budget 0 in
  let responses = Array.make budget initial.(0) in
  let outputs = Array.make n 0 in
  let max_pulls = ref 0 in
  let total_pulls = ref 0 in
  let cur = ref initial in
  let next = ref (Array.copy initial) in
  let t = ref 0 in
  let stop = ref false in
  while not !stop do
    let states = !cur in
    for v = 0 to n - 1 do
      outputs.(v) <- spec.Pull_spec.output ~self:v states.(v)
    done;
    let keep_going = observe ~round:!t ~states ~outputs in
    if (not keep_going) || !t >= rounds then stop := true
    else begin
      let next_states = !next in
      for v = 0 to n - 1 do
        next_states.(v) <-
          (if is_faulty.(v) then states.(v)
           else begin
             let rng = node_rng.(v) in
             let pulls = kernel.Pull_spec.pulls ~self:v ~rng states.(v) targets in
             if pulls > budget then
               invalid_arg "Pull_sim.run: pulls exceed the spec's pull_budget";
             total_pulls := !total_pulls + pulls;
             if pulls > !max_pulls then max_pulls := pulls;
             for i = 0 to pulls - 1 do
               let u = targets.(i) in
               responses.(i) <-
                 (if is_faulty.(u) then
                    respond ~spec ~rng:adv_rng ~round:!t ~states ~target:u
                      ~puller:v
                  else states.(u))
             done;
             kernel.Pull_spec.transition ~self:v ~rng ~own:states.(v) ~targets
               ~responses
           end)
      done;
      next := states;
      cur := next_states;
      incr t
    end
  done;
  (faulty, !t, !cur, !max_pulls, !total_pulls)

let bits_pulled_per_round ~(spec : 's Pull_spec.t) ~faulty ~rounds ~total_pulls
    =
  let correct_count = spec.Pull_spec.n - Array.length faulty in
  if rounds = 0 || correct_count = 0 then 0.0
  else
    float_of_int (total_pulls * spec.Pull_spec.state_bits)
    /. float_of_int (rounds * correct_count)

let run ?init ~(spec : 's Pull_spec.t) ~responder ~faulty ~rounds ~seed () =
  (* Rows are kept newest first and reversed at the end, so nothing is
     sized from [rounds] before [simulate] has validated it. *)
  let states = ref [] and outputs = ref [] in
  let observe ~round:_ ~states:s ~outputs:o =
    states := Array.copy s :: !states;
    outputs := Array.copy o :: !outputs;
    true
  in
  let faulty, _, _, max_pulls, total_pulls =
    simulate ?init ~spec ~responder ~faulty ~rounds ~seed ~observe ()
  in
  let states = Array.of_list (List.rev !states)
  and outputs = Array.of_list (List.rev !outputs) in
  {
    spec;
    faulty;
    seed;
    rounds;
    outputs;
    states;
    max_pulls;
    total_pulls;
    bits_pulled_per_round =
      bits_pulled_per_round ~spec ~faulty ~rounds ~total_pulls;
  }

type 's stream = {
  verdict : Sim.Online.verdict;
  rounds_simulated : int;
  early_exit : bool;
  final_states : 's array;
  stream_max_pulls : int;
  stream_total_pulls : int;
}

let run_stream ?init ?(early_exit = true) ~min_suffix ~(spec : 's Pull_spec.t)
    ~responder ~faulty ~rounds ~seed () =
  let correct =
    let faulty_sorted = List.sort_uniq Int.compare faulty in
    List.filter
      (fun v -> not (List.mem v faulty_sorted))
      (List.init spec.Pull_spec.n (fun i -> i))
  in
  let detector =
    Sim.Online.create ~c:spec.Pull_spec.c ~correct ~min_suffix ()
  in
  let observe ~round ~states:_ ~outputs =
    Sim.Online.observe detector ~round outputs;
    not (early_exit && Sim.Online.stabilised detector)
  in
  let _, rounds_simulated, final_states, max_pulls, total_pulls =
    simulate ?init ~spec ~responder ~faulty ~rounds ~seed ~observe ()
  in
  {
    verdict = Sim.Online.verdict detector;
    rounds_simulated;
    early_exit = rounds_simulated < rounds;
    final_states;
    stream_max_pulls = max_pulls;
    stream_total_pulls = total_pulls;
  }

let correct_ids run =
  List.filter
    (fun v -> not (Array.exists (fun u -> u = v) run.faulty))
    (List.init run.spec.Pull_spec.n (fun i -> i))
