type 's crafter = {
  craft :
    spec:'s Algo.Spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    faulty:int array ->
    's array array;
}

type flat_env = { n : int; random_code : Stdx.Rng.t -> int }

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:Statebuf.t ->
    faulty:int array ->
    out:int array ->
    unit;
}

type 's t = {
  name : string;
  benign : bool;
  fresh : unit -> 's crafter;
  fresh_flat : (flat_env -> flat_crafter) option;
}

let name t = t.name

let is_faulty faulty v = Array.exists (fun u -> u = v) faulty

let correct_ids n faulty =
  Array.of_list
    (List.filter (fun v -> not (is_faulty faulty v)) (List.init n (fun i -> i)))

(* Build the message matrix by calling [msg ~fi ~sender ~recipient]. *)
let matrix ~n ~faulty msg =
  Array.mapi (fun fi sender -> Array.init n (fun r -> msg ~fi ~sender ~recipient:r)) faulty

(* --- flat-kernel plumbing ------------------------------------------- *)

(* Allocation-free membership test for the small faulty arrays. *)
(* A while-loop, not an inner recursive function — a closure here would
   allocate on every call, and [fill_correct] probes every node id each
   crafted round. *)
let mem_int (a : int array) x =
  let len = Array.length a in
  let i = ref 0 in
  while !i < len && a.(!i) <> x do
    incr i
  done;
  !i < len

let fill_row (out : int array) ~base ~n code =
  for r = 0 to n - 1 do
    out.(base + r) <- code
  done

(* Correct ids in ascending order into [dst]; returns the count. Matches
   [correct_ids] without allocating. *)
let fill_correct (dst : int array) ~n ~faulty =
  let k = ref 0 in
  for v = 0 to n - 1 do
    if not (mem_int faulty v) then begin
      dst.(!k) <- v;
      incr k
    end
  done;
  !k

(* Ring of the last [depth] packed state rows, newest at [head],
   preallocated once per run. *)
type ring = {
  rows : int array array;
  mutable head : int;
  mutable pushes : int;
}

let ring_create ~depth ~n =
  {
    rows = Array.init depth (fun _ -> Array.make n 0);
    head = depth - 1;
    pushes = 0;
  }

let ring_push ring states n =
  let depth = Array.length ring.rows in
  ring.head <- (ring.head + 1) mod depth;
  Statebuf.blit_to states ring.rows.(ring.head) n;
  ring.pushes <- ring.pushes + 1

(* The row [delay] pushes back, or the newest row (the just-pushed
   current states) while history is still filling. *)
let ring_nth ring ~delay =
  let depth = Array.length ring.rows in
  if ring.pushes > delay then
    ring.rows.((ring.head - delay + (2 * depth)) mod depth)
  else ring.rows.(ring.head)

(* The boxed face of a flat kernel: encode the states through the spec's
   codec, run the kernel, decode the message rows. The kernel instance
   is made on the first call, when the node count is known, and kept
   for the crafter's lifetime, so its history carries across rounds. *)
let boxed_of_flat make () =
  let kernel = ref None in
  {
    craft =
      (fun ~spec ~rng ~round ~states ~faulty ->
        let codec = Algo.Spec.codec_exn ~who:"Adversary.craft" spec in
        let n = Array.length states in
        let k =
          match !kernel with
          | Some k -> k
          | None ->
            let k = make { n; random_code = codec.Algo.Spec.random_code } in
            kernel := Some k;
            k
        in
        let packed = Statebuf.create ~num_states:codec.Algo.Spec.num_states n in
        Array.iteri
          (fun v s -> Statebuf.set packed v (codec.Algo.Spec.encode_state s))
          states;
        let out = Array.make (Array.length faulty * n) 0 in
        k.craft_flat ~rng ~round ~states:packed ~faulty ~out;
        Array.mapi
          (fun fi _ ->
            Array.init n (fun r ->
                codec.Algo.Spec.decode_state out.((fi * n) + r)))
          faulty);
  }

(* A standard strategy: one flat kernel, reached boxed through the
   codec adapter. *)
let standard ?(benign = false) name make =
  { name; benign; fresh = boxed_of_flat make; fresh_flat = Some make }

(* --- the zoo --------------------------------------------------------- *)

let benign () =
  standard ~benign:true "benign" (fun env ->
      let n = env.n in
      {
        craft_flat =
          (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
            for fi = 0 to Array.length faulty - 1 do
              fill_row out ~base:(fi * n) ~n (Statebuf.get states faulty.(fi))
            done);
      })

let stuck () =
  standard "stuck" (fun env ->
      let n = env.n in
      let frozen = Array.make n 0 in
      let have = ref false in
      {
        craft_flat =
          (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
            let nf = Array.length faulty in
            if not !have then begin
              for fi = 0 to nf - 1 do
                frozen.(fi) <- Statebuf.get states faulty.(fi)
              done;
              have := true
            end;
            for fi = 0 to nf - 1 do
              fill_row out ~base:(fi * n) ~n frozen.(fi)
            done);
      })

let random_consistent () =
  standard "random-consistent" (fun env ->
      let n = env.n in
      {
        craft_flat =
          (fun ~rng ~round:_ ~states:_ ~faulty ~out ->
            (* One draw per faulty node, in fi order. *)
            for fi = 0 to Array.length faulty - 1 do
              fill_row out ~base:(fi * n) ~n (env.random_code rng)
            done);
      })

let random_equivocate () =
  standard "random-equivocate" (fun env ->
      let n = env.n in
      {
        craft_flat =
          (fun ~rng ~round:_ ~states:_ ~faulty ~out ->
            (* Draws in matrix order: fi outer, recipient inner. *)
            for fi = 0 to Array.length faulty - 1 do
              let base = fi * n in
              for r = 0 to n - 1 do
                out.(base + r) <- env.random_code rng
              done
            done);
      })

let mimic ~offset () =
  standard (Printf.sprintf "mimic(+%d)" offset) (fun env ->
      let n = env.n in
      let correct = Array.make n 0 in
      {
        craft_flat =
          (fun ~rng:_ ~round ~states ~faulty ~out ->
            let nc = fill_correct correct ~n ~faulty in
            for fi = 0 to Array.length faulty - 1 do
              (* With no correct node to impersonate (n = f), fall back
                 to replaying the faulty node's own state. *)
              let victim =
                if nc = 0 then faulty.(fi)
                else correct.((fi + offset + round) mod nc)
              in
              fill_row out ~base:(fi * n) ~n (Statebuf.get states victim)
            done);
      })

let split_brain () =
  standard "split-brain" (fun env ->
      let n = env.n in
      let correct = Array.make n 0 in
      {
        craft_flat =
          (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
            let nc = fill_correct correct ~n ~faulty in
            for fi = 0 to Array.length faulty - 1 do
              let base = fi * n in
              (* No correct halves to play against each other when
                 n = f: replay the faulty node's own state. *)
              if nc = 0 then
                fill_row out ~base ~n (Statebuf.get states faulty.(fi))
              else begin
                let a = Statebuf.get states correct.(0) in
                let b = Statebuf.get states correct.(nc - 1) in
                for r = 0 to n - 1 do
                  out.(base + r) <- (if r mod 2 = 0 then a else b)
                done
              end
            done);
      })

let stale ~delay () =
  if delay < 0 then invalid_arg "Adversary.stale: negative delay";
  standard (Printf.sprintf "stale(%d)" delay) (fun env ->
      let n = env.n in
      let ring = ring_create ~depth:(delay + 1) ~n in
      {
        craft_flat =
          (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
            ring_push ring states n;
            let old = ring_nth ring ~delay in
            for fi = 0 to Array.length faulty - 1 do
              fill_row out ~base:(fi * n) ~n old.(faulty.(fi))
            done);
      })

let replay_correct ~delay () =
  if delay < 0 then invalid_arg "Adversary.replay_correct: negative delay";
  standard (Printf.sprintf "replay-correct(%d)" delay) (fun env ->
      let n = env.n in
      let ring = ring_create ~depth:(delay + 1) ~n in
      let correct = Array.make n 0 in
      {
        craft_flat =
          (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
            ring_push ring states n;
            let old = ring_nth ring ~delay in
            let nc = fill_correct correct ~n ~faulty in
            for fi = 0 to Array.length faulty - 1 do
              (* n = f: no correct node to replay, use own old state. *)
              let src = if nc = 0 then faulty.(fi) else correct.(fi mod nc) in
              fill_row out ~base:(fi * n) ~n old.(src)
            done);
      })

let flip_flop () =
  standard "flip-flop" (fun env ->
      let n = env.n in
      let pair = ref None in
      {
        craft_flat =
          (fun ~rng ~round ~states:_ ~faulty ~out ->
            let s0, s1 =
              match !pair with
              | Some p -> p
              | None ->
                let s1 = env.random_code rng in
                let s0 = env.random_code rng in
                pair := Some (s0, s1);
                (s0, s1)
            in
            for fi = 0 to Array.length faulty - 1 do
              let base = fi * n in
              for r = 0 to n - 1 do
                out.(base + r) <- (if (round + r) mod 2 = 0 then s0 else s1)
              done
            done);
      })

(* Spread of a multiset of outputs: number of distinct values. *)
let distinct_count compare values =
  let sorted = List.sort_uniq compare values in
  List.length sorted

let greedy_confusion ~pool () =
  {
    name = Printf.sprintf "greedy-confusion(%d)" pool;
    benign = false;
    (* One-step lookahead simulates recipients' transitions on boxed
       states and splits probe rngs — intrinsically boxed; the engine
       bridges it (decode, craft, re-encode). *)
    fresh_flat = None;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec ~rng ~round:_ ~states ~faulty ->
              let n = Array.length states in
              let correct = correct_ids n faulty in
              let candidates =
                Array.append
                  (Array.map (fun v -> states.(v)) correct)
                  (Array.init pool (fun _ -> spec.Algo.Spec.random_state rng))
              in
              (* For each recipient, simulate its transition assuming every
                 other sender is truthful and score each candidate by how
                 far the recipient's next output drifts from the current
                 majority next-output. *)
              let truthful_next r =
                let received = Array.copy states in
                let probe_rng = Stdx.Rng.split rng in
                spec.Algo.Spec.transition ~self:r ~rng:probe_rng received
              in
              let baseline_outputs =
                Array.to_list
                  (Array.map
                     (fun r -> spec.Algo.Spec.output ~self:r (truthful_next r))
                     correct)
              in
              matrix ~n ~faulty (fun ~fi:_ ~sender ~recipient ->
                  if is_faulty faulty recipient then states.(sender)
                  else begin
                    let best = ref candidates.(0) in
                    let best_score = ref min_int in
                    Array.iter
                      (fun cand ->
                        let received = Array.copy states in
                        received.(sender) <- cand;
                        let probe_rng = Stdx.Rng.split rng in
                        let next =
                          spec.Algo.Spec.transition ~self:recipient ~rng:probe_rng received
                        in
                        let o = spec.Algo.Spec.output ~self:recipient next in
                        let score =
                          distinct_count Int.compare (o :: baseline_outputs)
                        in
                        if score > !best_score then begin
                          best_score := score;
                          best := cand
                        end)
                      candidates;
                    !best
                  end));
        });
  }

let standard_suite () =
  [
    benign ();
    stuck ();
    random_consistent ();
    random_equivocate ();
    mimic ~offset:1 ();
    split_brain ();
    stale ~delay:3 ();
    replay_correct ~delay:2 ();
    flip_flop ();
  ]

let hostile_suite () = List.filter (fun a -> not a.benign) (standard_suite ())
