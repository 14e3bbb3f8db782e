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

(* --- flat-kernel plumbing ------------------------------------------- *)

(* Allocation-free membership test: [x] among [a.(0 .. len-1)]. *)
(* A while-loop, not an inner recursive function — a closure here would
   allocate on every call, and [fill_correct] probes every node id each
   crafted round. *)
let mem_prefix (a : int array) len x =
  let i = ref 0 in
  while !i < len && a.(!i) <> x do
    incr i
  done;
  !i < len

let fill_row (out : int array) ~base ~n code =
  for r = 0 to n - 1 do
    out.(base + r) <- code
  done

(* Correct ids in ascending order into [dst]; returns the count. *)
let fill_correct (dst : int array) ~n ~faulty =
  let nf = Array.length faulty in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if not (mem_prefix faulty nf v) then begin
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

(* Scratch of the code-space lookahead, made on a crafter's first craft,
   when the codec and the node count are known. *)
type 's lookahead = {
  codec : 's Algo.Spec.codec;
  kernel : Algo.Spec.kernel;
  codes : int array;  (* the current states, encoded once per round *)
  recv : int array;
      (* [codes] with at most the probed sender's slot rewritten: probes
         differ by one slot, which kernel caches patch cheaply *)
  ids : int array;  (* correct ids, ascending *)
  baseline : int array;  (* truthful next outputs of [ids], in order *)
  pool_codes : int array;  (* this round's random candidates *)
  probe_rng : Stdx.Rng.t;
      (* reseeded per probe by [Rng.split_into]: the split each probe
         steps on, without allocating one *)
}

let lookahead_create (spec : 's Algo.Spec.t) ~pool ~n =
  let codec = Algo.Spec.codec_exn ~who:"Adversary.greedy_confusion" spec in
  {
    codec;
    kernel = codec.Algo.Spec.fresh_kernel ();
    codes = Array.make n 0;
    recv = Array.make n 0;
    ids = Array.make n 0;
    baseline = Array.make n 0;
    pool_codes = Array.make pool 0;
    probe_rng = Stdx.Rng.create 0;
  }

let greedy_confusion ~pool () =
  if pool < 0 then invalid_arg "Adversary.greedy_confusion: negative pool";
  {
    name = Printf.sprintf "greedy-confusion(%d)" pool;
    benign = false;
    (* The lookahead runs in code space, but the strategy keeps the
       boxed face: the engine bridges it (decode, craft, re-encode). *)
    fresh_flat = None;
    fresh =
      (fun () ->
        let scratch = ref None in
        {
          craft =
            (fun ~spec ~rng ~round:_ ~states ~faulty ->
              let la =
                match !scratch with
                | Some la -> la
                | None ->
                  let la =
                    lookahead_create spec ~pool ~n:(Array.length states)
                  in
                  scratch := Some la;
                  la
              in
              let codec = la.codec in
              let step = la.kernel.Algo.Spec.step in
              let codes = la.codes and recv = la.recv and ids = la.ids in
              let baseline = la.baseline and pool_codes = la.pool_codes in
              let probe_rng = la.probe_rng in
              let n = Array.length states in
              for v = 0 to n - 1 do
                let c = codec.Algo.Spec.encode_state states.(v) in
                codes.(v) <- c;
                recv.(v) <- c
              done;
              let nc = fill_correct ids ~n ~faulty in
              (* Candidates, by index: the correct nodes' states, then the
                 pool, drawn in order. *)
              for p = 0 to pool - 1 do
                pool_codes.(p) <- codec.Algo.Spec.random_code rng
              done;
              let num_cands = nc + pool in
              (* Every probe (baseline or candidate) steps on its own
                 split of the adversary stream. *)
              for i = 0 to nc - 1 do
                let r = ids.(i) in
                Stdx.Rng.split_into rng probe_rng;
                let next = step ~self:r ~rng:probe_rng recv in
                baseline.(i) <- codec.Algo.Spec.output_code ~self:r next
              done;
              (* The first candidate whose probed output lies outside the
                 baseline, or candidate 0 when none does. *)
              let winner ~sender ~recipient =
                let best = ref (-1) in
                let j = ref 0 in
                while !best < 0 && !j < num_cands do
                  recv.(sender) <-
                    (if !j < nc then codes.(ids.(!j)) else pool_codes.(!j - nc));
                  Stdx.Rng.split_into rng probe_rng;
                  let next = step ~self:recipient ~rng:probe_rng recv in
                  if
                    not
                      (mem_prefix baseline nc
                         (codec.Algo.Spec.output_code ~self:recipient next))
                  then best := !j;
                  incr j
                done;
                (* Early exit: advance the stream past the candidates left
                   unprobed, one split's draw each. *)
                for _ = !j to num_cands - 1 do
                  Stdx.Rng.skip rng
                done;
                max !best 0
              in
              (* Correct candidates go back as their boxed states, random
                 ones decoded. *)
              let candidate j =
                if j < nc then states.(ids.(j))
                else codec.Algo.Spec.decode_state pool_codes.(j - nc)
              in
              let nf = Array.length faulty in
              Array.map
                (fun sender ->
                  let row = Array.make n states.(sender) in
                  for r = 0 to n - 1 do
                    if not (mem_prefix faulty nf r) then
                      row.(r) <- candidate (winner ~sender ~recipient:r)
                  done;
                  recv.(sender) <- codes.(sender);
                  row)
                faulty);
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
