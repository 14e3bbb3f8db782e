type 's state = {
  inner : 's;
  a : int option;
  d : bool;
  prev_r : int;
}

type t_params = {
  boost : Counting.Boost.params;
  samples : int;
  pulls_per_round : int;
}

type 's t = {
  spec : 's state Pull_spec.t;
  params : t_params;
  inner : 's Algo.Spec.t;
}

type king_mode = Predicted | All_kings

(* Boyer-Moore majority with verification over a.(0 .. len-1), the
   semantics of Algo.Vote.majority_int ~default:0 without its closures. *)
let majority (a : int array) len =
  let candidate = ref 0 and score = ref 0 in
  for i = 0 to len - 1 do
    let x = a.(i) in
    if !score = 0 then begin
      candidate := x;
      score := 1
    end
    else if x = !candidate then incr score
    else decr score
  done;
  let cnt = ref 0 in
  for i = 0 to len - 1 do
    if a.(i) = !candidate then incr cnt
  done;
  if !cnt * 2 > len then !candidate else 0

(* The per-run kernel. Pull targets are laid out as

     [ n-1 block peers | M samples of block 0 | ... | M of block k-1
     | M network-wide samples | kings ]

   where the king part is all F+2 potential kings (All_kings) or the
   predicted king, present iff the predicted instruction is a king round
   (Predicted). All scratch is created here, once per run, so the spec
   itself stays immutable and shareable across domains. *)
let fresh_kernel ~king_mode ~fixed_links ~(inner : 's Algo.Spec.t)
    (ic : 's Algo.Spec.codec) (p : Counting.Boost.params) ~samples () :
    's state Pull_spec.kernel =
  let k = p.Counting.Boost.k
  and m = p.Counting.Boost.m
  and n_inner = p.Counting.Boost.n_inner
  and big_n = p.Counting.Boost.big_n
  and tau = p.Counting.Boost.tau
  and cap = p.Counting.Boost.big_c in
  let peer_count = n_inner - 1 in
  let pk_base = peer_count + (k * samples) in
  let full_pulls = pk_base + samples + 1 in
  let slot_of = Array.init big_n (fun u -> u mod n_inner) in
  let peers =
    Array.init (big_n * peer_count) (fun i ->
        let self = i / peer_count and j = i mod peer_count in
        let slot = slot_of.(self) in
        self - slot + (if j < slot then j else j + 1))
  in
  (* Counter views (Section 3.2). Block l's view of an inner counter
     value is Counter_view.of_value at level l, whose modulus
     tau (2m)^(l+1) divides [top] = tau (2m)^k; reducing the value once
     mod [top] therefore serves every level, and the (r, b) pair of each
     level is tabulated over [0, top) unless that would be large. *)
  let top = p.Counting.Boost.required_inner_c in
  let pow_level = Array.init k (fun l -> Stdx.Imath.pow (2 * m) l) in
  let view_tabs = (k + 1) * top <= 1 lsl 20 in
  let r_tab = Array.init (if view_tabs then top else 0) (fun v -> v mod tau) in
  let b_tab =
    Array.init (if view_tabs then k * top else 0) (fun i ->
        let l = i / top and v = i mod top in
        v / tau / pow_level.(l) mod m)
  in
  let reduce value =
    if value >= 0 && value < top then value else Stdx.Imath.imod value top
  in
  let view_r v = if view_tabs then r_tab.(v) else v mod tau in
  let view_b l v =
    if view_tabs then b_tab.((l * top) + v) else v / tau / pow_level.(l) mod m
  in
  (* One inner-kernel instance per block, as in Boost's flat kernel: each
     instance's cache stays keyed to one block's messages. *)
  let inner_kernels = Array.init k (fun _ -> ic.Algo.Spec.fresh_kernel ()) in
  let inner_msgs = Array.make n_inner 0 in
  let ballots = Array.make samples 0 in
  let block_votes = Array.make k 0 in
  (* Phase-king sample counts: [hist.(x)] counts samples holding
     [Some x], [hist.(cap)] those holding None or an out-of-range value;
     [bins] remembers which bins to clear after the step. *)
  let hist = Array.make (cap + 1) 0 in
  let bins = Array.make samples 0 in
  let bin_of = function Some x when x >= 0 && x < cap -> x | Some _ | None -> cap in
  let two_thirds z = 3 * z >= 2 * samples in
  let increment = Counting.Phase_king.increment ~cap in
  let sample_value targets (responses : 's state array) i =
    let u = targets.(i) in
    reduce (inner.Algo.Spec.output ~self:slot_of.(u) responses.(i).inner)
  in
  let pulls ~self ~rng (own : 's state) targets =
    Array.blit peers (self * peer_count) targets 0 peer_count;
    match king_mode with
    | All_kings ->
      let links = fixed_links.(self) in
      Array.blit links 0 targets peer_count (Array.length links);
      peer_count + Array.length links
    | Predicted ->
      let pos = ref peer_count in
      for block = 0 to k - 1 do
        for _ = 1 to samples do
          targets.(!pos) <- (block * n_inner) + Stdx.Rng.int rng n_inner;
          incr pos
        done
      done;
      for _ = 1 to samples do
        targets.(!pos) <- Stdx.Rng.int rng big_n;
        incr pos
      done;
      let predicted = (own.prev_r + 1) mod tau in
      if predicted mod 3 = 2 then begin
        targets.(!pos) <- predicted / 3;
        full_pulls
      end
      else full_pulls - 1
  in
  let transition ~self ~rng ~(own : 's state) ~targets
      ~(responses : 's state array) =
    (* Block peers come first; rebuild the block's message vector in code
       space and step this block's inner kernel. *)
    let slot = slot_of.(self) in
    for i = 0 to peer_count - 1 do
      inner_msgs.(slot_of.(targets.(i))) <-
        ic.Algo.Spec.encode_state responses.(i).inner
    done;
    inner_msgs.(slot) <- ic.Algo.Spec.encode_state own.inner;
    let inner' =
      ic.Algo.Spec.decode_state
        ((inner_kernels.(self / n_inner)).Algo.Spec.step ~self:slot ~rng
           inner_msgs)
    in
    (* Leader vote from the per-block samples, then R from the leader
       block's samples. *)
    for block = 0 to k - 1 do
      let base = peer_count + (block * samples) in
      for s = 0 to samples - 1 do
        ballots.(s) <- view_b block (sample_value targets responses (base + s))
      done;
      block_votes.(block) <- majority ballots samples
    done;
    let leader = majority block_votes k in
    let base = peer_count + (leader * samples) in
    for s = 0 to samples - 1 do
      ballots.(s) <- view_r (sample_value targets responses (base + s))
    done;
    let r_value = majority ballots samples in
    (* Sampled phase-king instruction I_R (Section 5.3, "Randomised Phase
       King"): the N-F quorum becomes a 2/3 fraction of the M network-wide
       samples, the F+1 bar a 1/3 fraction (Lemma 8). *)
    let instr = r_value mod 3 in
    for s = 0 to samples - 1 do
      let b = bin_of responses.(pk_base + s).a in
      bins.(s) <- b;
      hist.(b) <- hist.(b) + 1
    done;
    let own_count =
      match own.a with
      | None -> hist.(cap)
      | Some x -> if x >= 0 && x < cap then hist.(x) else 0
    in
    (* I_{3l+1}'s smallest value held by more than a third of the
       samples: any such value is one of the sampled bins. *)
    let min_third = ref cap in
    if instr = 1 then
      for s = 0 to samples - 1 do
        let b = bins.(s) in
        if b < !min_third && 3 * hist.(b) > samples then min_third := b
      done;
    for s = 0 to samples - 1 do
      hist.(bins.(s)) <- 0
    done;
    match instr with
    | 0 ->
      let a = if two_thirds own_count then own.a else None in
      { inner = inner'; a = increment a; d = own.d; prev_r = r_value }
    | 1 ->
      let a = if !min_third = cap then None else Some !min_third in
      { inner = inner'; a = increment a; d = two_thirds own_count;
        prev_r = r_value }
    | _ ->
      let a =
        if own.a = None || not own.d then begin
          let king =
            match king_mode with
            | All_kings -> pk_base + samples + (r_value / 3)
            | Predicted ->
              if (own.prev_r + 1) mod tau = r_value then pk_base + samples
              else -1
          in
          let imposed = if king < 0 then cap else bin_of responses.(king).a in
          Some ((imposed + 1) mod cap)
        end
        else increment own.a
      in
      { inner = inner'; a; d = true; prev_r = r_value }
  in
  { Pull_spec.pulls; transition }

let construct_gen ~king_mode ~links_seed ~(inner : 's Algo.Spec.t) ~k ~big_f
    ~big_c ~samples =
  if samples < 1 then invalid_arg "Sampled.construct: samples < 1";
  let ic = Algo.Spec.codec_exn ~who:"Sampled.construct" inner in
  let p =
    Counting.Boost.plan_exn ~k ~big_f ~big_c ~n_inner:inner.Algo.Spec.n
      ~f_inner:inner.Algo.Spec.f ~inner_c:inner.Algo.Spec.c
  in
  let n_inner = p.Counting.Boost.n_inner in
  let big_n = p.Counting.Boost.big_n in
  let tau = p.Counting.Boost.tau in
  let kings = big_f + 2 in
  (* Fixed links for the oblivious variant: one draw per node, reused
     every round (Corollary 5). *)
  let fixed_links =
    match king_mode with
    | Predicted -> [||]
    | All_kings ->
      let link_rng = Stdx.Rng.create links_seed in
      Array.init big_n (fun _ ->
          let block_samples =
            Array.init (k * samples) (fun idx ->
                let block = idx / samples in
                (block * n_inner) + Stdx.Rng.int link_rng n_inner)
          in
          let pk_samples =
            Array.init samples (fun _ -> Stdx.Rng.int link_rng big_n)
          in
          Array.concat
            [ block_samples; pk_samples; Array.init kings (fun l -> l) ])
  in
  let pulls_per_round =
    (n_inner - 1) + ((k + 1) * samples)
    + (match king_mode with Predicted -> 1 | All_kings -> kings)
  in
  let random_state rng =
    (* Draw order pinned by let-bindings: a-register, round counter,
       d-flag, inner state (the order record fields were once evaluated
       in, right to left). *)
    let raw = Stdx.Rng.int rng (big_c + 1) in
    let prev_r = Stdx.Rng.int rng tau in
    let d = Stdx.Rng.bool rng in
    let inner_state = inner.Algo.Spec.random_state rng in
    { inner = inner_state; a = (if raw = big_c then None else Some raw); d; prev_r }
  in
  let pp_state ppf (s : 's state) =
    let pp_a ppf = function
      | None -> Format.pp_print_string ppf "inf"
      | Some x -> Format.pp_print_int ppf x
    in
    Format.fprintf ppf "{inner=%a; a=%a; d=%d; r=%d}" inner.Algo.Spec.pp_state
      s.inner pp_a s.a
      (if s.d then 1 else 0)
      s.prev_r
  in
  let equal_state (s1 : 's state) (s2 : 's state) =
    inner.Algo.Spec.equal_state s1.inner s2.inner
    && s1.a = s2.a && s1.d = s2.d && s1.prev_r = s2.prev_r
  in
  let variant =
    match king_mode with Predicted -> "sampled" | All_kings -> "oblivious"
  in
  let spec =
    Pull_spec.validate_exn
      {
        Pull_spec.name =
          Printf.sprintf "%s-boost[k=%d,F=%d,C=%d,M=%d](%s)" variant k big_f
            big_c samples inner.Algo.Spec.name;
        n = big_n;
        f = big_f;
        c = big_c;
        state_bits =
          inner.Algo.Spec.state_bits
          + Stdx.Imath.bits_for (big_c + 1)
          + 1
          + Stdx.Imath.bits_for tau;
        deterministic = false;
        equal_state;
        pp_state;
        random_state;
        pull_budget = pulls_per_round;
        fresh_kernel = fresh_kernel ~king_mode ~fixed_links ~inner ic p ~samples;
        output =
          (fun ~self:_ (s : 's state) ->
            match s.a with Some x -> x mod big_c | None -> 0);
      }
  in
  { spec; params = { boost = p; samples; pulls_per_round }; inner }

let construct ~inner ~k ~big_f ~big_c ~samples =
  construct_gen ~king_mode:Predicted ~links_seed:0 ~inner ~k ~big_f ~big_c
    ~samples

let construct_oblivious ~inner ~k ~big_f ~big_c ~samples ~links_seed =
  construct_gen ~king_mode:All_kings ~links_seed ~inner ~k ~big_f ~big_c
    ~samples
