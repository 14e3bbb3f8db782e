(* Reference semantics of the pulling model: the boxed simulator loop
   and the boxed Sampled construction in their original, unoptimised
   form — fresh arrays every round, (target, state) response tuples,
   Counter_view decodes per sample, the inner spec's boxed transition
   and list-based phase-king counts. The differential tests in
   test_pulling.ml hold the production Pull_sim / Sampled kernel to
   these, state for state and draw for draw.

   Only the plumbing differs from the original: the per-node operations
   come from an [ops] record instead of the spec, since the production
   spec now exposes them through a per-run kernel. *)

type 's ops = {
  random_state : Stdx.Rng.t -> 's;
  pulls : self:int -> rng:Stdx.Rng.t -> 's -> int array;
  transition :
    self:int -> rng:Stdx.Rng.t -> own:'s -> responses:(int * 's) array -> 's;
  output : self:int -> 's -> int;
}

type king_mode = Predicted | All_kings

let step_sampled ~cap ~m ~index ~(self : Counting.Phase_king.reg) ~sampled_a ~king_a =
  let clamp = function
    | Some x when x >= 0 && x < cap -> Some x
    | Some _ | None -> None
  in
  let sampled_a = List.map clamp sampled_a in
  let king_a = clamp king_a in
  let count v = List.length (List.filter (fun x -> x = v) sampled_a) in
  let two_thirds z = 3 * z >= 2 * m in
  let one_third z = 3 * z > m in
  let increment = Counting.Phase_king.increment ~cap in
  match index mod 3 with
  | 0 ->
    let a =
      if two_thirds (count self.Counting.Phase_king.a) then self.Counting.Phase_king.a else None
    in
    { Counting.Phase_king.a = increment a; d = self.Counting.Phase_king.d }
  | 1 ->
    let d = two_thirds (count self.Counting.Phase_king.a) in
    let rec find j =
      if j >= cap then None
      else if one_third (count (Some j)) then Some j
      else find (j + 1)
    in
    { Counting.Phase_king.a = increment (find 0); d }
  | _ ->
    let a =
      if self.Counting.Phase_king.a = None || not self.Counting.Phase_king.d then
        let imposed = match king_a with None -> cap | Some x -> min cap x in
        Some ((imposed + 1) mod cap)
      else increment self.Counting.Phase_king.a
    in
    { Counting.Phase_king.a; d = true }

let sampled_ops ~king_mode ~links_seed ~(inner : 's Algo.Spec.t) ~k ~big_f
    ~big_c ~samples : 's Pulling.Sampled.state ops =
  let open Pulling.Sampled in
  let p =
    Counting.Boost.plan_exn ~k ~big_f ~big_c ~n_inner:inner.Algo.Spec.n
      ~f_inner:inner.Algo.Spec.f ~inner_c:inner.Algo.Spec.c
  in
  let view_params =
    Array.init k (fun level ->
        Counting.Counter_view.make_params ~tau:p.Counting.Boost.tau
          ~m:p.Counting.Boost.m ~level ())
  in
  let n_inner = p.Counting.Boost.n_inner in
  let big_n = p.Counting.Boost.big_n in
  let tau = p.Counting.Boost.tau in
  let kings = big_f + 2 in
  let block_peers self =
    let block = self / n_inner in
    Array.of_list
      (List.filter
         (fun u -> u <> self)
         (List.init n_inner (fun j -> (block * n_inner) + j)))
  in
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
  let pulls ~self ~rng (own : 's state) =
    let peers = block_peers self in
    match king_mode with
    | All_kings -> Array.append peers fixed_links.(self)
    | Predicted ->
      let block_samples =
        Array.init (k * samples) (fun idx ->
            let block = idx / samples in
            (block * n_inner) + Stdx.Rng.int rng n_inner)
      in
      let pk_samples =
        Array.init samples (fun _ -> Stdx.Rng.int rng big_n)
      in
      let predicted = (own.prev_r + 1) mod tau in
      let king =
        if predicted mod 3 = 2 then [| predicted / 3 |] else [||]
      in
      Array.concat [ peers; block_samples; pk_samples; king ]
  in
  let transition ~self ~rng ~(own : 's state) ~responses =
    let peer_count = n_inner - 1 in
    let slot = self mod n_inner in
    let block_messages = Array.make n_inner own.inner in
    for i = 0 to peer_count - 1 do
      let target, (st : 's state) = responses.(i) in
      block_messages.(target mod n_inner) <- st.inner
    done;
    block_messages.(slot) <- own.inner;
    let inner' = inner.Algo.Spec.transition ~self:slot ~rng block_messages in
    let sample_view idx =
      let target, (st : 's state) = responses.(peer_count + idx) in
      let block = target / n_inner in
      let value = inner.Algo.Spec.output ~self:(target mod n_inner) st.inner in
      (block, Counting.Counter_view.of_value view_params.(block) value)
    in
    let block_votes =
      Array.init k (fun block ->
          let ballots =
            Array.init samples (fun s ->
                let _, view = sample_view ((block * samples) + s) in
                view.Counting.Counter_view.b)
          in
          Algo.Vote.majority_int ~default:0 ballots)
    in
    let leader = Algo.Vote.majority_int ~default:0 block_votes in
    let r_ballots =
      Array.init samples (fun s ->
          let _, view = sample_view ((leader * samples) + s) in
          view.Counting.Counter_view.r)
    in
    let r_value = Algo.Vote.majority_int ~default:0 r_ballots in
    let pk_base = peer_count + (k * samples) in
    let sampled_a =
      List.init samples (fun s ->
          let _, (st : 's state) = responses.(pk_base + s) in
          st.a)
    in
    let king_a =
      match king_mode with
      | All_kings ->
        let ell = Counting.Phase_king.king_of_index r_value in
        let _, (st : 's state) = responses.(pk_base + samples + ell) in
        st.a
      | Predicted ->
        let predicted = (own.prev_r + 1) mod tau in
        if predicted = r_value && predicted mod 3 = 2 then begin
          let _, (st : 's state) = responses.(pk_base + samples) in
          st.a
        end
        else None
    in
    let reg =
      step_sampled ~cap:big_c ~m:samples ~index:r_value
        ~self:{ Counting.Phase_king.a = own.a; d = own.d }
        ~sampled_a ~king_a
    in
    { inner = inner'; a = reg.Counting.Phase_king.a; d = reg.Counting.Phase_king.d; prev_r = r_value }
  in
  (* Fields are evaluated right to left: raw, prev_r, d, inner. *)
  let random_state rng =
    let raw = Stdx.Rng.int rng (big_c + 1) in
    {
      inner = inner.Algo.Spec.random_state rng;
      a = (if raw = big_c then None else Some raw);
      d = Stdx.Rng.bool rng;
      prev_r = Stdx.Rng.int rng tau;
    }
  in
  let output ~self:_ (s : 's state) =
    match s.a with Some x -> x mod big_c | None -> 0
  in
  { random_state; pulls; transition; output }

(* The simulator loop; [observe] may keep the arrays it is given. *)
let simulate ?init ~(spec : 's Pulling.Pull_spec.t) ~(ops : 's ops)
    ~(responder : 's Pulling.Pull_sim.responder) ~faulty ~rounds ~seed
    ~observe () =
  let n = spec.Pulling.Pull_spec.n in
  let sorted = List.sort_uniq Int.compare faulty in
  let faulty = Array.of_list sorted in
  let is_faulty = Array.make n false in
  Array.iter (fun v -> is_faulty.(v) <- true) faulty;
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let initial =
    match init with
    | Some s -> Array.copy s
    | None -> Array.init n (fun _ -> ops.random_state init_rng)
  in
  let respond = responder.Pulling.Pull_sim.fresh () in
  let max_pulls = ref 0 in
  let total_pulls = ref 0 in
  let current = ref initial in
  let t = ref 0 in
  let stop = ref false in
  while not !stop do
    let cur = !current in
    let outs = Array.mapi (fun v s -> ops.output ~self:v s) cur in
    let keep_going = observe ~round:!t ~states:cur ~outputs:outs in
    if (not keep_going) || !t >= rounds then stop := true
    else begin
      let next =
        Array.init n (fun v ->
            if is_faulty.(v) then cur.(v)
            else begin
              let targets = ops.pulls ~self:v ~rng:node_rng.(v) cur.(v) in
              let pulls = Array.length targets in
              total_pulls := !total_pulls + pulls;
              if pulls > !max_pulls then max_pulls := pulls;
              let responses =
                Array.map
                  (fun u ->
                    let reply =
                      if is_faulty.(u) then
                        respond ~spec ~rng:adv_rng ~round:!t ~states:cur
                          ~target:u ~puller:v
                      else cur.(u)
                    in
                    (u, reply))
                  targets
              in
              ops.transition ~self:v ~rng:node_rng.(v) ~own:cur.(v) ~responses
            end)
      in
      current := next;
      incr t
    end
  done;
  (!t, !current, !max_pulls, !total_pulls)

(* Full state trace (rounds 0 .. rounds) with the pull counters. *)
let trace ?init ~spec ~ops ~responder ~faulty ~rounds ~seed () =
  let states = Array.make (rounds + 1) [||] in
  let observe ~round ~states:s ~outputs:_ =
    states.(round) <- s;
    true
  in
  let _, _, max_pulls, total_pulls =
    simulate ?init ~spec ~ops ~responder ~faulty ~rounds ~seed ~observe ()
  in
  (states, max_pulls, total_pulls)
