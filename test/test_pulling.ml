(* Tests for the pulling model: simulator accounting, the sampled
   boosting construction (Theorem 4) and the oblivious pseudo-random
   variant (Corollary 5). *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* A minimal hand-rolled pulling algorithm for simulator tests: each node
   pulls node 0 and adopts value+1 (pull-based follow-leader). *)
let pull_leader ~n ~c : int Pulling.Pull_spec.t =
  Pulling.Pull_spec.validate_exn
    {
      Pulling.Pull_spec.name = "pull-leader";
      n;
      f = 0;
      c;
      state_bits = Stdx.Imath.bits_for c;
      deterministic = true;
      equal_state = Int.equal;
      pp_state = Format.pp_print_int;
      random_state = (fun rng -> Stdx.Rng.int rng c);
      pull_budget = 1;
      fresh_kernel =
        (fun () ->
          {
            Pulling.Pull_spec.pulls =
              (fun ~self:_ ~rng:_ _ targets ->
                targets.(0) <- 0;
                1);
            transition =
              (fun ~self:_ ~rng:_ ~own:_ ~targets:_ ~responses ->
                (responses.(0) + 1) mod c);
          });
      output = (fun ~self:_ s -> s);
    }

(* One round's pull targets of [self], through a fresh kernel. *)
let targets_of (spec : 's Pulling.Pull_spec.t) ~self ~rng state =
  let kernel = spec.Pulling.Pull_spec.fresh_kernel () in
  let buf = Array.make spec.Pulling.Pull_spec.pull_budget 0 in
  let p = kernel.Pulling.Pull_spec.pulls ~self ~rng state buf in
  Array.sub buf 0 p

let inner41 =
  (* A(4,1) counting mod 960, the Figure 2 base block; built with a
     concrete state type so tests can name it *)
  (Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
     ~big_f:1 ~big_c:960)
    .Counting.Boost.spec

(* ------------------------------------------------------------------ *)
(* Pull_sim                                                             *)
(* ------------------------------------------------------------------ *)

let test_pull_sim_counts_messages () =
  let spec = pull_leader ~n:5 ~c:4 in
  let run =
    Pulling.Pull_sim.run ~spec ~responder:(Pulling.Pull_sim.truthful_responder ())
      ~faulty:[] ~rounds:10 ~seed:1 ()
  in
  check Alcotest.int "one pull per node per round" 1 run.Pulling.Pull_sim.max_pulls;
  check Alcotest.int "total pulls" 50 run.Pulling.Pull_sim.total_pulls;
  check (Alcotest.float 1e-9) "bits per node per round"
    (float_of_int spec.Pulling.Pull_spec.state_bits)
    run.Pulling.Pull_sim.bits_pulled_per_round

let test_pull_sim_stabilises_leader () =
  let spec = pull_leader ~n:5 ~c:4 in
  let run =
    Pulling.Pull_sim.run ~spec ~responder:(Pulling.Pull_sim.truthful_responder ())
      ~faulty:[] ~rounds:30 ~seed:2 ()
  in
  match
    Sim.Stabilise.of_outputs ~c:4 ~correct:(Pulling.Pull_sim.correct_ids run)
      ~min_suffix:8 run.Pulling.Pull_sim.outputs
  with
  | Sim.Stabilise.Stabilized t -> check Alcotest.bool "T <= 1" true (t <= 1)
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "pull-leader did not stabilise"

let test_pull_sim_reproducible () =
  let spec = pull_leader ~n:4 ~c:3 in
  let go () =
    (Pulling.Pull_sim.run ~spec
       ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[] ~rounds:10
       ~seed:9 ())
      .Pulling.Pull_sim.outputs
  in
  check (Alcotest.array (Alcotest.array Alcotest.int)) "same seed same run"
    (go ()) (go ())

let test_pull_sim_validation () =
  let spec = pull_leader ~n:4 ~c:3 in
  check Alcotest.bool "faulty beyond f rejected" true
    (try
       ignore
         (Pulling.Pull_sim.run ~spec
            ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[ 0 ]
            ~rounds:1 ~seed:1 ());
       false
     with Invalid_argument _ -> true)

(* Negative horizons are rejected by name on both entry points, before
   anything is sized from them. *)
let test_pull_sim_negative_rounds () =
  let spec = pull_leader ~n:4 ~c:3 in
  let responder = Pulling.Pull_sim.truthful_responder () in
  let expect = Invalid_argument "Pull_sim.run: negative rounds" in
  List.iter
    (fun rounds ->
      Alcotest.check_raises (Printf.sprintf "run ~rounds:%d" rounds) expect
        (fun () ->
          ignore
            (Pulling.Pull_sim.run ~spec ~responder ~faulty:[] ~rounds ~seed:1
               ()));
      Alcotest.check_raises
        (Printf.sprintf "run_stream ~rounds:%d" rounds)
        expect
        (fun () ->
          ignore
            (Pulling.Pull_sim.run_stream ~min_suffix:4 ~spec ~responder
               ~faulty:[] ~rounds ~seed:1 ())))
    [ -1; -2 ];
  let r =
    Pulling.Pull_sim.run ~spec ~responder ~faulty:[] ~rounds:0 ~seed:1 ()
  in
  check Alcotest.int "rounds 0 keeps the initial row" 1
    (Array.length r.Pulling.Pull_sim.outputs)

(* The streaming path replays the exact same execution (identical RNG
   stream) as the full-trace path, so without early exit its verdict must
   equal the offline checker on run's trace; with early exit it may only
   stop sooner, never change the verdict on these suites. *)
let test_pull_sim_stream_matches_offline () =
  let spec = pull_leader ~n:5 ~c:4 in
  List.iter
    (fun responder ->
      List.iter
        (fun seed ->
          let name =
            Printf.sprintf "%s/seed=%d" responder.Pulling.Pull_sim.resp_name
              seed
          in
          let run =
            Pulling.Pull_sim.run ~spec ~responder ~faulty:[] ~rounds:40 ~seed ()
          in
          let offline =
            Sim.Stabilise.of_outputs ~c:4
              ~correct:(Pulling.Pull_sim.correct_ids run)
              ~min_suffix:8 run.Pulling.Pull_sim.outputs
          in
          let full =
            Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:8 ~spec
              ~responder ~faulty:[] ~rounds:40 ~seed ()
          in
          let stream =
            Pulling.Pull_sim.run_stream ~min_suffix:8 ~spec ~responder
              ~faulty:[] ~rounds:40 ~seed ()
          in
          check Alcotest.bool (name ^ ": no-early-exit == offline") true
            (Sim.Stabilise.equal_verdict offline full.Pulling.Pull_sim.verdict);
          check Alcotest.bool (name ^ ": streaming == offline") true
            (Sim.Stabilise.equal_verdict offline
               stream.Pulling.Pull_sim.verdict);
          check Alcotest.bool (name ^ ": streaming within horizon") true
            (stream.Pulling.Pull_sim.rounds_simulated <= 40))
        [ 1; 2; 3 ])
    (Pulling.Pull_sim.standard_responders ())

let test_responders_answer () =
  let spec = pull_leader ~n:4 ~c:3 in
  List.iter
    (fun responder ->
      let v =
        responder.Pulling.Pull_sim.fresh () ~spec ~rng:(Stdx.Rng.create 1)
          ~round:0 ~states:[| 0; 1; 2; 0 |] ~target:1 ~puller:2
      in
      check Alcotest.bool
        (responder.Pulling.Pull_sim.resp_name ^ " returns a valid state")
        true
        (v >= 0 && v < 3))
    (Pulling.Pull_sim.standard_responders ())

let test_mirror_responder () =
  let spec = pull_leader ~n:4 ~c:3 in
  let r = Pulling.Pull_sim.mirror_responder () in
  let v =
    r.Pulling.Pull_sim.fresh () ~spec ~rng:(Stdx.Rng.create 1) ~round:0
      ~states:[| 0; 1; 2; 0 |] ~target:1 ~puller:2
  in
  check Alcotest.int "echoes the puller" 2 v

(* ------------------------------------------------------------------ *)
(* Sampled boosting                                                     *)
(* ------------------------------------------------------------------ *)

let sampled ~samples =
  Pulling.Sampled.construct ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples

(* Responder memory belongs to a run: one responder value used for two
   runs must give what two fresh responders give. The stuck responder
   freezes the first answer of each target, so a frozen table that
   outlived its run would replay the first run's states in the second. *)
let test_responder_reused_across_runs () =
  let spec = (sampled ~samples:16).Pulling.Sampled.spec in
  let go responder seed =
    let r =
      Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:64 ~spec
        ~responder ~faulty:[ 0; 5; 9 ] ~rounds:300 ~seed ()
    in
    (r.Pulling.Pull_sim.stream_total_pulls, r.Pulling.Pull_sim.final_states)
  in
  List.iter
    (fun (make : unit -> _ Pulling.Pull_sim.responder) ->
      let shared = make () in
      let name = shared.Pulling.Pull_sim.resp_name in
      List.iter
        (fun seed ->
          let reused_pulls, reused = go shared seed in
          let fresh_pulls, fresh = go (make ()) seed in
          check Alcotest.int
            (Printf.sprintf "%s seed %d: total pulls" name seed)
            fresh_pulls reused_pulls;
          check Alcotest.bool
            (Printf.sprintf "%s seed %d: final states" name seed)
            true
            (Array.for_all2 spec.Pulling.Pull_spec.equal_state fresh reused))
        [ 1; 2 ])
    Pulling.Pull_sim.
      [ stuck_responder; random_responder; truthful_responder; mirror_responder ]

let test_sampled_shape () =
  let s = sampled ~samples:4 in
  check Alcotest.int "N = 12" 12 s.Pulling.Sampled.spec.Pulling.Pull_spec.n;
  check Alcotest.int "F = 3" 3 s.Pulling.Sampled.spec.Pulling.Pull_spec.f;
  (* pulls: 3 peers + (k+1) * M + 1 king = 3 + 16 + 1 *)
  check Alcotest.int "pull budget" 20
    s.Pulling.Sampled.params.Pulling.Sampled.pulls_per_round

let test_sampled_pull_bound_holds () =
  let s = sampled ~samples:5 in
  let run =
    Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
      ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 0; 5; 9 ]
      ~rounds:50 ~seed:1 ()
  in
  check Alcotest.bool "observed pulls within declared budget" true
    (run.Pulling.Pull_sim.max_pulls
    <= s.Pulling.Sampled.params.Pulling.Sampled.pulls_per_round)

let test_sampled_pull_targets_valid () =
  (* Layout: 3 block peers, then M samples from each of the k = 3
     blocks, then M network-wide samples, then the predicted king. *)
  let samples = 6 in
  let s = sampled ~samples in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 3 in
  for self = 0 to 11 do
    let state = spec.Pulling.Pull_spec.random_state rng in
    let targets = targets_of spec ~self ~rng state in
    let block = self / 4 in
    check (Alcotest.list Alcotest.int)
      (Printf.sprintf "node %d: peers are its block minus itself" self)
      (List.filter (fun u -> u <> self) (List.init 4 (fun j -> (4 * block) + j)))
      (Array.to_list (Array.sub targets 0 3));
    for b = 0 to 2 do
      for i = 0 to samples - 1 do
        let u = targets.(3 + (b * samples) + i) in
        if u / 4 <> b then
          Alcotest.failf "node %d: sample %d of block %d is node %d" self i b u
      done
    done;
    Array.iter
      (fun u ->
        if u < 0 || u >= 12 then Alcotest.failf "target %d out of range" u)
      targets
  done

let test_sampled_converges_fault_free () =
  (* With no faulty nodes every sample is truthful, so once the block
     counters align the sampled construction behaves deterministically
     and must stabilise like the broadcast one. *)
  let s = sampled ~samples:6 in
  let run =
    Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
      ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[]
      ~rounds:3500 ~seed:4 ()
  in
  match
    Sim.Stabilise.of_outputs ~c:8 ~correct:(Pulling.Pull_sim.correct_ids run)
      ~min_suffix:64 run.Pulling.Pull_sim.outputs
  with
  | Sim.Stabilise.Stabilized _ -> ()
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "did not stabilise"

let test_sampled_clean_fraction_grows () =
  (* Theorem 4's price: a residual per-round failure probability that
     shrinks as M grows. Measured as the fraction of clean counting
     steps late in the run. *)
  let clean_fraction samples =
    let s = sampled ~samples in
    let run =
      Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
        ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 0; 5; 9 ]
        ~rounds:3000 ~seed:6 ()
    in
    let correct = Pulling.Pull_sim.correct_ids run in
    let ok = ref 0 in
    for t = 1500 to 2999 do
      if
        Sim.Stabilise.count_ok_step ~c:8 ~correct run.Pulling.Pull_sim.outputs
          ~round:t
      then incr ok
    done;
    float_of_int !ok /. 1500.0
  in
  let small = clean_fraction 4 and large = clean_fraction 48 in
  check Alcotest.bool
    (Printf.sprintf "violation rate drops with M (%.3f -> %.3f)" small large)
    true
    (large > small +. 0.2)

(* ------------------------------------------------------------------ *)
(* Oblivious variant                                                    *)
(* ------------------------------------------------------------------ *)

let test_oblivious_pulls_static () =
  let s =
    Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
      ~samples:4 ~links_seed:42
  in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 1 in
  let st = spec.Pulling.Pull_spec.random_state rng in
  let t1 = targets_of spec ~self:3 ~rng st in
  let t2 = targets_of spec ~self:3 ~rng st in
  check (Alcotest.array Alcotest.int) "same links every round" t1 t2

let test_oblivious_includes_all_kings () =
  let s =
    Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
      ~samples:4 ~links_seed:7
  in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 1 in
  let st = spec.Pulling.Pull_spec.random_state rng in
  let targets = Array.to_list (targets_of spec ~self:8 ~rng st) in
  List.iter
    (fun king ->
      check Alcotest.bool (Printf.sprintf "king %d pulled" king) true
        (List.mem king targets))
    [ 0; 1; 2; 3; 4 ]

let test_oblivious_stabilises_with_gentle_faults () =
  (* Corollary 5: with the faulty node outside the leader blocks and a
     reasonable M, most link seeds stabilise and stay stable. *)
  let ok = ref 0 in
  for seed = 1 to 6 do
    let s =
      Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
        ~samples:16 ~links_seed:(300 + seed)
    in
    let run =
      Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
        ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 11 ]
        ~rounds:3500 ~seed ()
    in
    if
      Sim.Stabilise.of_outputs ~c:8 ~correct:(Pulling.Pull_sim.correct_ids run)
        ~min_suffix:64 run.Pulling.Pull_sim.outputs
      <> Sim.Stabilise.Not_stabilized
    then incr ok
  done;
  check Alcotest.bool (Printf.sprintf "stabilised %d/6 seeds" !ok) true (!ok >= 5)

(* ------------------------------------------------------------------ *)
(* Differential oracle: production kernel vs the boxed reference        *)
(* ------------------------------------------------------------------ *)

(* Runs the production simulator and the reference (Pull_ref) on the
   same inputs, each with its own fresh responder, and demands identical
   per-round state traces and pull counters. *)
let assert_matches_reference ~ctx ?init ~(s : 's Pulling.Sampled.t) ~ops
    ~responder_index ~faulty ~rounds ~seed () =
  let spec = s.Pulling.Sampled.spec in
  let responder () =
    List.nth (Pulling.Pull_sim.standard_responders ()) responder_index
  in
  let run =
    Pulling.Pull_sim.run ?init ~spec ~responder:(responder ()) ~faulty ~rounds
      ~seed ()
  in
  let states, max_pulls, total_pulls =
    Pull_ref.trace ?init ~spec ~ops ~responder:(responder ()) ~faulty ~rounds
      ~seed ()
  in
  Array.iteri
    (fun t row ->
      Array.iteri
        (fun v expected ->
          let got = run.Pulling.Pull_sim.states.(t).(v) in
          if not (spec.Pulling.Pull_spec.equal_state expected got) then
            Alcotest.failf "%s: round %d node %d: reference %a, kernel %a" ctx
              t v spec.Pulling.Pull_spec.pp_state expected
              spec.Pulling.Pull_spec.pp_state got)
        row)
    states;
  check Alcotest.int (ctx ^ ": max_pulls") max_pulls run.Pulling.Pull_sim.max_pulls;
  check Alcotest.int (ctx ^ ": total_pulls") total_pulls
    run.Pulling.Pull_sim.total_pulls

let oracle_variants =
  [
    ( "sampled",
      (fun samples -> sampled ~samples),
      fun samples ->
        Pull_ref.sampled_ops ~king_mode:Pull_ref.Predicted ~links_seed:0
          ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples );
    ( "oblivious",
      (fun samples ->
        Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3
          ~big_c:8 ~samples ~links_seed:42),
      fun samples ->
        Pull_ref.sampled_ops ~king_mode:Pull_ref.All_kings ~links_seed:42
          ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples );
  ]

let test_oracle_grid () =
  List.iter
    (fun (label, build, ops_of) ->
      List.iter
        (fun samples ->
          let s = build samples and ops = ops_of samples in
          List.iteri
            (fun responder_index responder ->
              List.iter
                (fun faulty ->
                  for seed = 1 to 5 do
                    let ctx =
                      Printf.sprintf "%s M=%d %s faulty=[%s] seed=%d" label
                        samples responder.Pulling.Pull_sim.resp_name
                        (String.concat ";" (List.map string_of_int faulty))
                        seed
                    in
                    assert_matches_reference ~ctx ~s ~ops ~responder_index
                      ~faulty ~rounds:40 ~seed ()
                  done)
                [ []; [ 11 ]; [ 0; 5; 9 ] ])
            (Pulling.Pull_sim.standard_responders ()))
        [ 4; 16 ])
    oracle_variants

(* From a stabilised configuration the king predictions come true, so
   this run exercises the predicted-king pull and its response. *)
let test_oracle_init () =
  let s = sampled ~samples:16 in
  let settled =
    Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:64
      ~spec:s.Pulling.Sampled.spec
      ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[]
      ~rounds:3000 ~seed:4 ()
  in
  check Alcotest.bool "the warm-up run stabilised" true
    (settled.Pulling.Pull_sim.verdict <> Sim.Online.Not_stabilized);
  let ops =
    Pull_ref.sampled_ops ~king_mode:Pull_ref.Predicted ~links_seed:0
      ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples:16
  in
  assert_matches_reference ~ctx:"init" ~init:settled.Pulling.Pull_sim.final_states
    ~s ~ops ~responder_index:1 ~faulty:[ 0; 5; 9 ] ~rounds:150 ~seed:7 ()

(* k = 7 over a single-node counter: the view modulus tau (2m)^k is
   about 2.5e7, too large to tabulate, so views are computed directly. *)
let test_oracle_untabulated_views () =
  let big_c = 4 in
  let inner = Counting.Trivial.single ~c:(12 * Stdx.Imath.pow 8 7) in
  let s =
    Pulling.Sampled.construct ~inner ~k:7 ~big_f:2 ~big_c ~samples:4
  in
  let ops =
    Pull_ref.sampled_ops ~king_mode:Pull_ref.Predicted ~links_seed:0 ~inner
      ~k:7 ~big_f:2 ~big_c ~samples:4
  in
  List.iter
    (fun faulty ->
      for seed = 1 to 2 do
        assert_matches_reference
          ~ctx:(Printf.sprintf "k=7 faulty=%d seed=%d" (List.length faulty) seed)
          ~s ~ops ~responder_index:1 ~faulty ~rounds:60 ~seed ()
      done)
    [ []; [ 3 ] ]

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 4)
  | None -> 4

(* Kernel scratch is per run, so runs over one shared spec on several
   domains must reproduce the sequential runs exactly. *)
let test_jobs_determinism_shared_spec () =
  let s = sampled ~samples:16 in
  let spec = s.Pulling.Sampled.spec in
  let go seed =
    Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:64 ~spec
      ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 0; 5; 9 ]
      ~rounds:300 ~seed ()
  in
  let seeds = List.init 8 (fun i -> i + 1) in
  let sequential = List.map go seeds in
  let parallel = Stdx.Pool.map ~jobs:parallel_jobs go seeds in
  List.iter2
    (fun (a : _ Pulling.Pull_sim.stream) (b : _ Pulling.Pull_sim.stream) ->
      check Alcotest.bool "same verdict" true
        (Sim.Online.equal_verdict a.Pulling.Pull_sim.verdict
           b.Pulling.Pull_sim.verdict);
      check Alcotest.int "same total pulls" a.Pulling.Pull_sim.stream_total_pulls
        b.Pulling.Pull_sim.stream_total_pulls;
      check Alcotest.int "same max pulls" a.Pulling.Pull_sim.stream_max_pulls
        b.Pulling.Pull_sim.stream_max_pulls;
      check Alcotest.bool "same final states" true
        (Array.for_all2 spec.Pulling.Pull_spec.equal_state
           a.Pulling.Pull_sim.final_states b.Pulling.Pull_sim.final_states))
    sequential parallel

let suite =
  [
    ( "pulling.sim",
      [
        case "message accounting" test_pull_sim_counts_messages;
        case "pull-leader stabilises" test_pull_sim_stabilises_leader;
        case "reproducible" test_pull_sim_reproducible;
        case "validation" test_pull_sim_validation;
        case "negative rounds rejected" test_pull_sim_negative_rounds;
        case "stream matches offline checker" test_pull_sim_stream_matches_offline;
        case "responders answer" test_responders_answer;
        case "mirror responder" test_mirror_responder;
        case "responder reused across runs" test_responder_reused_across_runs;
      ] );
    ( "pulling.sampled",
      [
        case "shape and pull budget" test_sampled_shape;
        case "pull bound holds" test_sampled_pull_bound_holds;
        case "pull targets valid" test_sampled_pull_targets_valid;
        case "jobs-determinism on a shared spec"
          test_jobs_determinism_shared_spec;
        slow_case "converges when fault-free" test_sampled_converges_fault_free;
        slow_case "clean fraction grows with M" test_sampled_clean_fraction_grows;
      ] );
    ( "pulling.oblivious",
      [
        case "links are static" test_oblivious_pulls_static;
        case "all kings pulled" test_oblivious_includes_all_kings;
        slow_case "Corollary 5 stabilisation" test_oblivious_stabilises_with_gentle_faults;
      ] );
    ( "pulling.oracle",
      [
        case "kernel == reference over the grid" test_oracle_grid;
        case "kernel == reference from a stabilised init" test_oracle_init;
        case "kernel == reference with untabulated views"
          test_oracle_untabulated_views;
      ] );
  ]
