(* Kernel tables are per spec: the first [fresh_kernel ()] of a codec (or
   of a pulling spec) builds the immutable view tables, and every later
   kernel shares them, on any domain. Scratch stays per kernel. These
   tests check that kernels sharing tables step as if alone, and that
   racing first uses on several domains give the same executions as a
   sequential run on a spec of its own. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

(* Constructors, not values: every call is a just-constructed spec
   whose tables do not exist yet. *)
let a41 ~big_c () =
  (Counting.Boost.construct
     ~inner:(Counting.Trivial.single ~c:2304)
     ~k:4 ~big_f:1 ~big_c)
    .Counting.Boost.spec

let a12_3 () =
  (Counting.Boost.construct ~inner:(a41 ~big_c:960 ()) ~k:3 ~big_f:3 ~big_c:8)
    .Counting.Boost.spec

let sampled () =
  Pulling.Sampled.construct ~inner:(a41 ~big_c:960 ()) ~k:3 ~big_f:3 ~big_c:8
    ~samples:6

let codec (spec : 's Algo.Spec.t) = Algo.Spec.codec_exn ~who:"test" spec

(* A stream of (self, received codes) steps that keeps the kernel
   caches busy: each vector repeats the last, patches one or two slots,
   or is drawn afresh. Vectors are copies, so a kernel cannot see
   another stream's writes. *)
let code_stream (spec : 's Algo.Spec.t) ~seed ~len =
  let c = codec spec and n = spec.Algo.Spec.n in
  let rng = Stdx.Rng.create seed in
  let cur = Array.init n (fun _ -> c.Algo.Spec.random_code rng) in
  List.init len (fun _ ->
      (match Stdx.Rng.int rng 4 with
      | 0 -> ()
      | 1 | 2 ->
        for _ = 0 to Stdx.Rng.int rng 2 do
          cur.(Stdx.Rng.int rng n) <- c.Algo.Spec.random_code rng
        done
      | _ ->
        for v = 0 to n - 1 do
          cur.(v) <- c.Algo.Spec.random_code rng
        done);
      (Stdx.Rng.int rng n, Array.copy cur))

let step_all (k : Algo.Spec.kernel) ~seed steps =
  let rng = Stdx.Rng.create seed in
  List.map (fun (self, recv) -> k.Algo.Spec.step ~self ~rng recv) steps

(* Two kernels of one codec, stepped alternately on different streams,
   against kernels of separately constructed specs stepped alone. The
   kernels' scratch is a cache keyed by the received vector, so even
   scratch shared by mistake gives the same codes when used from one
   domain; the first-use races below are what catch that. *)
let check_interleaved label make =
  let spec = make () in
  let c = codec spec in
  let sa = code_stream spec ~seed:1 ~len:300
  and sb = code_stream spec ~seed:2 ~len:300 in
  let ka = c.Algo.Spec.fresh_kernel () and kb = c.Algo.Spec.fresh_kernel () in
  let ra = Stdx.Rng.create 11 and rb = Stdx.Rng.create 12 in
  let got =
    List.map2
      (fun (sa, va) (sb, vb) ->
        let a = ka.Algo.Spec.step ~self:sa ~rng:ra va in
        let b = kb.Algo.Spec.step ~self:sb ~rng:rb vb in
        (a, b))
      sa sb
  in
  let alone seed steps =
    step_all ((codec (make ())).Algo.Spec.fresh_kernel ()) ~seed steps
  in
  check
    Alcotest.(list int)
    (label ^ ": first kernel as if alone")
    (alone 11 sa) (List.map fst got);
  check
    Alcotest.(list int)
    (label ^ ": second kernel as if alone")
    (alone 12 sb) (List.map snd got)

let test_interleaved_a41 () = check_interleaved "A(4,1)" (a41 ~big_c:2)
let test_interleaved_a12_3 () = check_interleaved "A(12,3)" a12_3

(* The pulling kernel: one round at one node is [pulls] then
   [transition] on the states the targets hold. *)
let pull_step (spec : 's Pulling.Pull_spec.t) (k : 's Pulling.Pull_spec.kernel)
    ~rng (self, states) =
  let budget = spec.Pulling.Pull_spec.pull_budget in
  let targets = Array.make budget 0 in
  let p = k.Pulling.Pull_spec.pulls ~self ~rng states.(self) targets in
  let responses = Array.init budget (fun i -> states.(targets.(min i (p - 1)))) in
  let next =
    k.Pulling.Pull_spec.transition ~self ~rng ~own:states.(self) ~targets
      ~responses
  in
  (Array.sub targets 0 p, next)

let test_interleaved_sampled () =
  let s = sampled () in
  let spec = s.Pulling.Sampled.spec in
  let n = spec.Pulling.Pull_spec.n in
  let stream seed =
    let rng = Stdx.Rng.create seed in
    List.init 200 (fun _ ->
        let states =
          Array.init n (fun _ -> spec.Pulling.Pull_spec.random_state rng)
        in
        (Stdx.Rng.int rng n, states))
  in
  let sa = stream 1 and sb = stream 2 in
  let ka = spec.Pulling.Pull_spec.fresh_kernel ()
  and kb = spec.Pulling.Pull_spec.fresh_kernel () in
  let ra = Stdx.Rng.create 11 and rb = Stdx.Rng.create 12 in
  let got =
    List.map2
      (fun a b -> (pull_step spec ka ~rng:ra a, pull_step spec kb ~rng:rb b))
      sa sb
  in
  let alone seed steps =
    let spec' = (sampled ()).Pulling.Sampled.spec in
    let k = spec'.Pulling.Pull_spec.fresh_kernel () in
    let rng = Stdx.Rng.create seed in
    List.map (pull_step spec' k ~rng) steps
  in
  let same label want got =
    List.iteri
      (fun i ((wt, ws), (gt, gs)) ->
        check Alcotest.(array int) (Printf.sprintf "%s step %d targets" label i)
          wt gt;
        if not (spec.Pulling.Pull_spec.equal_state ws gs) then
          Alcotest.failf "%s step %d: next state differs" label i)
      (List.combine want got)
  in
  same "first kernel" (alone 11 sa) (List.map fst got);
  same "second kernel" (alone 12 sb) (List.map snd got)

(* ------------------------------------------------------------------ *)
(* First use raced across domains                                       *)
(* ------------------------------------------------------------------ *)

(* A just-constructed tower through the parallel harness: the workers'
   first kernels race to build the outer and the inner tables. Each
   attempt uses new specs, so every one races afresh. *)
let test_first_use_harness () =
  let config =
    Sim.Harness.Config.(
      default
      |> with_fault_sets [ []; [ 0; 5; 9 ] ]
      |> with_seeds [ 1; 2 ] |> with_rounds 200
      |> with_mode Sim.Engine.Full_horizon)
  in
  let adversaries () =
    [ Sim.Adversary.split_brain (); Sim.Adversary.random_equivocate () ]
  in
  let seq =
    Sim.Harness.run
      ~config:Sim.Harness.Config.(config |> with_jobs 1)
      ~spec:(a12_3 ()) ~adversaries:(adversaries ()) ()
  in
  List.iter
    (fun schedule ->
      for attempt = 1 to 3 do
        let config = Sim.Harness.Config.with_jobs Test_sim.parallel_jobs config in
        let config =
          match schedule with
          | None -> config
          | Some s -> Sim.Harness.Config.with_schedule s config
        in
        check Alcotest.bool
          (Printf.sprintf "jobs=%d policy=%s attempt %d: sequential outcomes"
             Test_sim.parallel_jobs
             (Test_sim.schedule_label schedule)
             attempt)
          true
          (Sim.Harness.run ~config ~spec:(a12_3 ())
             ~adversaries:(adversaries ()) ()
          = seq)
      done)
    Test_sim.parallel_schedules

(* A just-constructed Sampled spec shared by pool workers, each running
   whole Pull_sim executions. *)
let test_first_use_sampled () =
  let go spec seed =
    let r =
      Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:64 ~spec
        ~responder:(Pulling.Pull_sim.stuck_responder ()) ~faulty:[ 0; 5; 9 ]
        ~rounds:120 ~seed ()
    in
    (r.Pulling.Pull_sim.stream_total_pulls, r.Pulling.Pull_sim.final_states)
  in
  let seeds = List.init 8 (fun i -> i + 1) in
  let seq =
    let spec = (sampled ()).Pulling.Sampled.spec in
    List.map (go spec) seeds
  in
  List.iter
    (fun schedule ->
      for attempt = 1 to 3 do
        let spec = (sampled ()).Pulling.Sampled.spec in
        let got =
          Stdx.Pool.map ~jobs:Test_sim.parallel_jobs ?schedule (go spec) seeds
        in
        if got <> seq then
          Alcotest.failf "policy=%s attempt %d: parallel runs differ"
            (Test_sim.schedule_label schedule)
            attempt
      done)
    Test_sim.parallel_schedules

let suite =
  [
    ( "kernel.tables",
      [
        case "interleaved kernels: A(4,1)" test_interleaved_a41;
        case "interleaved kernels: A(12,3)" test_interleaved_a12_3;
        case "interleaved kernels: Sampled over A(4,1)"
          test_interleaved_sampled;
      ] );
    ( "kernel.first_use",
      [
        case "raced first use: tower through the harness"
          test_first_use_harness;
        case "raced first use: Sampled on pool workers" test_first_use_sampled;
      ] );
  ]
