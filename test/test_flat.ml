(* Certification of the engine against the reference simulator.

   Every differential here runs an execution through Sim.Engine with a
   [trace] hook, which hands over the state vector decoded afresh each
   round, and through Engine_ref — a deliberately naive simulator of
   the paper's Section 2 model with its own boxed adversaries — and
   demands the two agree round for round: states, outputs, transient
   corruption victims, and (for static runs) the verdict the offline
   checker gives on the reference's outputs. Also pins that the hooks
   are inert, that crafting phases are counted against the kernel or the
   bridge, the end_round reporting convention and the surfacing of
   clamped transient events. A property test holds greedy-confusion's
   code-space lookahead to the reference's boxed one craft by craft. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let leader = Counting.Trivial.follow_leader ~n:4 ~c:5
let leader_f1 = Algo.Combinators.with_claimed_resilience leader ~f:1
let leader_f2 = Algo.Combinators.with_claimed_resilience leader ~f:2

let a41 () =
  (Counting.Boost.construct
     ~inner:(Counting.Trivial.single ~c:2304)
     ~k:4 ~big_f:1 ~big_c:2)
    .Counting.Boost.spec

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 4)
  | None -> 4

let modes = [ Sim.Engine.Streaming; Sim.Engine.Full_horizon ]

(* The zoo plus greedy-confusion, the one strategy crafted through the
   engine's bridge. *)
let zoo () =
  Sim.Adversary.greedy_confusion ~pool:8 () :: Sim.Adversary.standard_suite ()

(* The same strategy with its kernel hidden from the engine, which then
   crafts through the bridge: decode, the boxed [fresh] crafter (for a
   standard strategy, its kernel behind the codec adapter), re-encode.
   The "bridge" differentials hold that path to the reference too. *)
let bridged (a : 's Sim.Adversary.t) =
  { a with Sim.Adversary.fresh_flat = None }

(* A [trace] hook recording every decoded row, and the rows it saw. *)
let recorder () =
  let rows = ref [] in
  let trace ~round ~states ~outputs =
    rows := (round, states, outputs) :: !rows
  in
  (trace, fun () -> Array.of_list (List.rev !rows))

(* The engine's traced rows [0 .. rounds_simulated] and its final states
   equal the reference run's. *)
let assert_rows_match ~ctx (spec : 's Algo.Spec.t) ~rounds_simulated
    ~final_states rows (r : 's Engine_ref.run) =
  check Alcotest.int (ctx ^ ": one traced row per observed round")
    (rounds_simulated + 1) (Array.length rows);
  let same_states a b = Array.for_all2 spec.Algo.Spec.equal_state a b in
  Array.iteri
    (fun t (round, states, outputs) ->
      if
        round <> t
        || (not (same_states states r.Engine_ref.states.(t)))
        || outputs <> r.Engine_ref.outputs.(t)
      then Alcotest.failf "%s: round %d differs from the reference" ctx t)
    rows;
  check Alcotest.bool (ctx ^ ": final states") true
    (same_states final_states r.Engine_ref.states.(rounds_simulated))

(* ------------------------------------------------------------------ *)
(* Static differential: Engine.run vs the reference                     *)
(* ------------------------------------------------------------------ *)

let assert_static_differential ?(adapt = Fun.id) ~label ~rounds
    ?(fault_sets = [ []; [ 0 ] ]) ?(seeds = [ 1; 2 ]) (spec : 's Algo.Spec.t) =
  let c = spec.Algo.Spec.c in
  List.iter
    (fun adversary ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              let reference =
                Engine_ref.run ~spec ~adversary ~faulty ~rounds ~seed ()
              in
              List.iter
                (fun mode ->
                  let ctx =
                    Printf.sprintf "%s/%s/faulty=[%s]/seed=%d" label
                      (Sim.Adversary.name adversary)
                      (String.concat ";" (List.map string_of_int faulty))
                      seed
                  in
                  let trace, rows = recorder () in
                  let o =
                    Sim.Engine.run ~trace ~mode ~spec ~adversary ~faulty
                      ~rounds ~seed ()
                  in
                  let rs = o.Sim.Engine.rounds_simulated in
                  assert_rows_match ~ctx spec ~rounds_simulated:rs
                    ~final_states:o.Sim.Engine.final_states (rows ())
                    reference;
                  (* The verdict is the offline checker's on the
                     reference outputs the engine observed. *)
                  let correct =
                    List.filter
                      (fun v -> not (List.mem v faulty))
                      (List.init spec.Algo.Spec.n Fun.id)
                  in
                  let offline =
                    Sim.Stabilise.of_outputs ~c ~correct
                      ~min_suffix:(Sim.Min_suffix.clamp ~c ~rounds None)
                      (Array.sub reference.Engine_ref.outputs 0 (rs + 1))
                  in
                  check Alcotest.bool (ctx ^ ": verdict") true
                    (Sim.Online.equal_verdict offline o.Sim.Engine.verdict);
                  check Alcotest.bool (ctx ^ ": recent outputs") true
                    (o.Sim.Engine.recent_outputs
                    = List.map
                        (fun t -> (t, reference.Engine_ref.outputs.(t)))
                        (List.init (min 8 (rs + 1)) (fun i ->
                             rs - min 8 (rs + 1) + 1 + i))))
                modes)
            seeds)
        fault_sets)
    (List.map adapt (zoo ()))

let test_static_differential_leader () =
  assert_static_differential ~label:"follow-leader" ~rounds:120 leader_f1

let test_static_differential_rand () =
  assert_static_differential ~label:"rand-counter" ~rounds:400
    (Counting.Rand_counter.make ~n:4 ~f:1)

let test_static_differential_boost () =
  assert_static_differential ~label:"A(4,1)" ~rounds:150 ~seeds:[ 1 ]
    (a41 ())

(* The derived codec (generic kernel over [all_states]) is held to the
   reference like the hand-written kernels. *)
let test_static_differential_derived () =
  assert_static_differential ~label:"derived-codec" ~rounds:120 ~seeds:[ 1 ]
    (Algo.Spec.with_derived_codec leader_f1)

let test_bridge_static_differential_leader () =
  assert_static_differential ~adapt:bridged ~label:"follow-leader-bridge"
    ~rounds:120 leader_f1

let test_bridge_static_differential_leader_f2 () =
  assert_static_differential ~adapt:bridged ~label:"follow-leader-f2-bridge"
    ~rounds:120 ~fault_sets:[ [ 0 ]; [ 0; 2 ] ] ~seeds:[ 1 ] leader_f2

let test_bridge_static_differential_rand () =
  assert_static_differential ~adapt:bridged ~label:"rand-counter-bridge"
    ~rounds:400
    (Counting.Rand_counter.make ~n:4 ~f:1)

let test_bridge_static_differential_boost () =
  assert_static_differential ~adapt:bridged ~label:"A(4,1)-bridge" ~rounds:150
    ~seeds:[ 1 ] (a41 ())

(* ------------------------------------------------------------------ *)
(* Schedule differential: phases and transient events too               *)
(* ------------------------------------------------------------------ *)

let corruption_events tracer =
  List.filter_map
    (function
      | Sim.Trace.Corruption { round; victims; _ } -> Some (round, victims)
      | _ -> None)
    (Sim.Trace.events tracer)

let assert_schedule_differential ~ctx ?min_suffix (spec : 's Algo.Spec.t)
    ~schedule ~seed ~mode =
  let tracer = Sim.Trace.memory () in
  let trace, rows = recorder () in
  let o =
    Sim.Engine.run_schedule ~trace ~tracer ?min_suffix ~mode ~spec ~schedule
      ~seed ()
  in
  let reference = Engine_ref.run_schedule ~spec ~schedule ~seed () in
  let rs = o.Sim.Engine.rounds_simulated in
  assert_rows_match ~ctx spec ~rounds_simulated:rs
    ~final_states:o.Sim.Engine.final_states (rows ()) reference;
  check
    Alcotest.(list (pair int (list int)))
    (ctx ^ ": corruption victims")
    (List.filter (fun (t, _) -> t <= rs) reference.Engine_ref.corruptions)
    (corruption_events tracer);
  o

let random_schedules ~adversaries ~ctx =
  List.iter
    (fun seed ->
      let schedule =
        Sim.Schedule.random ~spec:leader_f2 ~adversaries ~phases:3
          ~phase_rounds:50 ~events:2 ~max_victims:2 ~seed ()
      in
      List.iter
        (fun mode ->
          ignore
            (assert_schedule_differential
               ~ctx:(Printf.sprintf "%s/seed=%d" ctx seed)
               leader_f2 ~schedule ~seed ~mode))
        modes)
    [ 1; 2; 3 ]

(* Random chaos schedules: phase changes, transient corruption, both
   engine modes. *)
let test_schedule_differential_random () =
  random_schedules ~adversaries:(Sim.Adversary.standard_suite ())
    ~ctx:"random-schedule"

(* Every phase on the bridge. *)
let test_bridge_schedule_differential_random () =
  random_schedules
    ~adversaries:(List.map bridged (Sim.Adversary.standard_suite ()))
    ~ctx:"random-schedule-bridge"

let phase adversary faulty duration =
  { Sim.Schedule.adversary; faulty; duration }

let test_schedule_differential_boost () =
  let schedule =
    {
      Sim.Schedule.phases =
        [
          phase (Sim.Adversary.benign ()) [] 60;
          phase (Sim.Adversary.split_brain ()) [ 2 ] 60;
          phase (Sim.Adversary.stuck ()) [ 0 ] 60;
        ];
      events = [ { Sim.Schedule.round = 30; victims = 2 } ];
    }
  in
  ignore
    (assert_schedule_differential ~ctx:"A(4,1) schedule" (a41 ()) ~schedule
       ~seed:5 ~mode:Sim.Engine.Full_horizon)

let test_bridge_schedule_differential_boost () =
  let schedule =
    {
      Sim.Schedule.phases =
        [
          phase (bridged (Sim.Adversary.split_brain ())) [ 2 ] 60;
          phase (bridged (Sim.Adversary.random_equivocate ())) [ 0 ] 60;
          phase (Sim.Adversary.greedy_confusion ~pool:8 ()) [ 1 ] 40;
        ];
      events = [ { Sim.Schedule.round = 30; victims = 2 } ];
    }
  in
  ignore
    (assert_schedule_differential ~ctx:"A(4,1) schedule-bridge" (a41 ())
       ~schedule ~seed:5 ~mode:Sim.Engine.Full_horizon)

(* Whole chaos campaigns through the parallel harness at the REPRO_JOBS
   worker count, under every claiming policy (or the one REPRO_SCHEDULE
   pins): each cell's outcome is the engine's on the cell's schedule,
   and that execution matches the reference. *)
let campaign_differential ~label adversaries =
  let config =
    Sim.Harness.Chaos.Config.(
      default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
      |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs parallel_jobs)
  in
  let c = leader_f2.Algo.Spec.c in
  List.iter
    (fun policy ->
      let config =
        match policy with
        | None -> config
        | Some s -> Sim.Harness.Chaos.Config.with_schedule s config
      in
      let agg = Sim.Harness.Chaos.run ~config ~spec:leader_f2 ~adversaries () in
      check Alcotest.int (label ^ ": cells") 4
        (List.length agg.Sim.Harness.Chaos.outcomes);
      List.iter
        (fun (co : Sim.Harness.Chaos.outcome) ->
          let ctx =
            Printf.sprintf "%s/%s/jobs=%d/campaign=%d/seed=%d" label
              (Test_sim.schedule_label policy)
              parallel_jobs co.Sim.Harness.Chaos.schedule_seed
              co.Sim.Harness.Chaos.run_seed
          in
          let schedule =
            Sim.Schedule.random ~spec:leader_f2 ~adversaries ~phases:2
              ~phase_rounds:60 ~events:1
              ~max_victims:config.Sim.Harness.Chaos.Config.max_victims
              ~event_margin:(Sim.Min_suffix.default ~c)
              ~seed:co.Sim.Harness.Chaos.schedule_seed ()
          in
          check Alcotest.string (ctx ^ ": schedule")
            co.Sim.Harness.Chaos.schedule
            (Sim.Schedule.describe schedule);
          let min_suffix =
            Sim.Min_suffix.resolve ~c
              ~rounds:(Sim.Schedule.total_rounds schedule)
              None
          in
          let o =
            assert_schedule_differential ~ctx ~min_suffix leader_f2 ~schedule
              ~seed:co.Sim.Harness.Chaos.run_seed
              ~mode:config.Sim.Harness.Chaos.Config.mode
          in
          check Alcotest.bool (ctx ^ ": phase reports") true
            (o.Sim.Engine.phases = co.Sim.Harness.Chaos.phases);
          check Alcotest.int (ctx ^ ": rounds simulated")
            co.Sim.Harness.Chaos.rounds_simulated o.Sim.Engine.rounds_simulated)
        agg.Sim.Harness.Chaos.outcomes)
    Test_sim.parallel_schedules

let test_chaos_campaign_differential () =
  campaign_differential ~label:"suite" (Sim.Adversary.standard_suite ())

let test_bridge_chaos_campaign_differential () =
  campaign_differential ~label:"bridge"
    (List.map bridged (Sim.Adversary.standard_suite ()))

(* ------------------------------------------------------------------ *)
(* Hooks, crafting paths, codec requirement                             *)
(* ------------------------------------------------------------------ *)

(* Attaching [probe] and [trace] decodes states for them and changes
   nothing else: outcome, phase reports and the structured event stream
   equal the bare run's. *)
let test_hooks_inert () =
  let spec = a41 () in
  let schedule =
    {
      Sim.Schedule.phases =
        [
          phase (Sim.Adversary.split_brain ()) [ 1 ] 50;
          phase (Sim.Adversary.greedy_confusion ~pool:4 ()) [ 0 ] 50;
          phase (Sim.Adversary.benign ()) [] 200;
        ];
      events = [ { Sim.Schedule.round = 70; victims = 2 } ];
    }
  in
  List.iter
    (fun mode ->
      let go ~hooked =
        let tracer = Sim.Trace.memory ~level:Sim.Trace.Rounds () in
        let probes = ref 0 in
        let probe ~round:_ ~states:_ = incr probes in
        let trace, rows = recorder () in
        let o =
          if hooked then
            Sim.Engine.run_schedule ~probe ~trace ~tracer ~mode ~spec ~schedule
              ~seed:3 ()
          else Sim.Engine.run_schedule ~tracer ~mode ~spec ~schedule ~seed:3 ()
        in
        if hooked then begin
          check Alcotest.int "probe sees every observed round"
            (o.Sim.Engine.rounds_simulated + 1) !probes;
          check Alcotest.int "trace sees every observed round"
            (o.Sim.Engine.rounds_simulated + 1) (Array.length (rows ()))
        end;
        (o, Sim.Trace.events tracer)
      in
      let bare, bare_events = go ~hooked:false in
      let hooked, hooked_events = go ~hooked:true in
      check Alcotest.bool "same phase reports" true
        (bare.Sim.Engine.phases = hooked.Sim.Engine.phases);
      check Alcotest.bool "same verdict" true
        (Sim.Online.equal_verdict bare.Sim.Engine.verdict
           hooked.Sim.Engine.verdict);
      check Alcotest.int "same rounds_simulated" bare.Sim.Engine.rounds_simulated
        hooked.Sim.Engine.rounds_simulated;
      check Alcotest.bool "same early_exit" bare.Sim.Engine.early_exit
        hooked.Sim.Engine.early_exit;
      check Alcotest.bool "same final states" true
        (Array.for_all2 spec.Algo.Spec.equal_state bare.Sim.Engine.final_states
           hooked.Sim.Engine.final_states);
      check Alcotest.bool "same recent outputs" true
        (bare.Sim.Engine.recent_outputs = hooked.Sim.Engine.recent_outputs);
      check Alcotest.int "same event count" (List.length bare_events)
        (List.length hooked_events);
      check Alcotest.bool "same events" true
        (List.for_all2 Sim.Trace.equal_event bare_events hooked_events))
    modes

let test_zoo_flat_coverage () =
  List.iter
    (fun a ->
      check Alcotest.bool
        (Sim.Adversary.name a ^ ": ships a flat kernel")
        true
        (a.Sim.Adversary.fresh_flat <> None))
    (Sim.Adversary.standard_suite ());
  (* Greedy-confusion keeps a boxed crafter (its lookahead runs in code
     space inside it): the zoo's only bridged member. *)
  check Alcotest.bool "greedy-confusion has no flat kernel" true
    ((Sim.Adversary.greedy_confusion ~pool:8 ()).Sim.Adversary.fresh_flat
    = None)

(* The engine's coverage counters: a crafting phase is counted against
   exactly one of the kernel and the bridge. *)
let test_craft_phase_counters () =
  let phases schedule =
    let metrics = Stdx.Metrics.create () in
    ignore
      (Sim.Engine.run_schedule ~metrics ~mode:Sim.Engine.Full_horizon
         ~spec:leader_f1 ~schedule ~seed:1 ());
    let counter name =
      match Stdx.Metrics.find (Stdx.Metrics.snapshot metrics) name with
      | Some (Stdx.Metrics.Counter c) -> c
      | _ -> 0
    in
    (counter "engine.flat_craft_phases", counter "engine.bridged_craft_phases")
  in
  let static adversary =
    { Sim.Schedule.phases = [ phase adversary [ 0 ] 40 ]; events = [] }
  in
  let pair = Alcotest.pair Alcotest.int Alcotest.int in
  check pair "flat kernel phase counted as flat" (1, 0)
    (phases (static (Sim.Adversary.split_brain ())));
  check pair "hidden kernel phase counted as bridged" (0, 1)
    (phases (static (bridged (Sim.Adversary.split_brain ()))));
  check pair "kernel-less adversary rides the bridge" (0, 1)
    (phases (static (Sim.Adversary.greedy_confusion ~pool:8 ())));
  check pair "one phase of each" (1, 1)
    (phases
       {
         Sim.Schedule.phases =
           [
             phase (Sim.Adversary.split_brain ()) [ 0 ] 20;
             phase (Sim.Adversary.greedy_confusion ~pool:8 ()) [ 1 ] 20;
           ];
         events = [];
       })

(* Simulation needs packed state codes: a spec without a codec is
   rejected at entry, by name. *)
let test_codec_required () =
  let spec = { leader_f1 with Algo.Spec.codec = None } in
  let message f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.fail "codec-less spec was simulated"
  in
  List.iter
    (fun (label, f) ->
      check Alcotest.bool
        (label ^ ": error names the spec")
        true
        (Astring.String.is_infix ~affix:spec.Algo.Spec.name (message f)))
    [
      ( "Engine.run",
        fun () ->
          ignore
            (Sim.Engine.run ~spec ~adversary:(Sim.Adversary.benign ())
               ~faulty:[] ~rounds:10 ~seed:1 ()) );
      ( "Network.run",
        fun () ->
          ignore
            (Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ())
               ~faulty:[] ~rounds:10 ~seed:1 ()) );
    ]

(* ------------------------------------------------------------------ *)
(* end_round convention (regression: final phase was reported one past   *)
(* the round it ended at)                                               *)
(* ------------------------------------------------------------------ *)

let end_rounds (o : _ Sim.Engine.schedule_outcome) =
  List.map (fun (r : Sim.Engine.phase_report) -> r.Sim.Engine.end_round)
    o.Sim.Engine.phases

let benign_phase duration =
  { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = []; duration }

let test_end_round_single_phase_full () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 120 ]; events = [] } in
  let o =
    Sim.Engine.run_schedule ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule ~seed:1 ()
  in
  check Alcotest.bool "no early exit" false o.Sim.Engine.early_exit;
  check Alcotest.int "simulated the horizon" 120 o.Sim.Engine.rounds_simulated;
  check (Alcotest.list Alcotest.int) "end_round = horizon" [ 120 ]
    (end_rounds o)

let test_end_round_single_phase_streaming () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 400 ]; events = [] } in
  let o = Sim.Engine.run_schedule ~spec:leader ~schedule ~seed:1 () in
  check Alcotest.bool "early exit" true o.Sim.Engine.early_exit;
  check Alcotest.bool "stopped before the horizon" true
    (o.Sim.Engine.rounds_simulated < 400);
  check (Alcotest.list Alcotest.int) "end_round = rounds_simulated"
    [ o.Sim.Engine.rounds_simulated ]
    (end_rounds o)

let test_end_round_multi_phase_full () =
  let schedule =
    {
      Sim.Schedule.phases = [ benign_phase 30; benign_phase 40; benign_phase 50 ];
      events = [];
    }
  in
  let o =
    Sim.Engine.run_schedule ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule ~seed:2 ()
  in
  check Alcotest.bool "no early exit" false o.Sim.Engine.early_exit;
  check (Alcotest.list Alcotest.int) "end_round = start_round + duration"
    [ 30; 70; 120 ] (end_rounds o);
  List.iter
    (fun (r : Sim.Engine.phase_report) ->
      check Alcotest.bool "phases tile the horizon" true
        (r.Sim.Engine.start_round < r.Sim.Engine.end_round))
    o.Sim.Engine.phases

let test_end_round_multi_phase_streaming () =
  let schedule =
    { Sim.Schedule.phases = [ benign_phase 100; benign_phase 300 ]; events = [] }
  in
  let tracer = Sim.Trace.memory () in
  let o = Sim.Engine.run_schedule ~tracer ~spec:leader ~schedule ~seed:1 () in
  check Alcotest.bool "early exit in the final phase" true
    (o.Sim.Engine.early_exit
    && o.Sim.Engine.rounds_simulated > 100
    && o.Sim.Engine.rounds_simulated < 400);
  check (Alcotest.list Alcotest.int)
    "boundary phase ends at its boundary, final phase at rounds_simulated"
    [ 100; o.Sim.Engine.rounds_simulated ]
    (end_rounds o);
  (* the Verdict trace events carry the same convention *)
  let verdict_rounds =
    List.filter_map
      (function
        | Sim.Trace.Verdict { round; _ } -> Some round
        | _ -> None)
      (Sim.Trace.events tracer)
  in
  check (Alcotest.list Alcotest.int) "Verdict events at the end_rounds"
    (end_rounds o) verdict_rounds

(* ------------------------------------------------------------------ *)
(* Clamped transient events are surfaced, not silent                    *)
(* ------------------------------------------------------------------ *)

let corruption_events tracer =
  List.filter_map
    (function
      | Sim.Trace.Corruption { requested; victims; _ } ->
        Some (requested, victims)
      | _ -> None)
    (Sim.Trace.events tracer)

let run_clamp ~faulty ~victims =
  let schedule =
    {
      Sim.Schedule.phases =
        [ { Sim.Schedule.adversary = Sim.Adversary.stuck (); faulty;
            duration = 60 } ];
      events = [ { Sim.Schedule.round = 20; victims } ];
    }
  in
  let tracer = Sim.Trace.memory () in
  let metrics = Stdx.Metrics.create () in
  let o =
    Sim.Engine.run_schedule ~tracer ~metrics ~mode:Sim.Engine.Full_horizon
      ~spec:leader_f2 ~schedule ~seed:7 ()
  in
  ignore (o : int Sim.Engine.schedule_outcome);
  let clamped =
    match Stdx.Metrics.find (Stdx.Metrics.snapshot metrics)
            "engine.clamped_events" with
    | Some (Stdx.Metrics.Counter k) -> k
    | _ -> Alcotest.fail "engine.clamped_events counter missing"
  in
  (corruption_events tracer, clamped)

let test_clamp_surfaced () =
  (* two faulty nodes leave two correct ones; asking for three victims
     must clamp to two — visibly *)
  match run_clamp ~faulty:[ 1; 3 ] ~victims:3 with
  | [ (requested, victims) ], clamped ->
    check Alcotest.int "requested recorded" 3 requested;
    check Alcotest.int "victims clamped to the correct nodes" 2
      (List.length victims);
    check Alcotest.bool "victims are correct nodes" true
      (List.for_all (fun v -> v = 0 || v = 2) victims);
    check Alcotest.int "clamp counted in metrics" 1 clamped
  | events, _ ->
    Alcotest.failf "expected one corruption event, got %d" (List.length events)

let test_clamp_not_counted_when_satisfiable () =
  match run_clamp ~faulty:[ 1 ] ~victims:2 with
  | [ (requested, victims) ], clamped ->
    check Alcotest.int "requested recorded" 2 requested;
    check Alcotest.int "all requested victims hit" 2 (List.length victims);
    check Alcotest.int "no clamp counted" 0 clamped
  | events, _ ->
    Alcotest.failf "expected one corruption event, got %d" (List.length events)

let test_corruption_json_roundtrip () =
  let e =
    Sim.Trace.Corruption { round = 12; phase = 1; requested = 3; victims = [ 0; 2 ] }
  in
  (match Sim.Trace.of_json (Sim.Trace.to_json e) with
  | Ok e' -> check Alcotest.bool "round-trips" true (Sim.Trace.equal_event e e')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg);
  (* pre-existing JSONL without the requested field still parses,
     defaulting requested to the victim count *)
  match
    Sim.Trace.of_json
      {|{"ev":"corruption","round":12,"phase":1,"victims":[0,2]}|}
  with
  | Ok e' ->
    check Alcotest.bool "legacy line parses with requested = |victims|" true
      (Sim.Trace.equal_event
         (Sim.Trace.Corruption
            { round = 12; phase = 1; requested = 2; victims = [ 0; 2 ] })
         e')
  | Error msg -> Alcotest.failf "legacy of_json failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Greedy lookahead: the code-space crafter vs the reference's boxed one *)
(* ------------------------------------------------------------------ *)

(* Over a few consecutive crafts (one crafter each, as in a phase), with
   random states and a random faulty set per craft — n = f included —
   the library crafter and the reference's boxed lookahead send the same
   messages, compared through the codec, and leave the adversary stream
   at the same draw. *)
let greedy_agrees (spec : 's Algo.Spec.t) (seed, pool) =
  let n = spec.Algo.Spec.n in
  let encode = (Algo.Spec.codec_exn ~who:"test" spec).Algo.Spec.encode_state in
  let gen = Stdx.Rng.create seed in
  let lib = (Sim.Adversary.greedy_confusion ~pool ()).Sim.Adversary.fresh () in
  let reference = Engine_ref.greedy_confusion pool () in
  let lib_rng = Stdx.Rng.create (seed + 1) in
  let ref_rng = Stdx.Rng.create (seed + 1) in
  let codes m = Array.map (Array.map encode) m in
  List.for_all
    (fun round ->
      let states = Array.init n (fun _ -> spec.Algo.Spec.random_state gen) in
      let faulty =
        Array.of_list
          (List.sort Int.compare
             (Stdx.Rng.sample_without_replacement gen
                (Stdx.Rng.int gen (n + 1))
                n))
      in
      let got =
        lib.Sim.Adversary.craft ~spec ~rng:lib_rng ~round ~states ~faulty
      in
      let want = reference ~spec ~rng:ref_rng ~round ~states ~faulty in
      codes got = codes want
      && Stdx.Rng.next_int64 (Stdx.Rng.copy lib_rng)
         = Stdx.Rng.next_int64 (Stdx.Rng.copy ref_rng))
    [ 0; 1; 2; 3 ]

let greedy_property label spec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:("greedy lookahead = reference: " ^ label)
       QCheck.(pair small_nat (int_range 0 8))
       (greedy_agrees spec))

let suite =
  [
    ( "sim.flat",
      [
        case "static differential: follow-leader"
          test_static_differential_leader;
        case "static differential: rand-counter" test_static_differential_rand;
        case "static differential: boost tower A(4,1)"
          test_static_differential_boost;
        case "static differential: derived codec"
          test_static_differential_derived;
        case "schedule differential: random chaos schedules"
          test_schedule_differential_random;
        case "schedule differential: boost tower with event"
          test_schedule_differential_boost;
        case "chaos campaign differential at REPRO_JOBS"
          test_chaos_campaign_differential;
        case "zoo flat-kernel coverage" test_zoo_flat_coverage;
        case "bridge differential: follow-leader"
          test_bridge_static_differential_leader;
        case "bridge differential: follow-leader f=2"
          test_bridge_static_differential_leader_f2;
        case "bridge differential: rand-counter"
          test_bridge_static_differential_rand;
        case "bridge differential: boost tower A(4,1)"
          test_bridge_static_differential_boost;
        case "bridge differential: random chaos schedules"
          test_bridge_schedule_differential_random;
        case "bridge differential: boost tower with event"
          test_bridge_schedule_differential_boost;
        case "bridge chaos campaign differential at REPRO_JOBS"
          test_bridge_chaos_campaign_differential;
        case "craft phase counters split flat vs bridged"
          test_craft_phase_counters;
        case "decoded hooks are inert" test_hooks_inert;
        case "spec without a codec is rejected" test_codec_required;
      ] );
    ( "sim.engine.end_round",
      [
        case "single phase, full horizon" test_end_round_single_phase_full;
        case "single phase, streaming early exit"
          test_end_round_single_phase_streaming;
        case "multi phase, full horizon" test_end_round_multi_phase_full;
        case "multi phase, streaming early exit"
          test_end_round_multi_phase_streaming;
      ] );
    ( "sim.engine.clamp",
      [
        case "clamped event surfaces requested vs actual" test_clamp_surfaced;
        case "satisfiable event is not counted as clamped"
          test_clamp_not_counted_when_satisfiable;
        case "corruption JSON round-trip and legacy lines"
          test_corruption_json_roundtrip;
      ] );
    ( "sim.greedy",
      [
        greedy_property "follow-leader" leader_f1;
        greedy_property "rand-counter" (Counting.Rand_counter.make ~n:4 ~f:1);
        greedy_property "boost tower A(4,1)" (a41 ());
        greedy_property "derived codec"
          (Algo.Spec.with_derived_codec leader_f1);
      ] );
  ]
