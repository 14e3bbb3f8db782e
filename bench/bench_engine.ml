(* Experiment E1: engine throughput and allocation profile.

   Runs the same (spec, adversary, faulty, rounds, seed) execution on
   the engine (packed state codes, flat adversary kernels) and on the
   naive reference simulator of the test suite (Engine_ref: boxed
   states, full message matrix), verifies the engine's outcome is the
   reference's — final states, recent output rows, and the offline
   verdict on the reference outputs — and reports node-rounds/sec plus
   GC words allocated per node-round for each.

   Headlines: benign throughput on A(12,3), and hostile throughput on
   A(12,3) under the split-brain equivocator — the flat adversary-kernel
   hot loop. The greedy-confusion rows show what the bridge costs: that
   strategy has no flat kernel, so every crafted round decodes the
   states, crafts boxed messages and re-encodes them.

   Results land in BENCH_engine.json. *)

let json_path = "BENCH_engine.json"

type gc_profile = { minor_w_nr : float; major_w_nr : float }

type path = {
  wall_s : float;
  node_rounds_per_s : float;
  gc : gc_profile;
}

type row = {
  label : string;
  n : int;
  adversary : string;
  faulty : int list;
  rounds : int;
  identical : bool;  (** engine outcome = reference outcome *)
  flat : path;
  reference : path;
  flat_craft_phases : int;
  bridged_craft_phases : int;
}

let metrics = Stdx.Metrics.create ()

(* Wall clock and GC allocation deltas around one run. [Gc.minor_words]
   reads the allocation pointer, so the minor count is exact even when
   no collection happens during the run ([quick_stat] would quantise it
   to minor-GC granularity); allocation counts are deterministic, so a
   single pass suffices and the wall is tightened with extra reps by the
   caller. *)
let timed_gc f =
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  let m0 = Gc.minor_words () in
  let t0 = Stdx.Metrics.wall_clock () in
  let r = f () in
  let wall = Stdx.Metrics.wall_clock () -. t0 in
  let m1 = Gc.minor_words () in
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  (r, wall, m1 -. m0, j1 -. j0)

let path_of ~node_rounds ~wall ~minor ~major =
  {
    wall_s = wall;
    node_rounds_per_s = node_rounds /. Float.max 1e-9 wall;
    gc =
      { minor_w_nr = minor /. node_rounds; major_w_nr = major /. node_rounds };
  }

let measure (type s) ~label ~(spec : s Algo.Spec.t) ~adversary ~faulty ~rounds
    ~seed () =
  let run ?metrics () =
    Sim.Engine.run ?metrics ~mode:Sim.Engine.Full_horizon ~spec ~adversary
      ~faulty ~rounds ~seed ()
  in
  (* Warm-up pass so allocation of the engine buffers and any lazy setup
     is off the clock. *)
  ignore
    (Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec ~adversary ~faulty
       ~rounds:(min rounds 50) ~seed ());
  let node_rounds = float_of_int (spec.Algo.Spec.n * rounds) in
  (* Wall = best of 3 passes (the first also yields outcome + GC), so one
     slow scheduler hiccup does not pollute the record. *)
  let coverage = Stdx.Metrics.create () in
  let o, wall0, minor, major = timed_gc (run ~metrics:coverage) in
  let wall = ref wall0 in
  for _ = 2 to 3 do
    let _, w, _, _ = timed_gc (run ?metrics:None) in
    if w < !wall then wall := w
  done;
  Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets metrics
    "bench.engine_wall_s" !wall;
  let flat = path_of ~node_rounds ~wall:!wall ~minor ~major in
  let r, rwall, rminor, rmajor =
    timed_gc (Engine_ref.run ~spec ~adversary ~faulty ~rounds ~seed)
  in
  let reference =
    path_of ~node_rounds ~wall:rwall ~minor:rminor ~major:rmajor
  in
  let c = spec.Algo.Spec.c in
  let correct =
    List.filter
      (fun v -> not (List.mem v faulty))
      (List.init spec.Algo.Spec.n Fun.id)
  in
  let offline =
    Sim.Stabilise.of_outputs ~c ~correct
      ~min_suffix:(Sim.Min_suffix.clamp ~c ~rounds None)
      r.Engine_ref.outputs
  in
  let identical =
    o.Sim.Engine.rounds_simulated = rounds
    && Sim.Online.equal_verdict offline o.Sim.Engine.verdict
    && Array.for_all2 spec.Algo.Spec.equal_state o.Sim.Engine.final_states
         r.Engine_ref.states.(rounds)
    && List.for_all
         (fun (t, row) -> row = r.Engine_ref.outputs.(t))
         o.Sim.Engine.recent_outputs
  in
  let counter name =
    match Stdx.Metrics.find (Stdx.Metrics.snapshot coverage) name with
    | Some (Stdx.Metrics.Counter c) -> c
    | _ -> 0
  in
  {
    label;
    n = spec.Algo.Spec.n;
    adversary = Sim.Adversary.name adversary;
    faulty;
    rounds;
    identical;
    flat;
    reference;
    flat_craft_phases = counter "engine.flat_craft_phases";
    bridged_craft_phases = counter "engine.bridged_craft_phases";
  }

let speedup r = r.reference.wall_s /. Float.max 1e-9 r.flat.wall_s

let json_of_row r =
  let path_fields tag p =
    Printf.sprintf
      "\"%s_wall_s\": %.6f, \"%s_node_rounds_per_s\": %.1f,\n\
      \     \"%s_minor_words_per_node_round\": %.2f, \
       \"%s_major_words_per_node_round\": %.4f"
      tag p.wall_s tag p.node_rounds_per_s tag p.gc.minor_w_nr tag
      p.gc.major_w_nr
  in
  Printf.sprintf
    "    {\"label\": %S, \"n\": %d, \"adversary\": %S, \"faulty\": [%s],\n\
    \     \"rounds\": %d, \"identical_outcomes\": %b,\n\
    \     \"flat_craft_phases\": %d, \"bridged_craft_phases\": %d,\n\
    \     %s,\n\
    \     %s,\n\
    \     \"speedup\": %.2f}"
    r.label r.n r.adversary
    (String.concat "," (List.map string_of_int r.faulty))
    r.rounds r.identical r.flat_craft_phases r.bridged_craft_phases
    (path_fields "flat" r.flat)
    (path_fields "reference" r.reference)
    (speedup r)

let run () =
  Bench_common.section
    "Engine vs the naive reference simulator - full horizon";
  let a41 = (Bench_common.a41 ~c:2).Counting.Boost.spec in
  let a12_3 = (Bench_common.a12_3 ~c:1728).Counting.Boost.spec in
  let greedy () = Sim.Adversary.greedy_confusion ~pool:8 () in
  let rows =
    [
      measure ~label:"A(4,1) benign" ~spec:a41
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:4000 ~seed:1
        ();
      measure ~label:"A(4,1) split-brain" ~spec:a41
        ~adversary:(Sim.Adversary.split_brain ()) ~faulty:[ 0 ] ~rounds:4000
        ~seed:1 ();
      measure ~label:"A(4,1) greedy-confusion" ~spec:a41 ~adversary:(greedy ())
        ~faulty:[ 0 ] ~rounds:1000 ~seed:1 ();
      measure ~label:"A(12,3) benign" ~spec:a12_3
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:1200 ~seed:1
        ();
      (* The hostile headline row: long enough that the steady-state
         hostile loop, not run setup, is what gets measured. *)
      measure ~label:"A(12,3) split-brain" ~spec:a12_3
        ~adversary:(Sim.Adversary.split_brain ()) ~faulty:[ 0; 4; 8 ]
        ~rounds:4000 ~seed:1 ();
      measure ~label:"A(12,3) greedy-confusion" ~spec:a12_3
        ~adversary:(greedy ()) ~faulty:[ 0; 4; 8 ] ~rounds:100 ~seed:1 ();
    ]
  in
  let t =
    Stdx.Table.create
      [
        "instance"; "adversary"; "rounds"; "flat nr/s"; "reference nr/s";
        "speedup"; "flat minW/nr"; "bridged"; "identical";
      ]
  in
  List.iter
    (fun r ->
      Stdx.Table.add_row t
        [
          r.label;
          r.adversary;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" r.flat.node_rounds_per_s;
          Printf.sprintf "%.0f" r.reference.node_rounds_per_s;
          Printf.sprintf "%.1fx" (speedup r);
          Printf.sprintf "%.2f" r.flat.gc.minor_w_nr;
          (if r.bridged_craft_phases > 0 then "yes" else "-");
          (if r.identical then "yes" else "NO");
        ])
    rows;
  Stdx.Table.print t;
  let find label = List.find (fun r -> r.label = label) rows in
  let headline = find "A(12,3) benign" in
  let hostile = find "A(12,3) split-brain" in
  let bridged = find "A(12,3) greedy-confusion" in
  Printf.printf
    "\nheadline: %.0f node-rounds/sec on A(12,3) (reference: %.0f, %.1fx)\n"
    headline.flat.node_rounds_per_s headline.reference.node_rounds_per_s
    (speedup headline);
  Printf.printf
    "hostile:  %.0f node-rounds/sec on A(12,3)/split-brain (%.2f minor \
     words/nr)\n\
     bridged:  %.0f node-rounds/sec on A(12,3)/greedy-confusion (%.2f minor \
     words/nr)\n"
    hostile.flat.node_rounds_per_s hostile.flat.gc.minor_w_nr
    bridged.flat.node_rounds_per_s bridged.flat.gc.minor_w_nr;
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"engine-vs-reference\",\n\
    \  \"headline\": {\"instance\": %S, \"node_rounds_per_s\": %.1f,\n\
    \               \"reference_node_rounds_per_s\": %.1f, \"speedup\": %.2f},\n\
    \  \"hostile_headline\": {\"instance\": %S, \"adversary\": %S,\n\
    \               \"node_rounds_per_s\": %.1f,\n\
    \               \"minor_words_per_node_round\": %.2f},\n\
    \  \"bridged_headline\": {\"instance\": %S, \"adversary\": %S,\n\
    \               \"node_rounds_per_s\": %.1f,\n\
    \               \"minor_words_per_node_round\": %.2f},\n\
    \  \"all_identical_outcomes\": %b,\n\
    \  \"measurements\": [\n%s\n  ],\n\
    \  \"metrics\": %s\n\
     }\n"
    headline.label headline.flat.node_rounds_per_s
    headline.reference.node_rounds_per_s (speedup headline) hostile.label
    hostile.adversary hostile.flat.node_rounds_per_s hostile.flat.gc.minor_w_nr
    bridged.label bridged.adversary bridged.flat.node_rounds_per_s
    bridged.flat.gc.minor_w_nr all_identical
    (String.concat ",\n" (List.map json_of_row rows))
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "[engine throughput record written to %s]\n" json_path;
  if not all_identical then begin
    print_endline "ERROR: engine and reference outcomes differ!";
    exit 1
  end
