(* The four campaign workloads. Each is a closed loop: one caller issues
   the whole grid through the library entry points countctl wraps and
   waits for it, at jobs = 1 unless a probe asks otherwise. Everything a
   workload runs is derived from its seed. *)

open Sim

(* Telemetry switches for one pass. [bare] is the untraced workload;
   the traced run turns on the program's own hooks and wraps the
   top-level calls in benchmark spans. With [pace], each top-level call
   is timed as a unit scaled by the reference loop (see Pace). *)
type tel = {
  metrics : Stdx.Metrics.t option;
  trace : Trace.t option;
  spans : bool;
  jobs : int;
  heartbeat : Stdx.Heartbeat.t option;
  tracer : Tracer.t option;
  pace : (float * float) list ref option;
}

let bare =
  {
    metrics = None;
    trace = None;
    spans = false;
    jobs = 1;
    heartbeat = None;
    tracer = None;
    pace = None;
  }

let call tel name f =
  match (tel.tracer, tel.pace) with
  | Some t, _ -> Tracer.with_ t name f
  | None, Some acc -> Pace.unit acc f
  | None, None -> f ()

(* What one pass did. [node_rounds] is [None] when only the engine's
   metrics can count the rounds (the hunt); the caller then takes it
   from a metered pass of the same inputs. *)
type pass = {
  digest : string;  (** hex digest of every outcome of the pass *)
  cells : int;
  failed : int;  (** cells that failed a semantic check *)
  node_rounds : int option;
  execs : int;  (** engine executions *)
}

(* A prepared workload. [pass tel] makes the workload's library calls
   and returns the check of their outcomes, which the caller runs after
   it stops the clock. [layer] computes the workload's per-layer metrics
   after the traced passes: what the most recent traced pass left
   behind, and the probes of the layers the workload exercises, within
   a time budget. *)
type t = {
  n : int;
  pass : tel -> unit -> pass;
  layer : Tracer.t -> budget_s:float -> (string * float) list;
}

let names = [ "sweep-a12"; "chaos-a41"; "hunt-leader"; "pull-a12" ]
(* Scratch files of a run; the caller creates the directory first. *)
let out_dir = ".perfbench"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))
let ints l = String.concat ";" (List.map string_of_int l)

let verdict_str = function
  | Online.Stabilized s -> string_of_int s
  | Online.Not_stabilized -> "-"

let opt_str = function Some v -> string_of_int v | None -> "-"

let median l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let sum l = List.fold_left ( +. ) 0.0 l

(* Seconds of the metered [span.*_s] / [pool.*] histograms. *)
let hist_sum snap name =
  match Stdx.Metrics.find snap name with
  | Some (Stdx.Metrics.Histogram h) -> h.Stdx.Metrics.sum
  | _ -> 0.0

let counter snap name =
  match Stdx.Metrics.find snap name with
  | Some (Stdx.Metrics.Counter c) -> c
  | _ -> 0

let percentile p l =
  match List.sort Float.compare l with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let i = int_of_float (Float.round (p *. float_of_int (Array.length a - 1))) in
    a.(i)

let cell_walls events =
  List.filter_map
    (function Trace.Cell_end { wall_s; _ } -> Some wall_s | _ -> None)
    events

(* Metrics every metered workload reports from its last traced pass:
   engine counters, the engine's own span totals, harness cell walls
   and pool side-channel seconds. *)
let metered ~snap ~events =
  let walls = cell_walls events in
  [
    ("engine.rounds", float_of_int (counter snap "engine.rounds"));
    ( "engine.flat_craft_phases",
      float_of_int (counter snap "engine.flat_craft_phases") );
    ( "engine.bridged_craft_phases",
      float_of_int (counter snap "engine.bridged_craft_phases") );
    ("span.engine.craft_s", hist_sum snap "span.engine.craft_s");
    ("span.engine.step_s", hist_sum snap "span.engine.step_s");
    ("span.engine.detect_s", hist_sum snap "span.engine.detect_s");
    ("harness.cell_wall_s.p50", percentile 0.5 walls);
    ("harness.cell_wall_s.p90", percentile 0.9 walls);
    ("pool.claim_s", hist_sum snap "pool.worker_claim_s");
    ("pool.idle_s", hist_sum snap "pool.worker_idle_s");
  ]

(* Harness overhead per cell: the wall of the last traced pass's [calls]
   calls into the harness minus the summed engine wall of their cells,
   as the harness's own [Cell_end] events time them. *)
let cell_overhead_us ?(calls = 1) tr span events =
  let spans =
    List.filteri (fun i _ -> i < calls) (List.rev (Tracer.named tr span))
  in
  match (spans, cell_walls events) with
  | _ :: _, (_ :: _ as walls) ->
    (sum (List.map Tracer.duration spans) -. sum walls)
    /. float_of_int (List.length walls)
    *. 1e6
  | _ -> 0.0

(* Pool at two workers: speed-up over jobs 1 and max/mean worker busy
   time, read from the heartbeat's terminal line. [timed] runs and
   checks one pass and returns its wall time, [None] if it raised. *)
let jobs2_probe ~wall_j1 timed =
  let path = Filename.concat out_dir "jobs2-heartbeat.jsonl" in
  let oc = open_out path in
  let hb = Stdx.Heartbeat.create ~interval_s:1e9 ~out:oc () in
  let wall = timed { bare with jobs = 2; heartbeat = Some hb } in
  Stdx.Heartbeat.finish hb;
  close_out oc;
  let last =
    List.fold_left
      (fun _ l -> l)
      ""
      (String.split_on_char '\n'
         (String.trim (In_channel.with_open_bin path In_channel.input_all)))
  in
  let busy =
    match Stdx.Json.parse_result last with
    | Ok j -> (
      match Stdx.Json.field_opt j "workers" with
      | Some w ->
        List.map (Stdx.Json.to_float "busy_s")
          (Stdx.Json.to_list "busy_s" (Stdx.Json.field w "busy_s"))
      | None -> [])
    | Error _ -> []
  in
  let imbalance =
    match busy with
    | [] -> 0.0
    | _ ->
      let mean = sum busy /. float_of_int (List.length busy) in
      if mean > 0.0 then List.fold_left Float.max 0.0 busy /. mean else 0.0
  in
  match wall with
  | Some wall ->
    [ ("pool.speedup_j2", wall_j1 /. wall); ("pool.imbalance", imbalance) ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* sweep-a12: Harness.run on A(12,3) mod 2 over the standard suite and
   the default fault sets, full horizon. The kernel and flat crafting do
   almost all the work. The grid is issued one adversary at a time (one
   Harness.run per adversary, every fault set), so a pass is nine timed
   units of about 60 ms; each cell is keyed by its own (adversary, fault
   set, seed), so the outcomes are those of one call over the grid. *)

let a12_tower () =
  Counting.Plan.plan_tower_exn ~target_c:2
    [ { Counting.Plan.k = 4; big_f = 1 }; { k = 3; big_f = 3 } ]

let a41_tower () =
  Counting.Plan.plan_tower_exn ~target_c:2 (Counting.Plan.corollary1_levels ~f:1)

let sweep_rounds = 4000

let sweep ~seed =
  let tower = a12_tower () in
  let bound = (Counting.Plan.top tower).Counting.Plan.time_bound in
  let (Counting.Build.Packed_boost boost) = Counting.Build.tower_boost tower in
  let spec = boost.Counting.Boost.spec in
  let adversaries = Adversary.standard_suite () in
  let n = spec.Algo.Spec.n in
  let fault_sets = Harness.default_fault_sets ~n ~f:spec.Algo.Spec.f in
  let config =
    Harness.Config.(
      default |> with_fault_sets fault_sets |> with_seeds [ seed ]
      |> with_rounds sweep_rounds |> with_mode Engine.Full_horizon)
  in
  Option.iter
    (fun c -> ignore (Sys.opaque_identity (c.Algo.Spec.fresh_kernel ())))
    spec.Algo.Spec.codec;
  let cells = List.length adversaries * List.length fault_sets in
  let last = ref ([], []) in
  let pass tel =
    let config = Harness.Config.with_jobs tel.jobs config in
    let aggs =
      List.map
        (fun a ->
          call tel "harness.run" (fun () ->
              Harness.run ?metrics:tel.metrics ?trace:tel.trace
                ~spans:tel.spans ?heartbeat:tel.heartbeat ~config ~spec
                ~adversaries:[ a ] ()))
        adversaries
    in
    fun () ->
    (match (tel.metrics, tel.trace) with
    | Some m, Some tr -> last := (Stdx.Metrics.snapshot m, Trace.events tr)
    | _ -> ());
    let outcomes = List.concat_map (fun a -> a.Harness.outcomes) aggs in
    let b = Buffer.create 4096 in
    let failed = ref 0 in
    List.iter
      (fun (o : Harness.outcome) ->
        Printf.bprintf b "%s|%s|%d|%s|%d\n" o.Harness.adversary
          (ints o.Harness.faulty) o.Harness.seed
          (verdict_str o.Harness.verdict)
          o.Harness.rounds_simulated;
        match o.Harness.verdict with
        | Online.Stabilized s when s <= bound -> ()
        | _ -> incr failed)
      outcomes;
    let rounds =
      List.fold_left (fun acc a -> acc + a.Harness.total_rounds_simulated) 0 aggs
    in
    {
      digest = hex b;
      cells = List.length outcomes;
      failed = !failed;
      node_rounds = Some (n * rounds);
      execs = List.length outcomes;
    }
  in
  let layer tr ~budget_s =
    let snap, events = !last in
    metered ~snap ~events
    @ [
        ("harness.cells", float_of_int cells);
        ( "harness.cell_overhead_us",
          cell_overhead_us ~calls:(List.length adversaries) tr "harness.run"
            events );
      ]
    @ Probes.a12 tr boost ~adversaries
        ~faulty:(Harness.spread_fault_set ~n ~f:spec.Algo.Spec.f)
        ~seed ~budget_s
  in
  { n; pass; layer }

(* ------------------------------------------------------------------ *)
(* chaos-a41: Harness.Chaos.run on A(4,1) with the countctl adversary
   pool (greedy-confusion included, so the crafting bridge runs),
   streaming, with product telemetry on: metrics plus a Seams-level
   JSONL trace. Many short cells. *)

let chaos_campaigns = 60
let chaos_phases = 3
let chaos_phase_rounds = 700
let chaos_events = 2
let chaos_max_victims = 2

let chaos_adversaries () =
  Adversary.standard_suite () @ [ Adversary.greedy_confusion ~pool:2 () ]

let chaos ~seed =
  let tower = a41_tower () in
  let bound = (Counting.Plan.top tower).Counting.Plan.time_bound in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  let adversaries = chaos_adversaries () in
  let n = spec.Algo.Spec.n in
  let c = spec.Algo.Spec.c in
  let run_seeds = [ seed; seed + 1 ] in
  let config =
    Harness.Chaos.Config.(
      default
      |> with_campaigns chaos_campaigns
      |> with_phases chaos_phases
      |> with_phase_rounds chaos_phase_rounds
      |> with_events chaos_events
      |> with_max_victims chaos_max_victims
      |> with_seeds run_seeds)
  in
  (* The campaign schedules, generated exactly as the harness does (set-up
     work the harness repeats inside each pass); the metrics-merge and
     schedule probes use them. *)
  let margin = Min_suffix.default ~c in
  let gen i =
    Schedule.random ~spec ~adversaries ~phases:chaos_phases
      ~phase_rounds:chaos_phase_rounds ~events:chaos_events
      ~max_victims:chaos_max_victims ~event_margin:margin ~seed:(i + 1) ()
  in
  let schedules =
    List.init chaos_campaigns (fun i ->
        let schedule = gen i in
        let min_suffix =
          Min_suffix.resolve ~c ~rounds:(Schedule.total_rounds schedule) None
        in
        (schedule, min_suffix))
  in
  Option.iter
    (fun c -> ignore (Sys.opaque_identity (c.Algo.Spec.fresh_kernel ())))
    spec.Algo.Spec.codec;
  let cells = chaos_campaigns * List.length run_seeds in
  let trace_path =
    Filename.concat out_dir (Printf.sprintf "chaos-trace-%d.jsonl" seed)
  in
  let last = ref ([], []) in
  let pass tel =
    let config = Harness.Chaos.Config.with_jobs tel.jobs config in
    let metrics =
      match tel.metrics with Some m -> m | None -> Stdx.Metrics.create ()
    in
    let oc = open_out trace_path in
    let agg =
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let trace = Trace.jsonl ~level:Trace.Seams oc in
          call tel "chaos.run" (fun () ->
              Harness.Chaos.run ~metrics ~trace ~spans:tel.spans
                ?heartbeat:tel.heartbeat ~config ~spec ~adversaries ()))
    in
    fun () ->
    (* A traced pass keeps its metrics and reads its trace back. *)
    if tel.metrics <> None then begin
      let events =
        match In_channel.with_open_bin trace_path Trace.read_jsonl with
        | Ok evs -> evs
        | Error msg -> failwith (trace_path ^ ": " ^ msg)
      in
      last := (Stdx.Metrics.snapshot metrics, events)
    end;
    let b = Buffer.create 8192 in
    let failed = ref 0 in
    List.iter
      (fun (o : Harness.Chaos.outcome) ->
        Printf.bprintf b "%d|%s|%d|%d\n" o.Harness.Chaos.schedule_seed
          o.Harness.Chaos.schedule o.Harness.Chaos.run_seed
          o.Harness.Chaos.rounds_simulated;
        let bad = ref false in
        List.iter
          (fun (r : Engine.phase_report) ->
            Printf.bprintf b " %d:%s:%s" r.Engine.phase
              (verdict_str r.Engine.verdict)
              (opt_str r.Engine.recovery);
            let lasted = r.Engine.end_round - r.Engine.start_round in
            match r.Engine.recovery with
            | Some v -> if v > bound then bad := true
            | None -> if lasted >= bound + margin then bad := true)
          o.Harness.Chaos.phases;
        Buffer.add_char b '\n';
        if !bad then incr failed)
      agg.Harness.Chaos.outcomes;
    {
      digest = hex b;
      cells = List.length agg.Harness.Chaos.outcomes;
      failed = !failed;
      node_rounds = Some (n * agg.Harness.Chaos.total_rounds_simulated);
      execs = List.length agg.Harness.Chaos.outcomes;
    }
  in
  (* Per-cell registries like the harness keeps, for the merge probe. *)
  let cell_snapshots () =
    List.concat_map
      (fun (schedule, min_suffix) ->
        List.map
          (fun seed ->
            let m = Stdx.Metrics.create () in
            ignore
              (Engine.run_schedule ~metrics:m ~min_suffix ~spec ~schedule
                 ~seed ());
            Stdx.Metrics.snapshot m)
          run_seeds)
      (List.filteri (fun i _ -> i < 8) schedules)
  in
  let layer tr ~budget_s =
    let snap, events = !last in
    let share = budget_s /. 6.0 in
    let lines = List.map Trace.to_json events in
    let n_events = max 1 (List.length events) in
    let bytes =
      List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines
    in
    let encode =
      Tracer.repeat tr "trace.to_json" ~budget_s:share ~count:n_events
        (fun () -> List.iter (fun e -> ignore (Trace.to_json e)) events)
    in
    let decode =
      Tracer.repeat tr "trace.of_json" ~budget_s:share ~count:n_events
        (fun () -> List.iter (fun l -> ignore (Trace.of_json l)) lines)
    in
    let snaps = cell_snapshots () in
    let merge =
      Tracer.repeat tr "metrics.merge" ~budget_s:share
        ~count:(List.length snaps) (fun () ->
          let m = Stdx.Metrics.create () in
          List.iter (Stdx.Metrics.merge m) snaps)
    in
    metered ~snap ~events
    @ [
        ("trace.encode_ns_per_event", encode *. 1e9);
        ("trace.decode_ns_per_event", decode *. 1e9);
        ( "trace.bytes_per_event",
          float_of_int bytes /. float_of_int n_events );
        ("trace.events", float_of_int (List.length events));
        ("metrics.merge_us_per_cell", merge *. 1e6);
        ("harness.cells", float_of_int cells);
        ("harness.cell_overhead_us", cell_overhead_us tr "chaos.run" events);
      ]
    @ Probes.a41 tr spec ~adversaries
        ~faulty:(Harness.spread_fault_set ~n ~f:spec.Algo.Spec.f)
        ~seed ~budget_s:(2.0 *. share)
    @ Probes.schedule tr ~spec ~adversaries ~max_victims:chaos_max_victims
        ~margin ~gen
        ~schedules:(Array.of_list (List.map fst schedules))
        ~seed ~budget_s:share
  in
  { n; pass; layer }

(* ------------------------------------------------------------------ *)
(* hunt-leader: Hunt.run against follow-leader(4, c=5) over-claiming
   f = 1 with bound 8, then the corpus round trip: Corpus.of_report,
   write, read back, replay. Engine work per execution is tiny. How much
   work a hunt does depends on its seed (how many trials hit, how long
   their shrinks run), so a pass runs [hunt_seeds] hunts, with hunt
   seeds seed * hunt_seeds .. seed * hunt_seeds + hunt_seeds - 1, to
   average that out. *)

let hunt_seeds = 4
let hunt_trials = 500
let hunt_bound = 8

let hunt ~seed =
  let spec =
    Algo.Combinators.with_claimed_resilience
      (Counting.Trivial.follow_leader ~n:4 ~c:5)
      ~f:1
  in
  let adversaries = chaos_adversaries () in
  let n = spec.Algo.Spec.n in
  let margin = Min_suffix.default ~c:spec.Algo.Spec.c in
  (* Per hunt seed: its config, and its trial schedules, drawn and
     mutated exactly as the hunt does before its pool starts (set-up work
     the hunt repeats inside each pass). The schedule probes use the
     first hunt's. *)
  let one hunt_seed =
    let config =
      Hunt.Config.(
        default |> with_trials hunt_trials |> with_seed hunt_seed
        |> with_time_bound hunt_bound)
    in
    let { Hunt.Config.phases; phase_rounds; events; max_victims; mutations; _ } =
      config
    in
    let master = Stdx.Rng.create hunt_seed in
    let trial_seeds =
      Array.init hunt_trials (fun _ ->
          let gen_seed = Stdx.Rng.bits master in
          let mut_seed = Stdx.Rng.bits master in
          (gen_seed, mut_seed))
    in
    let gen i =
      Schedule.random ~spec ~adversaries ~phases ~phase_rounds ~events
        ~max_victims ~event_margin:margin ~seed:(fst trial_seeds.(i)) ()
    in
    let schedules =
      Array.mapi
        (fun i (_, mut_seed) ->
          let rng = Stdx.Rng.create mut_seed in
          let rec go s k =
            if k = 0 then s
            else
              go
                (Schedule.mutate ~spec ~adversaries ~max_victims
                   ~event_margin:margin ~rng s)
                (k - 1)
          in
          go (gen i) (Stdx.Rng.int rng (mutations + 1)))
        trial_seeds
    in
    (hunt_seed, config, gen, schedules)
  in
  let hunts = List.init hunt_seeds (fun i -> one ((seed * hunt_seeds) + i)) in
  Option.iter
    (fun c -> ignore (Sys.opaque_identity (c.Algo.Spec.fresh_kernel ())))
    spec.Algo.Spec.codec;
  let corpus_path =
    Filename.concat out_dir (Printf.sprintf "hunt-corpus-%d.jsonl" seed)
  in
  let last = ref None in
  (* One hunt and its corpus round trip. *)
  let run_one tel (hunt_seed, config, _, _) =
    let config = Hunt.Config.with_jobs tel.jobs config in
    let report =
      call tel "hunt.run" (fun () ->
          Hunt.run ?metrics:tel.metrics ?trace:tel.trace ~spans:tel.spans
            ?heartbeat:tel.heartbeat ~config ~spec ~adversaries ())
    in
    let entries =
      call tel "corpus.of_report" (fun () ->
          Hunt.Corpus.of_report ~spec ~hunt_seed report)
    in
    call tel "corpus.write" (fun () ->
        Out_channel.with_open_bin corpus_path (fun oc ->
            Hunt.Corpus.write oc entries));
    let read =
      call tel "corpus.read" (fun () ->
          In_channel.with_open_bin corpus_path (fun ic ->
              Hunt.Corpus.read ~adversaries ic))
    in
    let read = match read with Ok e -> e | Error msg -> failwith msg in
    let replayed =
      if read = [] then []
      else
        call tel "corpus.replay" (fun () ->
            Hunt.Corpus.replay ?metrics:tel.metrics ~spec ~entries:read ())
    in
    (report, entries, read, replayed)
  in
  let pass tel =
    let runs = List.map (run_one tel) hunts in
    fun () ->
    let b = Buffer.create 8192 in
    let failed = ref 0 and cells = ref 0 and execs = ref 0 in
    let runs =
      List.map
        (fun (report, entries, read, replayed) ->
          Printf.bprintf b "%d|%d|%d\n" report.Hunt.trials
            report.Hunt.executions
            (List.length report.Hunt.hits);
          let written = List.map Hunt.Corpus.entry_to_json entries in
          List.iter (fun l -> Printf.bprintf b "%s\n" l) written;
          let oversized =
            List.length
              (List.filter
                 (fun (h : _ Hunt.hit) -> h.Hunt.size > h.Hunt.original_size)
                 report.Hunt.hits)
          in
          let diverged =
            List.length (List.filter (fun (_, _, ok) -> not ok) replayed)
          in
          let read_back = List.map Hunt.Corpus.entry_to_json read = written in
          failed :=
            !failed + oversized + diverged
            + if read_back then 0 else List.length written;
          cells := !cells + report.Hunt.trials + List.length replayed;
          execs := !execs + report.Hunt.executions + List.length replayed;
          (report, entries, written))
        runs
    in
    (match tel.metrics with
    | Some m ->
      let events = match tel.trace with Some tr -> Trace.events tr | None -> [] in
      last := Some (runs, Stdx.Metrics.snapshot m, events)
    | None -> ());
    {
      digest = hex b;
      cells = !cells;
      failed = !failed;
      node_rounds =
        Option.map
          (fun m -> n * counter (Stdx.Metrics.snapshot m) "engine.rounds")
          tel.metrics;
      execs = !execs;
    }
  in
  let layer tr ~budget_s =
    match !last with
    | None -> []
    | Some (runs, snap, events) ->
      let hits = List.concat_map (fun (r, _, _) -> r.Hunt.hits) runs in
      let executions =
        List.fold_left (fun acc (r, _, _) -> acc + r.Hunt.executions) 0 runs
      in
      let entries = List.concat_map (fun (_, e, _) -> e) runs in
      let lines = List.concat_map (fun (_, _, l) -> l) runs in
      let steps =
        List.fold_left (fun acc h -> acc + h.Hunt.shrink_steps) 0 hits
      in
      let kept = List.fold_left (fun acc h -> acc + h.Hunt.shrink_kept) 0 hits in
      let n_hits = List.length hits in
      let n_entries = max 1 (List.length entries) in
      let share = budget_s /. 3.0 in
      let encode =
        Tracer.repeat tr "corpus.entry_to_json" ~budget_s:share
          ~count:n_entries (fun () ->
            List.iter (fun e -> ignore (Hunt.Corpus.entry_to_json e)) entries)
      in
      let decode =
        Tracer.repeat tr "corpus.entry_of_json" ~budget_s:share
          ~count:n_entries (fun () ->
            List.iter
              (fun l ->
                ignore
                  (Hunt.Corpus.entry_of_json ~adversaries (Stdx.Json.parse l)))
              lines)
      in
      let bytes =
        List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines
      in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let _, config, gen, schedules = List.hd hunts in
      metered ~snap ~events
      @ [
        ( "harness.cell_overhead_us",
          cell_overhead_us ~calls:hunt_seeds tr "hunt.run" events );
        ("span.hunt.trial_s", hist_sum snap "span.hunt.trial_s");
        ("span.hunt.shrink_s", hist_sum snap "span.hunt.shrink_s");
        ("hunt.executions", float_of_int executions);
        ("hunt.hits", float_of_int n_hits);
        ("hunt.shrink_steps", float_of_int steps);
        ("hunt.shrink_kept", float_of_int kept);
        ("hunt.shrink_accept_ratio", ratio kept steps);
        ("hunt.execs_per_hit", ratio executions n_hits);
        ("corpus.encode_us_per_entry", encode *. 1e6);
        ("corpus.decode_us_per_entry", decode *. 1e6);
        ("corpus.bytes_per_entry", ratio bytes n_entries);
        ("corpus.replay_s", median (Tracer.per_op tr "corpus.replay"));
      ]
      @ Probes.schedule tr ~spec ~adversaries
          ~max_victims:config.Hunt.Config.max_victims ~margin ~gen ~schedules
          ~seed ~budget_s:share
  in
  { n; pass; layer }

(* ------------------------------------------------------------------ *)
(* pull-a12: the pulling model's own simulator, Pull_sim.run_stream
   without early exit, on Sampled.construct (k = 3, F = 3, C = 8,
   M = 16) over an A(4,1) c = 960 inner counter, with faulty [0; 5; 9]
   and the random responder. *)

let pull_rounds = 2500
let pull_faulty = [ 0; 5; 9 ]

let pull ~seed =
  let inner =
    (Counting.Boost.construct
       ~inner:(Counting.Trivial.single ~c:2304)
       ~k:4 ~big_f:1 ~big_c:960)
      .Counting.Boost.spec
  in
  let s =
    Pulling.Sampled.construct ~inner ~k:3 ~big_f:3 ~big_c:8 ~samples:16
  in
  let spec = s.Pulling.Sampled.spec in
  let limit = s.Pulling.Sampled.params.Pulling.Sampled.pulls_per_round in
  let n = spec.Pulling.Pull_spec.n in
  let correct = n - List.length pull_faulty in
  let last = ref None in
  let pass tel =
    let r =
      call tel "pull_sim.run_stream" (fun () ->
          Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:64 ~spec
            ~responder:(Pulling.Pull_sim.random_responder ())
            ~faulty:pull_faulty ~rounds:pull_rounds ~seed ())
    in
    fun () ->
    let b = Buffer.create 64 in
    Printf.bprintf b "%s|%d|%d|%d\n"
      (verdict_str r.Pulling.Pull_sim.verdict)
      r.Pulling.Pull_sim.rounds_simulated r.Pulling.Pull_sim.stream_max_pulls
      r.Pulling.Pull_sim.stream_total_pulls;
    if tel.tracer <> None then last := Some r;
    {
      digest = hex b;
      cells = 1;
      failed = (if r.Pulling.Pull_sim.stream_max_pulls > limit then 1 else 0);
      node_rounds = Some (n * r.Pulling.Pull_sim.rounds_simulated);
      execs = 1;
    }
  in
  let layer tr ~budget_s:_ =
    match !last with
    | None -> []
    | Some r ->
      let rounds = max 1 r.Pulling.Pull_sim.rounds_simulated in
      let per_pass = median (Tracer.per_op tr "pull_sim.run_stream") in
      [
        ( "pull.ns_per_node_round",
          per_pass /. float_of_int (n * rounds) *. 1e9 );
        ( "pull.pulls_per_node_round",
          float_of_int r.Pulling.Pull_sim.stream_total_pulls
          /. float_of_int (correct * rounds) );
        ("pull.max_pulls", float_of_int r.Pulling.Pull_sim.stream_max_pulls);
      ]
  in
  { n; pass; layer }

let setup name ~seed =
  match name with
  | "sweep-a12" -> sweep ~seed
  | "chaos-a41" -> chaos ~seed
  | "hunt-leader" -> hunt ~seed
  | "pull-a12" -> pull ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)
