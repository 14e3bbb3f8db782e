(* Campaign benchmark: runs one workload for a fixed time and prints a
   table, then, as the last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
   they are its per-layer metrics. See README.md.

     main.exe --workload sweep-a12 --seed 1 --seconds 25 --trace 0

   Run it from the repository root, which holds BENCHMARK.json and
   perfbench/expected.json. *)

let default_seed = 1
let contract_file = "BENCHMARK.json"
let expected_file = Filename.concat "perfbench" "expected.json"

(* Counts that repeat exactly for a given seed; reported by the traced
   run and compared with the record at the default seed. *)
let exact_names =
  [
    "engine.rounds";
    "engine.minor_words_per_node_round";
    "engine.flat_craft_phases";
    "engine.bridged_craft_phases";
    "harness.cells";
    "hunt.executions";
    "hunt.hits";
    "hunt.shrink_steps";
    "hunt.shrink_kept";
    "trace.events";
    "pull.pulls_per_node_round";
    "pull.max_pulls";
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt
let now = Unix.gettimeofday
let median = Workloads.median

(* Timings are the median over many repetitions of the same work, each
   scaled to reference speed by the loop sampled around it (see Pace).
   On a box shared with other tenants the measured time of the same
   pass moved by 30-50% between runs, whatever the statistic; the scaled
   median by about 10%. The table also prints the measured quartiles. *)
let scaled_median samples = median (List.map Pace.scale samples)

let parse_args () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 0.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (required)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced run");
    ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then
    die "--workload must be one of %s" (String.concat ", " Workloads.names);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.0) then die "--seconds is required and must be positive";
  (!workload, !seed, !seconds, !trace = 1)

let read_json path =
  match Stdx.Json.parse_result (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

(* (name, unit) of the end-to-end and per-layer metrics. *)
let contract () =
  let j = read_json contract_file in
  let metrics key =
    List.map
      (fun m ->
        ( Stdx.Json.to_string "name" (Stdx.Json.field m "name"),
          Stdx.Json.to_string "unit" (Stdx.Json.field m "unit") ))
      (Stdx.Json.to_list key (Stdx.Json.field j key))
  in
  (metrics "end_to_end", metrics "per_layer")

(* The recorded digest and exact counts of [workload] at the default
   seed, if any. *)
let expected workload =
  let j = read_json expected_file in
  match Stdx.Json.field_opt (Stdx.Json.field j "workloads") workload with
  | None -> (None, [])
  | Some w ->
    let digest = Stdx.Json.to_string "digest" (Stdx.Json.field w "digest") in
    let exact =
      match Stdx.Json.field_opt w "exact" with
      | Some (Stdx.Json.Object fields) ->
        List.map (fun (k, v) -> (k, Stdx.Json.to_float k v)) fields
      | _ -> []
    in
    (Some digest, exact)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload, seed, seconds, traced = parse_args () in
  let e2e_spec, layer_spec = contract () in
  let want_digest, want_exact = expected workload in
  Workloads.ensure_out_dir ();
  (* Set-up, many times, in batches of at least 5 ms: five batches
     after the warm-up pass and, in the end-to-end run, one before each
     timed pass, so the batches span the run like the passes do. The
     value is the median batch's time per set-up, at reference speed.
     The first instance, made to size the batches, runs. *)
  let inst = ref None in
  let setup_batch k =
    Pace.around (fun () ->
        let t0 = now () in
        for _ = 1 to k do
          inst := Some (Workloads.setup workload ~seed)
        done;
        (now () -. t0) /. float_of_int k)
  in
  let batch =
    max 1 (int_of_float (Float.ceil (0.005 /. fst (setup_batch 1))))
  in
  let w = Option.get !inst in
  (* Warm-up pass, untimed: fills caches, fixes the outcome digest every
     later pass must reproduce, and counts allocation per node-round. *)
  let minor0 = Gc.minor_words () in
  let check0 = w.Workloads.pass Workloads.bare in
  let minor_words = Gc.minor_words () -. minor0 in
  let p0 = check0 () in
  (* The peak heap of a set-up and a pass, read before the timed loop:
     how far the heap grows later depends on how many passes the box
     fits into the run. *)
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let setups = ref (List.init 5 (fun _ -> setup_batch batch)) in
  let node_rounds =
    match p0.Workloads.node_rounds with
    | Some r -> r
    | None ->
      let m = Stdx.Metrics.create () in
      Option.get
        (w.Workloads.pass { Workloads.bare with metrics = Some m } ())
          .Workloads.node_rounds
  in
  let attempted = ref p0.Workloads.cells and failed = ref p0.Workloads.failed in
  let digest_ok =
    seed <> default_seed || want_digest = None
    || want_digest = Some p0.Workloads.digest
  in
  if not digest_ok then failed := !attempted;
  (* One timed pass; its outcomes are checked after the clock stops. A
     pass that raises, or whose outcomes differ from the warm-up pass,
     counts every cell as failed. *)
  let diverged = ref 0 in
  let timed tel =
    let t0 = now () in
    match
      let check = w.Workloads.pass tel in
      let wall = now () -. t0 in
      (wall, check ())
    with
    | wall, p ->
      attempted := !attempted + p.Workloads.cells;
      if p.Workloads.digest <> p0.Workloads.digest then incr diverged;
      failed :=
        !failed
        + (if p.Workloads.digest = p0.Workloads.digest && digest_ok then
             p.Workloads.failed
           else p.Workloads.cells);
      Some wall
    | exception e ->
      Printf.printf "pass raised: %s\n" (Printexc.to_string e);
      attempted := !attempted + p0.Workloads.cells;
      failed := !failed + p0.Workloads.cells;
      None
  in
  let metrics =
    if not traced then begin
      let deadline = now () +. seconds in
      let rec loop k walls =
        if k < 3 || now () < deadline then begin
          setups := setup_batch batch :: !setups;
          let units = ref [] in
          loop (k + 1)
            (match timed { Workloads.bare with pace = Some units } with
            | Some _ -> !units :: walls
            | None -> walls)
        end
        else walls
      in
      (* Per pass: the measured seconds of its units, and their sum
         scaled unit by unit to reference speed. *)
      let passes =
        List.map
          (fun units ->
            ( Workloads.sum (List.map fst units),
              Workloads.sum (List.map Pace.scale units) ))
          (loop 0 [])
      in
      let wall_s = median (List.map snd passes) in
      let q = Array.of_list (List.sort Float.compare (List.map fst passes)) in
      let k = Array.length q in
      Printf.printf "%s seed %d: %d passes (measured wall min %.4f q1 %.4f \
                     med %.4f q3 %.4f max %.4f; scaled wall med %.4f), \
                     digest %s%s\n"
        workload seed k q.(0) q.(k / 4) q.(k / 2) q.(3 * k / 4) q.(k - 1)
        wall_s
        p0.Workloads.digest
        (if seed = default_seed then
           if want_digest = None then " (no record)"
           else if digest_ok then " (matches record)"
           else " (DIFFERS from record)"
         else "");
      [
        ("setup_s", scaled_median !setups);
        ("wall_s", wall_s);
        ("node_rounds_per_s", float_of_int node_rounds /. wall_s);
        ("execs_per_s", float_of_int p0.Workloads.execs /. wall_s);
        ( "peak_heap_mb",
          float_of_int (heap * (Sys.word_size / 8)) /. (1024.0 *. 1024.0) );
      ]
    end
    else begin
      let tr = Tracer.create () in
      let traced_tel () =
        {
          Workloads.metrics = Some (Stdx.Metrics.create ());
          trace = Some (Sim.Trace.memory ~level:Sim.Trace.Seams ());
          spans = true;
          jobs = 1;
          heartbeat = None;
          tracer = Some tr;
          pace = None;
        }
      in
      (* Half the time alternates untraced and traced passes; the rest
         goes to the layer probes. The overhead is the median over
         adjacent pairs, which share the box's load. *)
      let deadline_half = now () +. (seconds /. 2.0) in
      let rec alternate k pairs =
        if k < 2 || now () < deadline_half then
          let pair =
            match (timed Workloads.bare, timed (traced_tel ())) with
            | Some b, Some t -> [ (b, t) ]
            | _ -> []
          in
          alternate (k + 1) (pair @ pairs)
        else pairs
      in
      let pairs = alternate 0 [] in
      let wall_j1 = median (List.map fst pairs) in
      let overhead =
        median (List.map (fun (b, t) -> (t /. b -. 1.0) *. 100.0) pairs)
      in
      let budget = seconds /. 2.0 in
      let jobs2 =
        if workload = "pull-a12" then []
        else
          Workloads.jobs2_probe ~wall_j1 timed
      in
      let own = w.Workloads.layer tr ~budget_s:(0.9 *. budget) in
      let measured =
        own @ jobs2
        @ [
            ("trace_overhead_pct", overhead);
            ( "engine.minor_words_per_node_round",
              minor_words /. float_of_int node_rounds );
          ]
      in
      Tracer.write tr
        (Filename.concat Workloads.out_dir
           (Printf.sprintf "spans-%s-%d.jsonl" workload seed));
      Printf.printf "%s seed %d: %d untraced/traced pass pairs, outcomes %s\n"
        workload seed (List.length pairs)
        (if !diverged = 0 then "identical" else "DIFFER");
      let value name =
        match List.assoc_opt name measured with Some v -> v | None -> 0.0
      in
      let exact = List.map (fun n -> (n, value n)) exact_names in
      Printf.printf "record: {\"digest\": \"%s\", \"exact\": {%s}}\n"
        p0.Workloads.digest
        (String.concat ", "
           (List.map
              (fun (n, v) -> Printf.sprintf "\"%s\": %s" n (json_number v))
              exact));
      if seed = default_seed then
        List.iter
          (fun (n, v) ->
            let same r =
              if n = "engine.minor_words_per_node_round" then
                Float.round (r *. 100.0) = Float.round (v *. 100.0)
              else r = v
            in
            match List.assoc_opt n want_exact with
            | Some r when not (same r) ->
              Printf.printf "exact count %s changed: recorded %s, now %s\n" n
                (json_number r) (json_number v)
            | _ -> ())
          exact;
      measured
    end
  in
  let spec = if traced then layer_spec else e2e_spec in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name spec) then
        die "metric %s is not in %s" name contract_file)
    metrics;
  let value name =
    match List.assoc_opt name metrics with
    | Some v when Float.is_finite v -> v
    | Some _ -> 0.0
    | None -> if traced then 0.0 else die "no value for %s" name
  in
  let error_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  let table = Stdx.Table.create [ "metric"; "value"; "unit" ] in
  List.iter
    (fun (name, unit) ->
      Stdx.Table.add_row table [ name; Printf.sprintf "%.6g" (value name); unit ])
    spec;
  Stdx.Table.add_row table
    [ "error_rate"; Printf.sprintf "%.6g" error_rate; "ratio" ];
  Stdx.Table.print table;
  let correct = !failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (Printf.sprintf "%.17g" (value name))
              (Stdx.Json.escape unit))
          spec))
