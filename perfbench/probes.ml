(* Layer probes of the traced run: the Boost kernel, flat and bridged
   crafting, the online detector, the engine round loop and the schedule
   operations, each timed from outside by calling the layer's public
   functions in benchmark spans. Each workload runs only the probes of
   the layers it exercises (see Workloads), on inputs captured from its
   own spec, adversaries and seed. *)

open Sim

(* Run the spec through the engine with a kernel wrapper that records
   every step's (self, received codes). The wrapper only copies; the
   runs are unchanged. *)
let capture (spec : 's Algo.Spec.t) runs =
  let codec = Option.get spec.Algo.Spec.codec in
  let buf = ref [] in
  let fresh_kernel () =
    let k = codec.Algo.Spec.fresh_kernel () in
    {
      Algo.Spec.step =
        (fun ~self ~rng recv ->
          buf := (self, Array.copy recv) :: !buf;
          k.Algo.Spec.step ~self ~rng recv);
    }
  in
  let spec' =
    { spec with Algo.Spec.codec = Some { codec with Algo.Spec.fresh_kernel } }
  in
  List.iter
    (fun (adversary, faulty, rounds, seed) ->
      ignore
        (Engine.run ~mode:Engine.Full_horizon ~spec:spec' ~adversary ~faulty
           ~rounds ~seed ()))
    runs;
  Array.of_list (List.rev !buf)

let step_s tr name (codec : _ Algo.Spec.codec) captured ~budget_s =
  let rng = Stdx.Rng.create 1 in
  Tracer.repeat_with tr name ~budget_s ~count:(Array.length captured)
    ~prepare:codec.Algo.Spec.fresh_kernel (fun k ->
      Array.iter
        (fun (self, recv) ->
          ignore (Sys.opaque_identity (k.Algo.Spec.step ~self ~rng recv)))
        captured)

let fresh_kernel_s tr name (codec : _ Algo.Spec.codec) ~budget_s =
  Tracer.repeat tr name ~budget_s ~count:50 (fun () ->
      for _ = 1 to 50 do
        ignore (Sys.opaque_identity (codec.Algo.Spec.fresh_kernel ()))
      done)

(* Packed state vectors of a full-trace run, one per round. *)
let state_bufs (spec : 's Algo.Spec.t) ~adversary ~faulty ~rounds ~seed =
  let codec = Option.get spec.Algo.Spec.codec in
  let run = Network.run ~spec ~adversary ~faulty ~rounds ~seed () in
  let bufs =
    Array.map
      (fun states ->
        let b =
          Statebuf.create ~num_states:codec.Algo.Spec.num_states
            spec.Algo.Spec.n
        in
        Array.iteri (fun i s -> Statebuf.set b i (codec.Algo.Spec.encode_state s)) states;
        b)
      run.Network.states
  in
  (bufs, run.Network.outputs, Network.correct_ids run)

let craft_flat_s tr name (spec : 's Algo.Spec.t) adversary ~faulty ~bufs
    ~budget_s =
  let codec = Option.get spec.Algo.Spec.codec in
  let n = spec.Algo.Spec.n in
  let faulty = Array.of_list faulty in
  let env = { Adversary.n; random_code = codec.Algo.Spec.random_code } in
  let out = Array.make (Array.length faulty * n) 0 in
  let make = Option.get adversary.Adversary.fresh_flat in
  Tracer.repeat_with tr name ~budget_s
    ~count:(Array.length bufs * Array.length faulty * n)
    ~prepare:(fun () -> (make env, Stdx.Rng.create 7))
    (fun (cr, rng) ->
      Array.iteri
        (fun round states ->
          cr.Adversary.craft_flat ~rng ~round ~states ~faulty ~out)
        bufs)

(* The crafting bridge of a strategy without a flat kernel: decode the
   packed states, craft boxed messages, re-encode them. *)
let craft_bridge_s tr name (spec : 's Algo.Spec.t) adversary ~faulty ~bufs
    ~budget_s =
  let codec = Option.get spec.Algo.Spec.codec in
  let n = spec.Algo.Spec.n in
  let faulty = Array.of_list faulty in
  Tracer.repeat_with tr name ~budget_s ~count:(Array.length bufs)
    ~prepare:(fun () -> (adversary.Adversary.fresh (), Stdx.Rng.create 7))
    (fun (cr, rng) ->
      Array.iteri
        (fun round buf ->
          let states =
            Array.init n (fun i -> codec.Algo.Spec.decode_state (Statebuf.get buf i))
          in
          let msgs = cr.Adversary.craft ~spec ~rng ~round ~states ~faulty in
          Array.iter
            (Array.iter (fun m ->
                 ignore (Sys.opaque_identity (codec.Algo.Spec.encode_state m))))
            msgs)
        bufs)

let observe_s tr name ~c ~correct rows ~budget_s =
  Tracer.repeat_with tr name ~budget_s ~count:(Array.length rows)
    ~prepare:(fun () -> Online.create ~c ~correct ~min_suffix:16 ())
    (fun d -> Array.iteri (fun round row -> Online.observe d ~round row) rows)

let engine_s tr name spec ~adversary ~faulty ~rounds ~seed ~budget_s =
  Tracer.repeat tr name ~budget_s ~count:(spec.Algo.Spec.n * rounds) (fun () ->
      ignore
        (Engine.run ~mode:Engine.Full_horizon ~spec ~adversary ~faulty ~rounds
           ~seed ()))

let ns = 1e9
let us = 1e6

(* Schedule operations on a workload's own schedules: [gen i] regenerates
   schedule [i] as the workload does, and [schedules] are the ones it
   generated at set-up. *)
let schedule tr ~spec ~adversaries ~max_victims ~margin ~gen ~schedules ~seed
    ~budget_s =
  let k = Array.length schedules in
  let share = budget_s /. 3.0 in
  let random =
    Tracer.repeat tr "schedule.random" ~budget_s:share ~count:k (fun () ->
        for i = 0 to k - 1 do
          ignore (Sys.opaque_identity (gen i))
        done)
  in
  let mutate =
    Tracer.repeat_with tr "schedule.mutate" ~budget_s:share ~count:k
      ~prepare:(fun () -> Stdx.Rng.create seed)
      (fun rng ->
        Array.iter
          (fun s ->
            ignore
              (Schedule.mutate ~spec ~adversaries ~max_victims
                 ~event_margin:margin ~rng s))
          schedules)
  in
  let validate =
    Tracer.repeat tr "schedule.validate" ~budget_s:share ~count:k (fun () ->
        Array.iter (fun s -> ignore (Schedule.validate ~spec s)) schedules)
  in
  let size =
    Array.fold_left (fun acc s -> acc + Schedule.size s) 0 schedules
  in
  [
    ("schedule.random_us", random *. us);
    ("schedule.mutate_us", mutate *. us);
    ("schedule.validate_us", validate *. us);
    ("schedule.size_mean", float_of_int size /. float_of_int k);
  ]

(* The A(12,3) layers sweep-a12 runs: the top-level and inner kernel
   step on vectors received in a slice of every sweep adversary's cell
   on [faulty], fresh kernels, flat crafting, the n = 12 detector and
   the engine round loop, benign and hostile. *)
let a12 tr (b : _ Counting.Boost.t) ~adversaries ~faulty ~seed ~budget_s =
  let share = budget_s /. 10.0 in
  let spec = b.Counting.Boost.spec in
  let codec = Option.get spec.Algo.Spec.codec in
  let cap = capture spec (List.map (fun a -> (a, faulty, 200, seed)) adversaries) in
  let cap_benign = capture spec [ (Adversary.benign (), faulty, 2000, seed) ] in
  let step = step_s tr "boost.a12_3.step" codec cap ~budget_s:share in
  let step_benign =
    step_s tr "boost.a12_3.step.benign" codec cap_benign ~budget_s:share
  in
  (* The inner A(4,1) step on each captured vector's own block, through
     one inner kernel per block as the Boost kernel keeps them. *)
  let inner = b.Counting.Boost.inner in
  let ic = Option.get inner.Algo.Spec.codec in
  let n_inner = b.Counting.Boost.params.Counting.Boost.n_inner in
  let k = b.Counting.Boost.params.Counting.Boost.k in
  let projected =
    Array.map
      (fun (self, recv) ->
        let blk = self / n_inner in
        ( self,
          Array.init n_inner (fun j ->
              ic.Algo.Spec.encode_state
                (codec.Algo.Spec.decode_state recv.((blk * n_inner) + j))
                  .Counting.Boost.inner) ))
      cap
  in
  let rng = Stdx.Rng.create 1 in
  let inner_step =
    Tracer.repeat_with tr "boost.a12_3.inner_step" ~budget_s:share
      ~count:(Array.length projected)
      ~prepare:(fun () -> Array.init k (fun _ -> ic.Algo.Spec.fresh_kernel ()))
      (fun kernels ->
        Array.iter
          (fun (self, recv) ->
            ignore
              (Sys.opaque_identity
                 (kernels.(self / n_inner).Algo.Spec.step
                    ~self:(self mod n_inner) ~rng recv)))
          projected)
  in
  let fk = fresh_kernel_s tr "boost.a12_3.fresh_kernel" codec ~budget_s:share in
  let bufs, rows, correct =
    state_bufs spec ~adversary:(Adversary.split_brain ()) ~faulty ~rounds:400
      ~seed
  in
  let split =
    craft_flat_s tr "adversary.split_brain.craft_flat" spec
      (Adversary.split_brain ()) ~faulty ~bufs ~budget_s:share
  in
  let equiv =
    craft_flat_s tr "adversary.random_equivocate.craft_flat" spec
      (Adversary.random_equivocate ()) ~faulty ~bufs ~budget_s:share
  in
  let obs =
    observe_s tr "online.observe.n12" ~c:spec.Algo.Spec.c ~correct rows
      ~budget_s:share
  in
  let benign =
    engine_s tr "engine.run.benign" spec ~adversary:(Adversary.benign ())
      ~faulty ~rounds:2000 ~seed ~budget_s:share
  in
  let hostile =
    engine_s tr "engine.run.split_brain" spec
      ~adversary:(Adversary.split_brain ()) ~faulty ~rounds:2000 ~seed
      ~budget_s:share
  in
  [
    ("boost.a12_3.step_ns", step *. ns);
    ("boost.a12_3.self_ns", (step -. inner_step) *. ns);
    ("boost.a12_3.fresh_kernel_us", fk *. us);
    ("adversary.flat.split_brain.craft_ns_per_msg", split *. ns);
    ("adversary.flat.random_equivocate.craft_ns_per_msg", equiv *. ns);
    ("online.n12.observe_ns", obs *. ns);
    ("engine.benign.ns_per_node_round", benign *. ns);
    ("engine.hostile_flat.ns_per_node_round", hostile *. ns);
    ( "engine.self_ns_per_node_round",
      (benign -. step_benign -. (obs /. 12.0)) *. ns );
  ]

(* The A(4,1) layers chaos-a41 runs: the kernel step on vectors received
   in a slice of every chaos-pool adversary's cell on [faulty], fresh
   kernels, the greedy-confusion crafting bridge, the n = 4 detector and
   the bridged engine round loop. *)
let a41 tr (spec : 's Algo.Spec.t) ~adversaries ~faulty ~seed ~budget_s =
  let share = budget_s /. 5.0 in
  let codec = Option.get spec.Algo.Spec.codec in
  let cap = capture spec (List.map (fun a -> (a, faulty, 200, seed)) adversaries) in
  let step = step_s tr "boost.a41.step" codec cap ~budget_s:share in
  let fk = fresh_kernel_s tr "boost.a41.fresh_kernel" codec ~budget_s:share in
  let bufs, rows, correct =
    state_bufs spec ~adversary:(Adversary.split_brain ()) ~faulty ~rounds:400
      ~seed
  in
  let bridge =
    craft_bridge_s tr "adversary.greedy_confusion.craft" spec
      (Adversary.greedy_confusion ~pool:2 ()) ~faulty ~bufs ~budget_s:share
  in
  let obs =
    observe_s tr "online.observe.n4" ~c:spec.Algo.Spec.c ~correct rows
      ~budget_s:share
  in
  let bridged =
    engine_s tr "engine.run.greedy_confusion" spec
      ~adversary:(Adversary.greedy_confusion ~pool:2 ())
      ~faulty ~rounds:400 ~seed ~budget_s:share
  in
  [
    ("boost.a41.step_ns", step *. ns);
    ("boost.a41.fresh_kernel_us", fk *. us);
    ("adversary.bridge.craft_us_per_round", bridge *. us);
    ("online.n4.observe_ns", obs *. ns);
    ("engine.bridged.ns_per_node_round", bridged *. ns);
  ]
