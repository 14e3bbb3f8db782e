(* The box's speed at the moment, measured by a fixed reference loop.

   The benchmark runs on a few vCPUs of a host shared with other
   tenants. Their load comes in phases of seconds to minutes and slows
   the workloads by up to 1.5x. It shows no steal time and barely moves
   a latency-bound loop, so it is contention for the core itself (a busy
   hyperthread sibling, shared caches), not lost CPU time. The reference
   loop therefore does what the simulator does, in three equal parts:
   independent integer chains feeding table reads from L1 (execution
   units), short-lived allocation (the minor heap), and random reads
   from an 8 MB table (the shared caches). It slows with the workloads.

   Timings are reported at reference speed: measured seconds times
   [nominal_s] over the loop's own time, sampled right before and right
   after the timed work. The loop is the benchmark's code, not the
   program's, so a change to the program moves the scaled time exactly
   as much as the measured one. *)

(* About the loop's time on an unloaded 2.1 GHz Xeon vCPU, so scaled
   times read as roughly seconds on that box when it is quiet. *)
let nominal_s = 0.001
let table = Array.init 4096 (fun i -> (i * 2654435761) land 0xffff)
(* Outside the OCaml heap, so the workloads' peak heap does not count it. *)
let big =
  let a = Bigarray.(Array1.create int c_layout (1 lsl 20)) in
  for i = 0 to (1 lsl 20) - 1 do
    a.{i} <- i * 7919
  done;
  a

let units () =
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 and s = ref 0 in
  for _ = 1 to 80_000 do
    a := ((!a * 1103515245) + 12345) land 0x3fffffff;
    b := ((!b * 22695477) + 1) land 0x3fffffff;
    c := ((!c * 1664525) + 1013904223) land 0x3fffffff;
    d := ((!d * 134775813) + 1) land 0x3fffffff;
    s :=
      !s
      + table.(!a land 4095)
      + (table.(!b land 4095) lxor table.(!c land 4095))
      + table.(!d land 4095)
  done;
  !s

let alloc () =
  let acc = ref [] and s = ref 0 in
  for i = 1 to 40_000 do
    acc := (i, i + 1) :: !acc;
    if i land 1023 = 0 then begin
      List.iter (fun (x, y) -> s := !s + x + y) !acc;
      acc := []
    end
  done;
  !s

let caches () =
  let x = ref 12345 and s = ref 0 in
  for _ = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    s := !s + big.{!x land ((1 lsl 20) - 1)}
  done;
  !s

let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (units () + alloc () + caches ()));
  Unix.gettimeofday () -. t0

(* [f ()] with the loop sampled before and after it: its result and the
   mean of the two samples. *)
let around f =
  let r0 = sample () in
  let x = f () in
  let r1 = sample () in
  (x, 0.5 *. (r0 +. r1))

(* [f ()], timed, with the loop sampled around it; (seconds, loop time)
   is added to [acc]. A pass is timed as a series of such units (each
   call into the program), so the loop samples stay close in time to
   the work they scale and are themselves left out of its time. *)
let unit acc f =
  let (x, t), r =
    around (fun () ->
        let t0 = Unix.gettimeofday () in
        let x = f () in
        (x, Unix.gettimeofday () -. t0))
  in
  acc := (t, r) :: !acc;
  x

(* Seconds [t] measured at loop time [r], at reference speed. *)
let scale (t, r) = t *. nominal_s /. r
