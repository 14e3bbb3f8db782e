(* Unit and property tests for the utility substrate. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Stdx.Rng.create 17 and b = Stdx.Rng.create 17 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Stdx.Rng.next_int64 a)
      (Stdx.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stdx.Rng.create 17 and b = Stdx.Rng.create 18 in
  check Alcotest.bool "different seeds differ" true
    (Stdx.Rng.next_int64 a <> Stdx.Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Stdx.Rng.create 3 in
  let b = Stdx.Rng.copy a in
  let xa = Stdx.Rng.next_int64 a in
  let xb = Stdx.Rng.next_int64 b in
  check Alcotest.int64 "copy replays" xa xb;
  ignore (Stdx.Rng.next_int64 a);
  let xa2 = Stdx.Rng.next_int64 a and xb2 = Stdx.Rng.next_int64 b in
  check Alcotest.bool "then they diverge (one is ahead)" true (xa2 <> xb2)

let test_rng_split_diverges () =
  let a = Stdx.Rng.create 5 in
  let b = Stdx.Rng.split a in
  let xs = List.init 10 (fun _ -> Stdx.Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Stdx.Rng.next_int64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

(* [split_into]/[skip] are the allocation-free forms of [split] and
   [ignore (next_int64 _)]: after either, both generators must stand
   exactly where the allocating forms leave them. *)
let test_rng_split_into_skip =
  qcheck "split_into/skip match split/next_int64"
    QCheck.(triple int (int_range 0 20) (int_range 0 5))
    (fun (seed, pre, skips) ->
      let a = Stdx.Rng.create seed in
      for _ = 1 to pre do
        ignore (Stdx.Rng.next_int64 a)
      done;
      let b = Stdx.Rng.copy a in
      let child = Stdx.Rng.split a in
      let dst = Stdx.Rng.create (seed + 1) in
      Stdx.Rng.split_into b dst;
      for _ = 1 to skips do
        ignore (Stdx.Rng.next_int64 a);
        Stdx.Rng.skip b
      done;
      let draws t = List.init 4 (fun _ -> Stdx.Rng.next_int64 t) in
      draws a = draws b && draws child = draws dst)

let test_rng_split_into_no_allocation () =
  let t = Stdx.Rng.create 9 and dst = Stdx.Rng.create 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Stdx.Rng.split_into t dst;
    Stdx.Rng.skip t
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "split_into/skip allocate nothing (%.0f words)" words)
    true (words < 100.0)

let test_rng_int_bounds =
  qcheck "Rng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Stdx.Rng.create seed in
      let v = Stdx.Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_int_invalid () =
  let rng = Stdx.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stdx.Rng.int rng 0))

let test_rng_int_covers () =
  let rng = Stdx.Rng.create 11 in
  let seen = Array.make 6 false in
  for _ = 1 to 1000 do
    seen.(Stdx.Rng.int rng 6) <- true
  done;
  check Alcotest.bool "all values of [0,6) hit in 1000 draws" true
    (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Stdx.Rng.create 2 in
  for _ = 1 to 1000 do
    let x = Stdx.Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_bool_balanced () =
  let rng = Stdx.Rng.create 23 in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Stdx.Rng.bool rng then incr heads
  done;
  check Alcotest.bool "roughly fair" true (!heads > 4500 && !heads < 5500)

let test_shuffle_permutation =
  qcheck "shuffle is a permutation"
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let rng = Stdx.Rng.create seed in
      let a = Array.of_list xs in
      Stdx.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_sample_without_replacement =
  qcheck "sample w/o replacement: distinct, in range, right size"
    QCheck.(triple small_int (int_range 0 20) (int_range 20 60))
    (fun (seed, k, n) ->
      let rng = Stdx.Rng.create seed in
      let s = Stdx.Rng.sample_without_replacement rng k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun v -> v >= 0 && v < n) s)

let test_sample_with_replacement =
  qcheck "sample w/ replacement: in range, right size"
    QCheck.(triple small_int (int_range 0 50) (int_range 1 20))
    (fun (seed, k, n) ->
      let rng = Stdx.Rng.create seed in
      let s = Stdx.Rng.sample_with_replacement rng k n in
      List.length s = k && List.for_all (fun v -> v >= 0 && v < n) s)

(* Rng.int as it was first written: a plain rejection loop that divides
   twice per draw. The production version takes shortcuts (no threshold
   division below [2^61 - bound], a mask for powers of two) that must
   return the same values and consume the same draws. *)
let reference_int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    let range = 1 lsl 61 in
    if bound > range then invalid_arg "Rng.int: bound too large";
    let threshold = range - (range mod bound) in
    let rec loop () =
      let r = Int64.to_int (Int64.shift_right_logical (Stdx.Rng.next_int64 t) 3) in
      if r < threshold then r mod bound else loop ()
    in
    loop ()
  end

(* Small bounds, powers of two, and large bounds where rejection is
   frequent: 2^60 + 1 rejects almost half the draws, 3 * 2^59 a quarter. *)
let stream_bounds =
  [ 2; 3; 4; 12; 1 lsl 20; (1 lsl 60) + 1; 3 * (1 lsl 59); (1 lsl 61) - 1;
    1 lsl 61 ]

let test_rng_int_matches_reference =
  qcheck ~count:300 "Rng.int draw-for-draw equals the rejection loop"
    QCheck.(pair int (make Gen.(oneofl stream_bounds)))
    (fun (seed, bound) ->
      let a = Stdx.Rng.create seed and b = Stdx.Rng.create seed in
      List.for_all
        (fun _ -> Stdx.Rng.int a bound = reference_int b bound)
        (List.init 64 Fun.id)
      && Stdx.Rng.next_int64 a = Stdx.Rng.next_int64 b)

(* First 16 draws of each primitive from [create 1], recorded from the
   original boxed-int64 implementation. *)
let golden_next_int64 =
  [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L;
    -846397198931878612L; 3727343498630883515L; -7456765501708208026L;
    8407459800431601144L; 3430088234347965294L; 5808099861970480573L;
    -2172474089950573756L; -8945553099086264698L; -8603295654659979639L;
    -1424582745090185746L; 3723083104817009959L; 2857380782389785691L;
    -8373586259226197282L ]

let golden_bits =
  [ 805036044; 399854393; 470603760; 1024475022; 216959946; 639700946;
    489378569; 199657412; 338075907; 947287188; 553042102; 572964107;
    990820194; 216711958; 166321451; 586334954 ]

let golden_int12 = [ 2; 4; 0; 1; 7; 0; 3; 9; 7; 4; 0; 9; 9; 0; 11; 7 ]

let golden_int_2p60p1 =
  [ 858680770823083336; 1010613881357105940; 465917937328860439;
    1050932475053950143; 428761029293495661; 726012482746310071;
    465385388102126244; 357172597798723211; 190550036826167426;
    1096588888509356105; 416252715427092688; 808747790896537555;
    133562416547197332; 437020312460406259; 214214536184326536;
    1071357408875328624 ]

let golden_bool =
  [ false; true; true; false; true; false; false; false; true; false; false;
    true; false; true; true; false ]

let golden_float =
  [ 0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
    0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
    0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
    0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
    0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
    0x1.179617532576p-1 ]

(* [split] then the child's first draw, sixteen times over. *)
let golden_split =
  [ 6180444375122719049L; -9080572566289094619L; -6539232838908385000L;
    1637721677983765154L; -1147685784756221562L; -6662731487246554934L;
    5310457229632899279L; 3377271897212342752L; 8075154432424573035L;
    1441966503252459110L; 6324061867860415516L; -2220894878700164257L;
    1441851846543767462L; -4417659269007310476L; 185089042473860261L;
    -7250233204132883253L ]

let test_rng_golden () =
  let first16 f =
    let t = Stdx.Rng.create 1 in
    List.init 16 (fun _ -> f t)
  in
  let l = Alcotest.list in
  check (l Alcotest.int64) "next_int64" golden_next_int64
    (first16 Stdx.Rng.next_int64);
  check (l Alcotest.int) "bits" golden_bits (first16 Stdx.Rng.bits);
  check (l Alcotest.int) "int 12" golden_int12
    (first16 (fun t -> Stdx.Rng.int t 12));
  check (l Alcotest.int) "int (2^60 + 1)" golden_int_2p60p1
    (first16 (fun t -> Stdx.Rng.int t ((1 lsl 60) + 1)));
  check (l Alcotest.bool) "bool" golden_bool (first16 Stdx.Rng.bool);
  check (l (Alcotest.float 0.0)) "float" golden_float (first16 Stdx.Rng.float);
  check (l Alcotest.int64) "split" golden_split
    (first16 (fun t -> Stdx.Rng.next_int64 (Stdx.Rng.split t)))

let test_rng_no_allocation () =
  let t = Stdx.Rng.create 9 in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    acc := !acc + Stdx.Rng.int t ((i land 15) + 2) + Stdx.Rng.bits t
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  check Alcotest.bool
    (Printf.sprintf "int/bits allocate nothing (%.0f words)" words)
    true (words < 100.0)

(* ------------------------------------------------------------------ *)
(* Once                                                                 *)
(* ------------------------------------------------------------------ *)

(* Several domains force the same fresh cells in the same order, so the
   first uses race. Every caller of a cell must get one physically equal
   value, whichever build won. *)
let test_once_concurrent () =
  let domains = 4 and cells = 200 in
  let builds = Atomic.make 0 in
  let cell_array =
    Array.init cells (fun i ->
        Stdx.Once.make (fun () ->
            Atomic.incr builds;
            Array.init 512 (fun j -> i + j)))
  in
  let go = Atomic.make false in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            Array.map Stdx.Once.get cell_array))
  in
  Atomic.set go true;
  let seen = List.map Domain.join workers in
  Array.iteri
    (fun i cell ->
      let v = Stdx.Once.get cell in
      check Alcotest.int "built from its own parameters" i v.(0);
      List.iter
        (fun got ->
          if got.(i) != v then
            Alcotest.failf "cell %d: a caller kept a losing build" i)
        seen)
    cell_array;
  let b = Atomic.get builds in
  check Alcotest.bool
    (Printf.sprintf "every cell built, none more than once per domain (%d)" b)
    true
    (b >= cells && b <= cells * domains)

let test_once_exception () =
  let attempts = ref 0 in
  let cell =
    Stdx.Once.make (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first build fails" else !attempts)
  in
  Alcotest.check_raises "build failure propagates"
    (Failure "first build fails") (fun () -> ignore (Stdx.Once.get cell));
  check Alcotest.int "next caller builds again" 2 (Stdx.Once.get cell);
  check Alcotest.int "then the value is kept" 2 (Stdx.Once.get cell);
  check Alcotest.int "two builds in all" 2 !attempts

(* ------------------------------------------------------------------ *)
(* Imath                                                                *)
(* ------------------------------------------------------------------ *)

let test_pow_basics () =
  check Alcotest.int "2^10" 1024 (Stdx.Imath.pow 2 10);
  check Alcotest.int "7^0" 1 (Stdx.Imath.pow 7 0);
  check Alcotest.int "0^0" 1 (Stdx.Imath.pow 0 0);
  check Alcotest.int "0^5" 0 (Stdx.Imath.pow 0 5);
  check Alcotest.int "1^60" 1 (Stdx.Imath.pow 1 60);
  check Alcotest.int "10^10" 10_000_000_000 (Stdx.Imath.pow 10 10)

let test_pow_overflow () =
  Alcotest.check_raises "16^16 overflows 63-bit" (Failure "Imath: integer overflow")
    (fun () -> ignore (Stdx.Imath.pow 16 16))

let test_pow_negative_exponent () =
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Imath.pow: negative exponent") (fun () ->
      ignore (Stdx.Imath.pow 2 (-1)))

let test_ceil_log2 () =
  check Alcotest.int "clog2 1" 0 (Stdx.Imath.ceil_log2 1);
  check Alcotest.int "clog2 2" 1 (Stdx.Imath.ceil_log2 2);
  check Alcotest.int "clog2 3" 2 (Stdx.Imath.ceil_log2 3);
  check Alcotest.int "clog2 1024" 10 (Stdx.Imath.ceil_log2 1024);
  check Alcotest.int "clog2 1025" 11 (Stdx.Imath.ceil_log2 1025)

let test_ceil_log2_prop =
  qcheck "2^(clog2 n) >= n > 2^(clog2 n - 1)"
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let b = Stdx.Imath.ceil_log2 n in
      Stdx.Imath.pow 2 b >= n && (b = 0 || Stdx.Imath.pow 2 (b - 1) < n))

let test_bits_for () =
  check Alcotest.int "bits_for 1 (singleton still 1 bit)" 1 (Stdx.Imath.bits_for 1);
  check Alcotest.int "bits_for 2" 1 (Stdx.Imath.bits_for 2);
  check Alcotest.int "bits_for 3" 2 (Stdx.Imath.bits_for 3);
  check Alcotest.int "bits_for 2304" 12 (Stdx.Imath.bits_for 2304)

let test_ceil_div_prop =
  qcheck "ceil_div a b = ceil(a/b)"
    QCheck.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Stdx.Imath.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

let test_gcd_lcm_prop =
  qcheck "gcd divides both; lcm multiple of both; gcd*lcm = a*b"
    QCheck.(pair (int_range 1 10000) (int_range 1 10000))
    (fun (a, b) ->
      let g = Stdx.Imath.gcd a b and l = Stdx.Imath.lcm a b in
      a mod g = 0 && b mod g = 0 && l mod a = 0 && l mod b = 0 && g * l = a * b)

let test_imod_prop =
  qcheck "imod in [0, m) and congruent"
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 997))
    (fun (a, m) ->
      let r = Stdx.Imath.imod a m in
      r >= 0 && r < m && (a - r) mod m = 0)

let test_is_multiple () =
  check Alcotest.bool "960 | 2880" true (Stdx.Imath.is_multiple 2880 ~of_:960);
  check Alcotest.bool "960 !| 2881" false (Stdx.Imath.is_multiple 2881 ~of_:960)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stdx.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "stddev of constant" 0.0
    (Stdx.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "sample stddev" 1.0
    (Stdx.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stdx.Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stdx.Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "max" 5.0 (Stdx.Stats.percentile 1.0 xs)

let test_stats_percentile_interpolates () =
  check (Alcotest.float 1e-9) "p25 of [0;10]" 2.5
    (Stdx.Stats.percentile 0.25 [ 0.0; 10.0 ])

let test_stats_summary () =
  let s = Stdx.Stats.summarize_ints [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  check Alcotest.int "count" 10 s.Stdx.Stats.count;
  check (Alcotest.float 1e-9) "mean" 5.5 s.Stdx.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stdx.Stats.min;
  check (Alcotest.float 1e-9) "max" 10.0 s.Stdx.Stats.max

let test_stats_histogram () =
  let h = Stdx.Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  check Alcotest.int "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check Alcotest.int "total preserved" 4 (c0 + c1)

let test_stats_fraction () =
  check (Alcotest.float 1e-9) "fraction" 0.5
    (Stdx.Stats.fraction (fun x -> x > 0) [ 1; -1; 2; -2 ]);
  check (Alcotest.float 1e-9) "fraction of empty" 0.0
    (Stdx.Stats.fraction (fun _ -> true) [])

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stdx.Stats.mean []))

(* Regression: the polymorphic compare/min/max used previously ordered
   NaN unpredictably, so a single NaN could silently corrupt percentile,
   min and max. NaN is now rejected up front. *)
let test_stats_nan_rejected () =
  let nan_list = [ 1.0; Float.nan; 3.0 ] in
  let raises name f =
    check Alcotest.bool (name ^ " rejects NaN") true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "mean" (fun () -> Stdx.Stats.mean nan_list);
  raises "stddev" (fun () -> Stdx.Stats.stddev nan_list);
  raises "percentile" (fun () -> Stdx.Stats.percentile 0.5 nan_list);
  raises "summarize" (fun () -> Stdx.Stats.summarize nan_list);
  raises "histogram" (fun () -> Stdx.Stats.histogram ~bins:2 nan_list)

let test_stats_order_with_infinities () =
  (* Float.compare/min/max keep total order on the non-NaN extremes *)
  let xs = [ Float.infinity; -1.0; 0.0; Float.neg_infinity ] in
  let s = Stdx.Stats.summarize xs in
  check Alcotest.bool "min" true (s.Stdx.Stats.min = Float.neg_infinity);
  check Alcotest.bool "max" true (s.Stdx.Stats.max = Float.infinity);
  check (Alcotest.float 1e-9) "median sorts correctly" (-0.5)
    (Stdx.Stats.percentile 0.5 xs)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_pool_map_matches_list_map =
  qcheck "Pool.map = List.map at any jobs count"
    QCheck.(pair (list small_int) (int_range 1 8))
    (fun (xs, jobs) ->
      Stdx.Pool.map ~jobs (fun x -> x * x + 1) xs
      = List.map (fun x -> x * x + 1) xs)

let test_pool_run_in_order () =
  let a = Stdx.Pool.run ~jobs:4 10 (fun i -> i * 3) in
  check (Alcotest.array Alcotest.int) "slot i holds f i"
    (Array.init 10 (fun i -> i * 3))
    a

let test_pool_map_array () =
  let a = Stdx.Pool.map_array ~jobs:3 String.length [| "a"; "bb"; ""; "cccc" |] in
  check (Alcotest.array Alcotest.int) "map_array" [| 1; 2; 0; 4 |] a

let test_pool_empty_and_oversubscribed () =
  check (Alcotest.array Alcotest.int) "n = 0" [||]
    (Stdx.Pool.run ~jobs:4 0 (fun i -> i));
  check (Alcotest.array Alcotest.int) "jobs > n" [| 0; 1 |]
    (Stdx.Pool.run ~jobs:16 2 (fun i -> i))

let test_pool_invalid_args () =
  let raises name f =
    check Alcotest.bool name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "jobs = 0 rejected" (fun () -> Stdx.Pool.run ~jobs:0 3 (fun i -> i));
  raises "negative n rejected" (fun () ->
      Stdx.Pool.run ~jobs:2 (-1) (fun i -> i));
  raises "chunk size 0 rejected" (fun () ->
      Stdx.Pool.exec ~jobs:2 ~schedule:(Stdx.Pool.Chunked 0) 3 (fun i -> i));
  raises "non-finite cost rejected" (fun () ->
      Stdx.Pool.exec
        ~schedule:(Stdx.Pool.Cost_sorted (fun _ -> Float.nan))
        3
        (fun i -> i))

let test_pool_propagates_lowest_failure () =
  (* Several tasks fail; the pool must deterministically re-raise the
     one with the lowest index, regardless of scheduling. *)
  let observed =
    try
      ignore
        (Stdx.Pool.run ~jobs:4 16 (fun i ->
             if i mod 5 = 2 then raise (Boom i) else i));
      None
    with Boom i -> Some i
  in
  check (Alcotest.option Alcotest.int) "lowest failing index wins" (Some 2)
    observed

(* A representative policy zoo: the pseudo-random cost has ties (so the
   index tie-break is exercised), the reversed cost claims the highest
   index first, and the constant cost must degrade to in-order. *)
let pool_schedules =
  [
    Stdx.Pool.In_order;
    Stdx.Pool.Cost_sorted (fun i -> float_of_int ((i * 2654435761) land 0xff));
    Stdx.Pool.Cost_sorted float_of_int;
    Stdx.Pool.Cost_sorted (fun _ -> 1.0);
    Stdx.Pool.Chunked 3;
    Stdx.Pool.Chunked_auto None;
    Stdx.Pool.Chunked_auto (Some (fun i -> float_of_int (1 lsl (i land 7))));
  ]

let test_pool_exec_policy_invariant =
  qcheck "Pool.exec = sequential under every policy and jobs count"
    QCheck.(
      quad (list small_int) (int_range 1 8) (int_range 0 7) (int_range 1 5))
    (fun (xs, jobs, tag, k) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let schedule =
        if tag = 7 then Stdx.Pool.Chunked k else List.nth pool_schedules tag
      in
      Stdx.Pool.exec ~jobs ~schedule n (fun i -> (a.(i) * 7) - i)
      = Array.init n (fun i -> (a.(i) * 7) - i))

let test_pool_policy_error_propagation () =
  (* The reversed-cost policy executes index 15 first and hits Boom 12
     chronologically before Boom 2 — the pool must still re-raise
     Boom 2, the lowest failing index. *)
  List.iter
    (fun schedule ->
      let observed =
        try
          ignore
            (Stdx.Pool.exec ~jobs:4 ~schedule 16 (fun i ->
                 if i mod 5 = 2 then raise (Boom i) else i));
          None
        with Boom i -> Some i
      in
      check
        (Alcotest.option Alcotest.int)
        (Stdx.Pool.schedule_name schedule ^ ": lowest failing index wins")
        (Some 2) observed)
    pool_schedules

let test_pool_stats () =
  let seen = ref None in
  let a =
    Stdx.Pool.exec ~jobs:3
      ~schedule:(Stdx.Pool.Chunked 2)
      ~stats:(fun s -> seen := Some s)
      10
      (fun i -> i)
  in
  check (Alcotest.array Alcotest.int) "results unaffected by stats"
    (Array.init 10 Fun.id) a;
  (match !seen with
  | None -> Alcotest.fail "stats callback not invoked"
  | Some s ->
    check Alcotest.int "actual jobs" 3 s.Stdx.Pool.actual_jobs;
    check Alcotest.string "policy name" "chunk:2" s.Stdx.Pool.policy;
    check Alcotest.int "one busy slot per worker" 3
      (Array.length s.Stdx.Pool.worker_busy_s);
    check Alcotest.int "every task claimed exactly once" 10
      (Array.fold_left ( + ) 0 s.Stdx.Pool.worker_tasks);
    check Alcotest.bool "busy seconds non-negative" true
      (Array.for_all (fun b -> b >= 0.0) s.Stdx.Pool.worker_busy_s));
  (* jobs are clamped to the task count, and the stats say so *)
  let clamped = ref None in
  ignore
    (Stdx.Pool.exec ~jobs:8 ~stats:(fun s -> clamped := Some s) 2 (fun i -> i));
  (match !clamped with
  | None -> Alcotest.fail "stats callback not invoked"
  | Some s -> check Alcotest.int "jobs clamped to n" 2 s.Stdx.Pool.actual_jobs);
  (* the callback still fires when a task fails — before the re-raise *)
  let failed = ref None in
  (try
     ignore
       (Stdx.Pool.exec ~jobs:2
          ~stats:(fun s -> failed := Some s)
          4
          (fun i -> if i = 1 then raise (Boom i) else i))
   with Boom _ -> ());
  match !failed with
  | None -> Alcotest.fail "stats callback skipped on failure"
  | Some s ->
    check Alcotest.int "failing grid fully drained" 4
      (Array.fold_left ( + ) 0 s.Stdx.Pool.worker_tasks)

let test_pool_schedule_names () =
  check Alcotest.string "inorder" "inorder"
    (Stdx.Pool.schedule_name Stdx.Pool.In_order);
  check Alcotest.string "cost" "cost"
    (Stdx.Pool.schedule_name (Stdx.Pool.Cost_sorted float_of_int));
  check Alcotest.string "chunk" "chunk:7"
    (Stdx.Pool.schedule_name (Stdx.Pool.Chunked 7));
  check Alcotest.string "chunk:auto" "chunk:auto"
    (Stdx.Pool.schedule_name (Stdx.Pool.Chunked_auto None))

let test_pool_auto_chunk () =
  (* No cost model: every chunk "fits", so the size is the cap — n over
     4 claims per worker, never above 64 or below 1. *)
  check Alcotest.int "uniform hits the cap" 64
    (Stdx.Pool.auto_chunk ~jobs:4 4096);
  check Alcotest.int "cap is n/(4*jobs)" 8 (Stdx.Pool.auto_chunk ~jobs:4 128);
  check Alcotest.int "small grids degrade to 1" 1
    (Stdx.Pool.auto_chunk ~jobs:4 7);
  check Alcotest.int "empty grid" 1 (Stdx.Pool.auto_chunk ~jobs:4 0);
  (* A flat cost model is the same as no cost model. *)
  check Alcotest.int "constant costs hit the cap" 8
    (Stdx.Pool.auto_chunk ~jobs:4 ~cost:(fun _ -> 3.0) 128);
  (* One spike worth most of the grid: any chunk containing it blows the
     per-worker budget, so the size collapses to 1 — the spike can no
     longer be bundled with (and stall) other tasks. *)
  let spiked i = if i = 120 then 1000.0 else 1.0 in
  check Alcotest.int "spiked tail forces chunk 1" 1
    (Stdx.Pool.auto_chunk ~jobs:4 ~cost:spiked 128);
  (* Mild skew lands between the extremes. *)
  let mild i = float_of_int (1 + (i land 3)) in
  let k = Stdx.Pool.auto_chunk ~jobs:4 ~cost:mild 128 in
  check Alcotest.bool "mild skew stays in [1, cap]" true (k >= 1 && k <= 8);
  check Alcotest.bool "non-finite costs rejected" true
    (try
       ignore (Stdx.Pool.auto_chunk ~jobs:2 ~cost:(fun _ -> Float.nan) 16);
       false
     with Invalid_argument _ -> true);
  (* The resolved size rides the stats record. *)
  let seen = ref 0 in
  ignore
    (Stdx.Pool.exec ~jobs:4
       ~schedule:(Stdx.Pool.Chunked_auto (Some spiked))
       ~stats:(fun s -> seen := s.Stdx.Pool.chunk)
       128
       (fun i -> i));
  check Alcotest.int "stats carry the resolved chunk" 1 !seen;
  ignore
    (Stdx.Pool.exec ~jobs:4
       ~schedule:(Stdx.Pool.Chunked_auto None)
       ~stats:(fun s -> seen := s.Stdx.Pool.chunk)
       128
       (fun i -> i));
  check Alcotest.int "uniform auto chunk in stats" 8 !seen

let test_pool_aliases_carry_schedule () =
  check
    (Alcotest.list Alcotest.int)
    "map under chunked"
    [ 2; 4; 6 ]
    (Stdx.Pool.map ~jobs:2 ~schedule:(Stdx.Pool.Chunked 2) (fun x -> 2 * x)
       [ 1; 2; 3 ]);
  check (Alcotest.array Alcotest.int) "map_array under cost-sorted"
    [| 1; 2; 0; 4 |]
    (Stdx.Pool.map_array ~jobs:3
       ~schedule:(Stdx.Pool.Cost_sorted (fun i -> float_of_int (10 - i)))
       String.length
       [| "a"; "bb"; ""; "cccc" |])

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Stdx.Table.create [ "name"; "value" ] in
  Stdx.Table.add_row t [ "alpha"; "1" ];
  Stdx.Table.add_rule t;
  Stdx.Table.add_row t [ "beta"; "22" ];
  let s = Stdx.Table.to_string t in
  check Alcotest.bool "contains header" true
    (Astring.String.is_infix ~affix:"name" s);
  check Alcotest.bool "contains rows" true
    (Astring.String.is_infix ~affix:"beta" s)

let test_table_width_mismatch () =
  let t = Stdx.Table.create [ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Stdx.Table.add_row t [ "only-one" ])

let test_table_alignment () =
  let t = Stdx.Table.create [ "k"; "v" ] in
  Stdx.Table.add_row t [ "x"; "1" ];
  Stdx.Table.add_row t [ "longer"; "22" ];
  let lines = String.split_on_char '\n' (Stdx.Table.to_string t) in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      lines
  in
  check Alcotest.bool "all lines same width" true
    (match widths with [] -> false | w :: ws -> List.for_all (fun x -> x = w) ws)

let test_table_cells () =
  check Alcotest.string "int cell" "42" (Stdx.Table.cell_int 42);
  check Alcotest.string "float cell" "3.14" (Stdx.Table.cell_float 3.14159);
  check Alcotest.string "bool cell" "yes" (Stdx.Table.cell_bool true)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

(* RFC 8259 forbids raw control characters inside strings; the parser
   rejects them at their byte, and accepts them escaped. *)
let test_json_rejects_raw_control () =
  List.iter
    (fun (label, text, byte) ->
      match Stdx.Json.parse text with
      | exception Stdx.Json.Parse_error msg ->
        check Alcotest.string (label ^ ": located error")
          (Printf.sprintf "byte %d:" byte)
          (String.sub msg 0 (String.length (Printf.sprintf "byte %d:" byte)))
      | _ -> Alcotest.failf "%s: raw control character accepted" label)
    [
      ("tab", "\"a\tb\"", 2);
      ("newline in a key", "{\"k\n\":1}", 3);
      ("0x01", "[\"\001\"]", 2);
    ];
  check Alcotest.bool "escaped forms parse" true
    (Stdx.Json.parse {|"a\tb\u0001"|} = Stdx.Json.String "a\tb\001")

let suite =
  [
    ( "stdx.rng",
      [
        case "determinism" test_rng_determinism;
        case "seed sensitivity" test_rng_seed_sensitivity;
        case "copy independence" test_rng_copy_independent;
        case "split diverges" test_rng_split_diverges;
        test_rng_int_bounds;
        case "int invalid bound" test_rng_int_invalid;
        case "int covers range" test_rng_int_covers;
        case "float range" test_rng_float_range;
        case "bool balanced" test_rng_bool_balanced;
        test_shuffle_permutation;
        test_sample_without_replacement;
        test_sample_with_replacement;
        test_rng_int_matches_reference;
        case "golden first draws" test_rng_golden;
        case "draws do not allocate" test_rng_no_allocation;
        test_rng_split_into_skip;
        case "split_into/skip do not allocate"
          test_rng_split_into_no_allocation;
      ] );
    ( "stdx.once",
      [
        case "concurrent first use shares one value" test_once_concurrent;
        case "failed build leaves the cell empty" test_once_exception;
      ] );
    ( "stdx.imath",
      [
        case "pow basics" test_pow_basics;
        case "pow overflow" test_pow_overflow;
        case "pow negative" test_pow_negative_exponent;
        case "ceil_log2 values" test_ceil_log2;
        test_ceil_log2_prop;
        case "bits_for" test_bits_for;
        test_ceil_div_prop;
        test_gcd_lcm_prop;
        test_imod_prop;
        case "is_multiple" test_is_multiple;
      ] );
    ( "stdx.stats",
      [
        case "mean" test_stats_mean;
        case "stddev" test_stats_stddev;
        case "percentile" test_stats_percentile;
        case "percentile interpolation" test_stats_percentile_interpolates;
        case "summary" test_stats_summary;
        case "histogram" test_stats_histogram;
        case "fraction" test_stats_fraction;
        case "empty raises" test_stats_empty_raises;
        case "NaN rejected" test_stats_nan_rejected;
        case "total order with infinities" test_stats_order_with_infinities;
      ] );
    ( "stdx.pool",
      [
        test_pool_map_matches_list_map;
        case "results land in index order" test_pool_run_in_order;
        case "map_array" test_pool_map_array;
        case "empty and oversubscribed" test_pool_empty_and_oversubscribed;
        case "invalid arguments" test_pool_invalid_args;
        case "lowest failing index re-raised" test_pool_propagates_lowest_failure;
        test_pool_exec_policy_invariant;
        case "lowest failure wins under every policy"
          test_pool_policy_error_propagation;
        case "stats report the execution" test_pool_stats;
        case "schedule names" test_pool_schedule_names;
        case "auto-tuned chunk size" test_pool_auto_chunk;
        case "aliases carry the schedule" test_pool_aliases_carry_schedule;
      ] );
    ( "stdx.json",
      [ case "raw control characters rejected" test_json_rejects_raw_control ]
    );
    ( "stdx.table",
      [
        case "renders" test_table_renders;
        case "width mismatch" test_table_width_mismatch;
        case "alignment" test_table_alignment;
        case "cells" test_table_cells;
      ] );
  ]
