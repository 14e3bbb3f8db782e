(* The SplitMix64 state lives unboxed in an 8-byte buffer: reading and
   writing it with [get/set_int64_ne] and inlining [mix] lets the native
   compiler keep every intermediate in registers, so a draw allocates
   nothing (a [mutable s : int64] field would box on every store). *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (next_int64 t)

(* [next_int64] inlines here, so [split_into] never boxes the draw;
   [skip] advances the state without computing an output at all. *)
let split_into t dst = Bytes.set_int64_ne dst 0 (next_int64 t)

let skip t =
  Bytes.set_int64_ne t 0 (Int64.add (Bytes.get_int64_ne t 0) golden_gamma)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

(* Top 61 bits of the next output: a non-negative native int. *)
let[@inline] draw61 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 3)

let range = 1 lsl 61

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound = 1 then 0
  else begin
    (* Rejection sampling over 61 bits (OCaml native ints are 63-bit, so
       1 lsl 61 is still a positive int) to avoid modulo bias: a draw [r]
       is accepted iff [r < threshold = range - (range mod bound)]. Since
       [range mod bound < bound], every [r < range - bound] is accepted
       without computing the threshold, and a power-of-two bound divides
       [range], so it accepts every draw and [r mod bound] is a mask.
       Both shortcuts return exactly what the plain loop would. *)
    if bound > range then invalid_arg "Rng.int: bound too large";
    if bound land (bound - 1) = 0 then draw61 t land (bound - 1)
    else begin
      let r = ref (draw61 t) in
      if !r >= range - bound then begin
        let threshold = range - (range mod bound) in
        while !r >= threshold do
          r := draw61 t
        done
      end;
      !r mod bound
    end
  end

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0 (* 2^53 *)

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: O(k) expected time, no O(n) allocation. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

let sample_with_replacement t k n =
  if k < 0 then invalid_arg "Rng.sample_with_replacement";
  List.init k (fun _ -> int t n)
