type 's kernel = {
  pulls : self:int -> rng:Stdx.Rng.t -> 's -> int array -> int;
  transition :
    self:int ->
    rng:Stdx.Rng.t ->
    own:'s ->
    targets:int array ->
    responses:'s array ->
    's;
}

type 's t = {
  name : string;
  n : int;
  f : int;
  c : int;
  state_bits : int;
  deterministic : bool;
  equal_state : 's -> 's -> bool;
  pp_state : Format.formatter -> 's -> unit;
  random_state : Stdx.Rng.t -> 's;
  pull_budget : int;
  fresh_kernel : unit -> 's kernel;
  output : self:int -> 's -> int;
}

let validate_exn t =
  if t.n < 1 then invalid_arg "Pull_spec: n < 1";
  if t.f < 0 then invalid_arg "Pull_spec: f < 0";
  if t.c < 1 then invalid_arg "Pull_spec: c < 1";
  if t.state_bits < 1 then invalid_arg "Pull_spec: state_bits < 1";
  if t.pull_budget < 0 then invalid_arg "Pull_spec: pull_budget < 0";
  t
