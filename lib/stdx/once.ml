type 'a t = { build : unit -> 'a; cell : 'a option Atomic.t }

let make build = { build; cell = Atomic.make None }

let get t =
  match Atomic.get t.cell with
  | Some v -> v
  | None -> (
    let v = Some (t.build ()) in
    if Atomic.compare_and_set t.cell None v then Option.get v
    else
      (* Another domain published first: share its value. *)
      match Atomic.get t.cell with Some v -> v | None -> assert false)
