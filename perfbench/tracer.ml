(* In-memory spans recorded by the benchmark around its calls into the
   program's public functions. Spans nest (each records the span that
   was open when it started), stay in memory while the run measures,
   and are written out only at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  count : int;  (** operations the span covers, for per-op rates *)
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable stack : int list;
}

let create () = { spans = []; next = 0; stack = [] }
let now = Unix.gettimeofday

let with_ ?(count = 1) t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let s = { id; parent; name; count; t0 = now (); t1 = 0.0 } in
  t.stack <- id :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.t1 <- now ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans)
    f

let duration s = Float.max 0.0 (s.t1 -. s.t0)
let named t name = List.rev (List.filter (fun s -> s.name = name) t.spans)

(* Seconds per operation of every span called [name], oldest first. *)
let per_op t name =
  List.map (fun s -> duration s /. float_of_int (max 1 s.count)) (named t name)

(* Run [f (prepare ())] in spans named [name], each covering [count]
   operations, until [budget_s] has passed (at least three times), and
   return the median seconds per operation. [prepare] runs outside the
   span, so fresh kernels and detectors are not timed. *)
let repeat_with tr name ~budget_s ~count ~prepare f =
  let t0 = now () in
  let rec go k =
    if k < 3 || now () -. t0 < budget_s then begin
      let x = prepare () in
      with_ ~count tr name (fun () -> f x);
      go (k + 1)
    end
  in
  go 0;
  let a = Array.of_list (List.sort Float.compare (per_op tr name)) in
  a.(Array.length a / 2)

let repeat tr name ~budget_s ~count f =
  repeat_with tr name ~budget_s ~count ~prepare:ignore f

(* Self time: a span's duration minus the part its direct children
   cover. Children of one span run one after another, so their durations
   add up to the covered part. *)
let write t path =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.parent) in
      Hashtbl.replace covered s.parent (c +. duration s))
    t.spans;
  let self_time s =
    Float.max 0.0
      (duration s -. Option.value ~default:0.0 (Hashtbl.find_opt covered s.id))
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"count\":%d,\
             \"start_s\":%.9f,\"dur_s\":%.9f,\"self_s\":%.9f}\n"
            s.id s.parent (Stdx.Json.escape s.name) s.count s.t0 (duration s)
            (self_time s))
        (List.rev t.spans))
