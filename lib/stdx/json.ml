type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "byte %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char b '/'; go ()
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_string b "?"
          | None -> fail "bad \\u escape");
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 ->
        (* RFC 8259: control characters must be escaped in strings. *)
        fail
          (Printf.sprintf "raw control character 0x%02x in string"
             (Char.code c))
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some v -> Int v
      | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> String (string_ ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Object []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_ () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | _ ->
            expect '}';
            List.rev ((k, v) :: acc)
        in
        Object (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Array []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | _ ->
            expect ']';
            List.rev (v :: acc)
        in
        Array (elements [])
      end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

let parse_result s =
  match parse s with v -> Ok v | exception Parse_error msg -> Error msg

let field obj name =
  match obj with
  | Object kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Parse_error (Printf.sprintf "missing field %S" name)))
  | _ -> raise (Parse_error "expected an object")

let field_opt obj name =
  match obj with
  | Object kvs -> List.assoc_opt name kvs
  | _ -> raise (Parse_error "expected an object")

let to_int name = function
  | Int v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected int" name))

let to_string name = function
  | String v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected string" name))

let to_float name = function
  | Float v -> v
  | Int v -> float_of_int v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected number" name))

let to_bool name = function
  | Bool v -> v
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected bool" name))

let to_opt_int name = function
  | Null -> None
  | Int v -> Some v
  | _ ->
    raise (Parse_error (Printf.sprintf "field %S: expected int or null" name))

let to_ints name = function
  | Array vs -> List.map (to_int name) vs
  | _ ->
    raise (Parse_error (Printf.sprintf "field %S: expected int array" name))

let to_list name = function
  | Array vs -> vs
  | _ -> raise (Parse_error (Printf.sprintf "field %S: expected array" name))
