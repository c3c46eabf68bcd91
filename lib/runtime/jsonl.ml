(* A small, total JSON reader/writer for the serve-mode protocol, the
   batch journal and the verdict store.

   The repo deliberately carries no JSON dependency; the server parses
   *client* input, which deserves a real recursive-descent parser:
   every malformed request must come back as a typed [bad_request]
   response, never an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

type cursor = { text : string; mutable pos : int }

let error cursor message =
  raise (Bad (Printf.sprintf "at byte %d: %s" cursor.pos message))

let peek cursor =
  if cursor.pos < String.length cursor.text then Some cursor.text.[cursor.pos]
  else None

let advance cursor = cursor.pos <- cursor.pos + 1

let rec skip_ws cursor =
  match peek cursor with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cursor;
    skip_ws cursor
  | Some _ | None -> ()

let expect cursor c =
  match peek cursor with
  | Some got when got = c -> advance cursor
  | Some got -> error cursor (Printf.sprintf "expected %C, got %C" c got)
  | None -> error cursor (Printf.sprintf "expected %C, got end of input" c)

let literal cursor word value =
  let n = String.length word in
  if
    cursor.pos + n <= String.length cursor.text
    && String.sub cursor.text cursor.pos n = word
  then begin
    cursor.pos <- cursor.pos + n;
    value
  end
  else error cursor (Printf.sprintf "expected %s" word)

let parse_string cursor =
  expect cursor '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cursor with
    | None -> error cursor "unterminated string"
    | Some '"' -> advance cursor
    | Some '\\' ->
      advance cursor;
      (match peek cursor with
       | None -> error cursor "unterminated escape"
       | Some c ->
         advance cursor;
         (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if cursor.pos + 4 > String.length cursor.text then
              error cursor "truncated \\u escape";
            let hex = String.sub cursor.text cursor.pos 4 in
            cursor.pos <- cursor.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
             | None -> error cursor "bad \\u escape"
             | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
             | Some code when code < 0x800 ->
               (* 2-byte UTF-8 *)
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             | Some code ->
               (* 3-byte UTF-8 (surrogate pairs land here as-is) *)
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf
                 (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
          | c -> error cursor (Printf.sprintf "bad escape \\%C" c));
         go ())
    | Some c ->
      advance cursor;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cursor =
  let start = cursor.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cursor with Some c -> numeric c | None -> false) do
    advance cursor
  done;
  let s = String.sub cursor.text start (cursor.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error cursor (Printf.sprintf "bad number %S" s)

let rec parse_value cursor =
  skip_ws cursor;
  match peek cursor with
  | None -> error cursor "unexpected end of input"
  | Some '"' -> Str (parse_string cursor)
  | Some '{' -> parse_object cursor
  | Some '[' -> parse_array cursor
  | Some 't' -> literal cursor "true" (Bool true)
  | Some 'f' -> literal cursor "false" (Bool false)
  | Some 'n' -> literal cursor "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number cursor)
  | Some c -> error cursor (Printf.sprintf "unexpected %C" c)

and parse_object cursor =
  expect cursor '{';
  skip_ws cursor;
  if peek cursor = Some '}' then begin
    advance cursor;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec member () =
      skip_ws cursor;
      let key = parse_string cursor in
      skip_ws cursor;
      expect cursor ':';
      let value = parse_value cursor in
      fields := (key, value) :: !fields;
      skip_ws cursor;
      match peek cursor with
      | Some ',' ->
        advance cursor;
        member ()
      | Some '}' -> advance cursor
      | _ -> error cursor "expected ',' or '}'"
    in
    member ();
    Obj (List.rev !fields)
  end

and parse_array cursor =
  expect cursor '[';
  skip_ws cursor;
  if peek cursor = Some ']' then begin
    advance cursor;
    Arr []
  end
  else begin
    let items = ref [] in
    let rec element () =
      let value = parse_value cursor in
      items := value :: !items;
      skip_ws cursor;
      match peek cursor with
      | Some ',' ->
        advance cursor;
        element ()
      | Some ']' -> advance cursor
      | _ -> error cursor "expected ',' or ']'"
    in
    element ();
    Arr (List.rev !items)
  end

let parse text =
  let cursor = { text; pos = 0 } in
  match parse_value cursor with
  | value ->
    skip_ws cursor;
    if cursor.pos < String.length text then
      Error (Printf.sprintf "trailing garbage at byte %d" cursor.pos)
    else Ok value
  | exception Bad message -> Error message

(* ---------- printing ---------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> number_to_string f
  | Str s -> "\"" ^ escape s ^ "\""
  | Arr items -> "[" ^ String.concat "," (List.map to_string items) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> "\"" ^ escape k ^ "\":" ^ to_string v)
           fields)
    ^ "}"

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let int_ = function Num f -> Some (int_of_float f) | _ -> None

let str_member key json = Option.bind (member key json) str
let num_member key json = Option.bind (member key json) num
let int_member key json = Option.bind (member key json) int_
