(** Minimal JSON: the one codec for the serve-mode JSONL protocol,
    the batch journal and the verdict store's payload lines.

    The repo carries no JSON dependency.  The server parses {e client}
    input, so this is a real recursive-descent parser: malformed input
    becomes [Error _] (for the server, a typed [bad_request]
    response), never an exception. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error.
    [\u] escapes are decoded to UTF-8 (surrogate pairs are kept as two
    3-byte sequences — good enough for a line protocol). *)

val to_string : t -> string
(** Compact single-line rendering — safe to embed in JSONL. *)

val escape : string -> string
(** JSON string-body escaping (no surrounding quotes). *)

(** {2 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val int_ : t -> int option
val str_member : string -> t -> string option
val num_member : string -> t -> float option
val int_member : string -> t -> int option
