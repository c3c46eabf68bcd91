(* Known-answer checks.  Every generated input carries the verdict it
   must get; a definite verdict that differs aborts the run, while an
   inconclusive one only counts as a failed operation. *)

open Speccc_synthesis

exception Wrong_answer of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong_answer s)) fmt

type klass = Consistent | Inconsistent

let klass_name = function
  | Consistent -> "consistent"
  | Inconsistent -> "inconsistent"

type outcome = Definite | Unknown

let verdict ~what ~expected (verdict : Realizability.verdict) =
  match expected, verdict with
  | Consistent, Realizability.Consistent
  | Inconsistent, Realizability.Inconsistent ->
    Definite
  | _, Realizability.Inconclusive _ -> Unknown
  | Consistent, Realizability.Inconsistent ->
    wrong "%s: expected consistent, got inconsistent" what
  | Inconsistent, Realizability.Consistent ->
    wrong "%s: expected inconsistent, got consistent" what
