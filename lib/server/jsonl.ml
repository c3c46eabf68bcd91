(* The JSON codec lives in the runtime library, below the harness that
   writes the journal; this alias keeps the serve-facing name. *)
include Speccc_runtime.Jsonl
