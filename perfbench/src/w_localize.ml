(* localize: seeded inconsistent LTL documents of 8 to 16 requirements,
   each with one planted conflicting pair, localized with
   [Localize.run] over a [Pipeline.check_formulas] checker.  Caches
   stay warm across documents, as in one session over one project's
   vocabulary. *)

open Speccc_synthesis
open Speccc_core

type localized = {
  result : Localize.result option;
  inconclusive : int;  (** subset checks that answered neither way *)
}

let localize ~trace options formulas =
  let inconclusive = ref 0 in
  let consistent verdict =
    match verdict with
    | Realizability.Consistent -> true
    | Realizability.Inconsistent -> false
    | Realizability.Inconclusive _ ->
      incr inconclusive;
      false
  in
  let check subset =
    if trace then
      Span.with_span "localize.check" (fun () ->
          consistent (snd (Replay.check_formulas options subset)).Replay.verdict)
    else
      consistent
        (snd (Pipeline.check_formulas ~options subset)).Realizability.verdict
  in
  let result = Span.with_span "localize" (fun () -> Localize.run ~check formulas) in
  { result; inconclusive = !inconclusive }

(* The planted pair is the answer: the later formula is the culprit and
   the earlier one its only partner.  A localization that met an
   inconclusive subset check is a failed operation, not a wrong one. *)
let judge ~what (doc : Gen.localize_doc) l =
  if l.inconclusive > 0 then Answer.Unknown
  else
    match l.result with
    | None -> Answer.wrong "%s: localized nothing in an inconsistent document" what
    | Some r ->
      if r.Localize.culprit <> doc.Gen.culprit || r.Localize.partners <> [ doc.Gen.partner ]
      then
        Answer.wrong "%s: culprit %d partners [%s], planted %d with %d" what
          r.Localize.culprit
          (String.concat "," (List.map string_of_int r.Localize.partners))
          doc.Gen.culprit doc.Gen.partner
      else Answer.Definite

(* The heap peak is read after 8 blocks of documents, about a fifth of
   what a 25 s run localizes. *)
let heap_ops = 72

let run ~seed ~seconds ~trace =
  let options = Pipeline.default_options () in
  (* inputs are generated as the run goes; set-up draws and parses the
     first block of documents *)
  let setup () =
    let next = Gen.localize_stream (Gen.rng ~seed ~stream:2) in
    let first =
      List.init (List.length Gen.localize_sizes) (fun _ ->
          let d = next () in
          (d, List.map Speccc_logic.Ltl_parse.formula d.Gen.formulas))
    in
    (next, first)
  in
  let (next, first), setup_before = Run.setups ~batch:400 ~times:8 ~teardown:ignore ~setup () in
  let queue = ref first in
  let next_doc () =
    match !queue with
    | d :: tl ->
      queue := tl;
      d
    | [] ->
      let d = next () in
      (d, List.map Speccc_logic.Ltl_parse.formula d.Gen.formulas)
  in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let heap = ref 0. and sizes = ref [] and props = ref [] in
  let untraced = ref (0, 0.) and traced = ref (0, 0.) in
  let start = Run.counters () in
  let window = Run.window () in
  let one ~traced_op doc formulas =
    incr attempted;
    Span.set_enabled traced_op;
    let l, dt =
      Run.time (fun () ->
          Span.with_op !attempted (fun () -> localize ~trace:traced_op options formulas))
    in
    Span.set_enabled false;
    (match judge ~what:(Printf.sprintf "document %d" !attempted) doc l with
     | Answer.Definite -> ()
     | Answer.Unknown -> incr failed);
    if traced_op then Run.add_op traced dt
    else begin
      Run.add_op untraced dt;
      latencies := dt :: !latencies
    end;
    if !attempted = heap_ops then heap := Run.heap_peak_mb ();
    sizes := List.length formulas :: !sizes;
    props := doc.Gen.props :: !props;
    l.result
  in
  let docs = ref 0 in
  while Run.running window ~seconds ~ops:!attempted ~heap_ops do
    let doc, formulas = next_doc () in
    incr docs;
    if not trace then ignore (one ~traced_op:false doc formulas)
    else begin
      (* a traced run localizes every document twice, untraced and
         traced, the traced one first on every other document so that
         neither side gets the warmer caches; the two must agree *)
      let traced_first = !docs mod 2 = 0 in
      let a = one ~traced_op:traced_first doc formulas in
      let b = one ~traced_op:(not traced_first) doc formulas in
      if a <> b then
        Answer.wrong "document %d: the traced localization disagrees with the untraced one" !docs
    end
  done;
  let window_s = Run.elapsed window in
  let layers =
    if not trace then []
    else
      Run.span_layers ~ops:(fst !traced) (Span.all ())
      @ Run.counter_layers ~ops:!attempted (Run.accumulate Run.zero start (Run.counters ()))
      @ [ ("trace.throughput_ratio", Run.throughput_ratio ~untraced:!untraced ~traced:!traced) ]
  in
  let setup_after = Run.setups_after ~batch:400 ~times:7 ~teardown:ignore ~setup () in
  {
    Run.setup_s = setup_before @ setup_after;
    block = None;
    done_at = [];
    latencies = !latencies;
    window_s;
    heap_peak_mb = !heap;
    attempted = !attempted;
    failed = !failed;
    notes = [ ("requirements", Run.range !sizes); ("propositions", Run.range !props) ];
    layers;
  }
