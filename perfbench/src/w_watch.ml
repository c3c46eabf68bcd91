(* watch_edits: one live [Watch] session over a 12-16 requirement
   document, driven by a seeded script of edit, revert, insert and
   delete steps; each step is followed by [Watch.check]. *)

open Speccc_core
open Speccc_synthesis

(* Every [sample]-th step is compared with a cold check of the same
   document. *)
let sample = 32

let document items =
  List.mapi (fun line (id, text) -> { Document.id; text; line = line + 1 }) items

let apply session = function
  | Gen.Edit (id, text) | Gen.Revert (id, text) -> Watch.edit session ~id ~text
  | Gen.Insert (at, id, text) -> Watch.insert ~at session ~id ~text
  | Gen.Delete id -> Watch.delete session ~id

(* The heap peak is read after 300 blocks of steps, about a quarter of
   what a 25 s run takes. *)
let heap_ops = 3000

(* The tail and the throughput are medians over blocks of 1000 steps
   (100 blocks of the script; the tail is p99 in each): over a whole
   run of ~12000 steps the tail was p99.92, which a host stall or two in
   a run decided. *)
let block = 1000

(* A first check's cost depends on the starting document (medians of
   3.5 to 6.2 ms over four seeds), so the set-ups go through seeded
   starting documents of their own, [setups] before the window, the last
   of them the run's own document, and as many after it, and their
   median does not hang on the run's document. *)
let setups = 31

let run ~seed ~seconds ~trace =
  let count = ref 0 in
  let setup () =
    Speccc_cache.Cache.reset ();
    incr count;
    let rng =
      if !count = setups then Gen.rng ~seed ~stream:4 else Gen.sub_rng ~seed ~stream:4 !count
    in
    let initial = Gen.watch_initial rng in
    let session = Watch.create (document initial) in
    ignore (Watch.check session);
    (session, Gen.watch_script rng initial)
  in
  let (session, next), setup_before = Run.setups ~times:setups ~teardown:ignore ~setup () in
  let latencies = ref [] and done_at = ref [] and attempted = ref 0 and failed = ref 0 in
  let heap = ref 0. and sizes = ref [] in
  let untraced = ref (0, 0.) and traced = ref (0, 0.) in
  let reuse = Hashtbl.create 8 and sampled = ref [] in
  let add name v =
    Hashtbl.replace reuse name (v +. Option.value (Hashtbl.find_opt reuse name) ~default:0.)
  in
  let start = Run.counters () in
  let window = Run.window () in
  while Run.running window ~seconds ~ops:!attempted ~heap_ops do
    let step, expected_doc = next () in
    incr attempted;
    (* a traced run traces every other step *)
    let traced_op = trace && !attempted mod 2 = 0 in
    let what = Printf.sprintf "step %d (%s)" !attempted (Gen.digest_step step) in
    Span.set_enabled traced_op;
    let checked, dt =
      Run.time (fun () ->
          Span.with_op !attempted (fun () ->
              (match Span.with_span "watch.edit" (fun () -> apply session step) with
               | Ok () -> ()
               | Error e -> Answer.wrong "%s: %s" what e);
              Span.with_span "watch.check" (fun () -> Watch.check session)))
    in
    Span.set_enabled false;
    if traced_op then Run.add_op traced dt
    else begin
      Run.add_op untraced dt;
      latencies := dt :: !latencies;
      done_at := Run.elapsed window :: !done_at
    end;
    if !attempted = heap_ops then heap := Run.heap_peak_mb ();
    sizes := List.length expected_doc :: !sizes;
    if Watch.document session <> document expected_doc then
      Answer.wrong "%s: the session's document differs from the script's" what;
    (* every document the script reaches is consistent *)
    (match
       Answer.verdict ~what ~expected:Answer.Consistent
         checked.Watch.outcome.Pipeline.report.Realizability.verdict
     with
     | Answer.Definite -> ()
     | Answer.Unknown -> incr failed);
    let r = checked.Watch.reuse in
    add "watch.parse_hits" (float_of_int r.Watch.parse_hits);
    add "watch.blocks_reused" (float_of_int r.Watch.blocks_reused);
    add "watch.solo_reused" (float_of_int r.Watch.solo_reused);
    add "watch.verdict_hits" (if r.Watch.verdict_cached then 1. else 0.);
    add "watch.invalidated" (float_of_int r.Watch.invalidated);
    (* a check answered from the verdict LRU reports the stage times of
       the check it replays, so only fresh ones count *)
    if not r.Watch.verdict_cached then begin
      let t = checked.Watch.outcome.Pipeline.times in
      add "translate.busy_s" t.Pipeline.translation_s;
      add "timeabs.busy_s" t.Pipeline.abstraction_s;
      add "partition.busy_s" t.Pipeline.partition_s;
      add "realizability.check_s" t.Pipeline.synthesis_s
    end;
    if !attempted mod sample = 0 then
      sampled := (what, Watch.document session, Watch.fingerprint checked) :: !sampled
  done;
  let window_s = Run.elapsed window in
  (* the cold checks run after the window, so that they neither take
     time from it nor disturb the session's caches inside it *)
  List.iter
    (fun (what, doc, fingerprint) ->
       if Watch.fingerprint (Watch.check_cold doc) <> fingerprint then
         Answer.wrong "%s: the incremental check differs from a cold check" what)
    !sampled;
  let layers =
    if not trace then []
    else
      let totals = Span.totals (Span.all ()) in
      let per_traced x = x /. float_of_int (max 1 (fst !traced)) in
      Run.counter_layers ~ops:!attempted (Run.accumulate Run.zero start (Run.counters ()))
      @ Hashtbl.fold (fun name v acc -> (name, v /. float_of_int !attempted) :: acc) reuse []
      @ [
        ("watch.edit_s", per_traced (totals "watch.edit").Span.busy_s);
        ("watch.check_s", per_traced (totals "watch.check").Span.busy_s);
        ("trace.throughput_ratio", Run.throughput_ratio ~untraced:!untraced ~traced:!traced);
      ]
  in
  let setup_after = Run.setups_after ~times:setups ~teardown:ignore ~setup () in
  {
    Run.setup_s = setup_before @ setup_after;
    block = Some block;
    done_at = !done_at;
    latencies = !latencies;
    window_s;
    heap_peak_mb = !heap;
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ( "requirements",
          Run.range !sizes );
        ("propositions", "9 (4 inputs, 5 outputs)");
        ("cold comparisons", string_of_int (!attempted / sample));
      ];
    layers;
  }
