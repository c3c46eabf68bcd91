(* table1: the paper's 22 Table I rows in Table I order, repeated in a
   fixed number of whole passes; the seed does not change this
   workload.  One client; the caches are reset and the heap is
   collected before every check, outside the timed region, so each row
   pays what a one-shot run pays whatever ran before it. *)

open Speccc_core
open Speccc_synthesis
open Speccc_partition
open Speccc_casestudies

(* The options of [speccc table], the command that reproduces Table I:
   ungoverned, symbolic engine.  Under [Auto] the Robot rows go to the
   explicit engine and do not finish (one ran for 6 minutes and 900 MB
   before it was stopped). *)
let options () =
  { (Pipeline.default_options ()) with Pipeline.engine = Realizability.Symbolic }

let row_name row = row.Table1.group ^ ":" ^ row.Table1.row_id

type checked = {
  first : Replay.result;
  final : Replay.result;  (** after the partition fix, for fix rows *)
  requirements : int;
  props : int;
}

let untraced options row () =
  match row.Table1.source with
  | Table1.Sentences texts ->
    let o = Pipeline.run_document ~options (Document.of_texts texts) in
    (o.Pipeline.formulas, o.Pipeline.partition.Partition.partition,
     Replay.of_report o.Pipeline.report)
  | Table1.Formulas (formulas, inputs, outputs) ->
    let partition = { Partition.inputs; outputs } in
    let _, report = Pipeline.check_formulas ~options ~partition formulas in
    (formulas, partition, Replay.of_report report)

let traced options row () =
  match row.Table1.source with
  | Table1.Sentences texts -> Replay.run_document options texts
  | Table1.Formulas (formulas, inputs, outputs) ->
    let partition = { Partition.inputs; outputs } in
    let _, result = Replay.check_formulas options ~partition formulas in
    (formulas, partition, result)

(* One document check; a partition-fix row that fails is re-checked
   after moving its misclassified proposition to the outputs, the
   paper's stage 3. *)
let check ~trace options row =
  let formulas, partition, first =
    (if trace then traced else untraced) options row ()
  in
  let final =
    match row.Table1.expected, first.Replay.verdict with
    | Table1.Inconsistent_until_partition_fix prop,
      (Realizability.Inconsistent | Realizability.Inconclusive _) ->
      let partition = Partition.adjust partition ~to_output:[ prop ] () in
      if trace then snd (Replay.check_formulas options ~partition formulas)
      else
        Replay.of_report
          (snd (Pipeline.check_formulas ~options ~partition formulas))
    | _ -> first
  in
  {
    first;
    final;
    requirements = List.length formulas;
    props = List.length partition.Partition.inputs + List.length partition.Partition.outputs;
  }

(* The row's known answer: consistent, or for a fix row a failure
   before the fix and consistent after it. *)
let judge row c =
  let what = row_name row in
  (match row.Table1.expected, c.first.Replay.verdict with
   | Table1.Inconsistent_until_partition_fix prop, Realizability.Consistent ->
     Answer.wrong "%s: consistent before moving %s to the outputs" what prop
   | _ -> ());
  Answer.verdict ~what ~expected:Answer.Consistent c.final.Replay.verdict

let same_class a b =
  match a, b with
  | Realizability.Consistent, Realizability.Consistent
  | Realizability.Inconsistent, Realizability.Inconsistent
  | Realizability.Inconclusive _, Realizability.Inconclusive _ ->
    true
  | _ -> false

(* The traced replay must agree with the untraced pipeline call. *)
let assert_no_drift row ~untraced ~traced =
  let agree a b =
    same_class a.Replay.verdict b.Replay.verdict
    && a.Replay.engine = b.Replay.engine && a.Replay.states = b.Replay.states
  in
  if not (agree untraced.first traced.first && agree untraced.final traced.final) then
    Answer.wrong "%s: the traced replay disagrees with the pipeline call" (row_name row)

(* One pass per 8 s asked for, at least one: at 25 s, 3 passes, 66
   checks, about 28 s on a 2-core machine. *)
let passes seconds = max 1 (int_of_float (Float.round (seconds /. 8.)))

let run ~seed:_ ~seconds ~trace =
  let rows = Array.of_list Table1.rows in
  let setup = options in
  let options, setup_before = Run.setups ~batch:2000 ~times:6 ~teardown:ignore ~setup () in
  let window = Run.window () in
  let latencies = ref [] and attempted = ref 0 and failed = ref 0 in
  let untraced = ref (0, 0.) and traced = ref (0, 0.) in
  let counters = ref Run.zero in
  let reqs = ref [] and props = ref [] in
  let next_op = ref 0 and op_rows = Hashtbl.create 32 in
  let one ~traced_op row =
    (* a one-shot run starts with empty caches and no garbage *)
    Run.outside window (fun () ->
        Speccc_cache.Cache.reset ();
        Gc.compact ());
    let before = Run.counters () in
    incr next_op;
    Span.set_enabled traced_op;
    let c, dt =
      Run.time (fun () ->
          Span.with_op !next_op (fun () ->
              Span.with_span "table1.row" (fun () -> check ~trace:traced_op options row)))
    in
    Span.set_enabled false;
    if traced_op then begin
      Hashtbl.replace op_rows !next_op (row_name row);
      Run.add_op traced dt
    end
    else begin
      counters := Run.accumulate !counters before (Run.counters ());
      Run.add_op untraced dt;
      latencies := dt :: !latencies
    end;
    incr attempted;
    (match judge row c with
     | Answer.Definite -> ()
     | Answer.Unknown -> incr failed);
    reqs := c.requirements :: !reqs;
    props := c.props :: !props;
    c
  in
  (* A traced run checks every row twice, untraced and traced, the
     traced check first on every other row so that neither side gets
     the warmer start; the two must agree. *)
  let pass order =
    Array.iteri
      (fun k i ->
         let row = rows.(i) in
         if not trace then ignore (one ~traced_op:false row)
         else begin
           let traced_first = k mod 2 = 1 in
           let a = one ~traced_op:traced_first row in
           let b = one ~traced_op:(not traced_first) row in
           let untraced, traced = if traced_first then (b, a) else (a, b) in
           assert_no_drift row ~untraced ~traced
         end)
      order
  in
  (* Whole passes only, so every run checks each row equally often,
     and as many as [passes seconds] asks whatever a pass costs: a
     window that ran until the clock stopped would step the sample
     count, and with it the rank of the tail sample, with the program's
     speed.  Every pass runs in Table I order: the rows before a check
     decide what the hash-consing table holds and how fragmented the
     heap is (the runtime does not compact), and with them the heap
     peak, which seeded orders spread by 16% across seeds. *)
  for _ = 1 to passes seconds do
    pass (Array.init (Array.length rows) Fun.id)
  done;
  let window_s = Run.elapsed window in
  (* per-row stage split of the traced passes, mean seconds per check *)
  let splits =
    if not trace then []
    else
      let spans = Span.all () in
      List.map
        (fun row ->
           let name = row_name row in
           let mine = List.filter (fun s -> Hashtbl.find_opt op_rows s.Span.op = Some name) spans in
           let totals = Span.totals mine in
           let checks = max 1 (totals "table1.row").Span.calls in
           ( "split " ^ name,
             String.concat " "
               (List.map
                  (fun layer ->
                     Printf.sprintf "%s=%.4f" layer
                       ((totals layer).Span.busy_s /. float_of_int checks))
                  [ "table1.row"; "translate"; "timeabs"; "partition"; "logic.bound_liveness";
                    "obligation.solve"; "obligation.to_mealy"; "minimize" ]) ))
        (Array.to_list rows)
  in
  let layers =
    if not trace then []
    else
      Run.span_layers ~ops:(fst !traced) (Span.all ())
      @ Run.counter_layers ~ops:(fst !untraced) !counters
      @ [ ("trace.throughput_ratio", Run.throughput_ratio ~untraced:!untraced ~traced:!traced) ]
  in
  let heap_peak_mb = Run.heap_peak_mb () in
  let setup_after = Run.setups_after ~batch:2000 ~times:5 ~teardown:ignore ~setup () in
  {
    Run.setup_s = setup_before @ setup_after;
    block = None;
    done_at = [];
    latencies = !latencies;
    window_s;
    heap_peak_mb;
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ("rows", string_of_int (Array.length rows));
        ("passes", string_of_int (passes seconds));
        ("requirements", Run.range !reqs);
        ("propositions", Run.range !props);
      ]
      @ splits;
    layers;
  }
