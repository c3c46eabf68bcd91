(* The pipeline's public call sequence, replayed with a span around
   every layer call.  The traced runs use these in place of the
   one-call [Pipeline] entry points, whose internals cannot be timed
   from outside; each replay must reach the same verdict and
   controller size as the call it stands for, which the workloads
   assert.  Only ungoverned options are replayed. *)

open Speccc_logic
open Speccc_partition
open Speccc_synthesis
open Speccc_core

type result = {
  verdict : Realizability.verdict;
  engine : string;
  states : int option;  (** controller states, when one was extracted *)
}

let of_report (report : Realizability.report) =
  {
    verdict = report.Realizability.verdict;
    engine = report.Realizability.engine_used;
    states =
      Option.map (fun m -> m.Mealy.num_states) report.Realizability.controller;
  }

(* [Realizability.run_symbolic] without a budget: bound liveness at
   the lookahead, solve, double the lookahead on a loss up to four
   times the start, then extract and minimize the controller. *)
let symbolic ~lookahead ~inputs ~outputs spec =
  let had_liveness = Classify.has_liveness spec in
  let max_bound = 4 * lookahead in
  let rec attempt bound =
    let safety =
      Span.with_span "logic.bound_liveness" (fun () ->
          if had_liveness then Classify.bound_liveness ~bound spec
          else Nnf.of_formula spec)
    in
    match
      Span.with_span "obligation.solve" (fun () ->
          Obligation.solve ~inputs ~outputs safety)
    with
    | Obligation.Realizable strategy -> Some strategy
    | Obligation.Unrealizable ->
      if had_liveness && 2 * bound <= max_bound then attempt (2 * bound)
      else None
  in
  match attempt lookahead with
  | None ->
    let verdict =
      if had_liveness then Realizability.Inconclusive "lookahead exhausted"
      else Realizability.Inconsistent
    in
    { verdict; engine = "symbolic"; states = None }
  | Some strategy ->
    let machine =
      Span.with_span "obligation.to_mealy" (fun () ->
          Obligation.to_mealy strategy)
    in
    let states =
      Option.map
        (fun machine ->
           Span.count "mealy.states" (float_of_int machine.Mealy.num_states);
           let minimal =
             Span.with_span "minimize" (fun () -> Minimize.minimize machine)
           in
           Span.count "minimize.states_out"
             (float_of_int minimal.Mealy.num_states);
           minimal.Mealy.num_states)
        machine
    in
    { verdict = Realizability.Consistent; engine = "symbolic"; states }

(* [Realizability.check] under the pipeline's options, assumption-free:
   [Auto] routes alphabets of at most 12 propositions to the explicit
   engine, which is timed as one unsplit call. *)
let synthesize (options : Pipeline.options) (partition : Partition.t) formulas =
  let inputs = partition.Partition.inputs
  and outputs = partition.Partition.outputs in
  let symbolic_route =
    match options.Pipeline.engine with
    | Realizability.Symbolic -> true
    | Realizability.Explicit -> false
    | Realizability.Auto -> List.length inputs + List.length outputs > 12
  in
  if symbolic_route then
    symbolic ~lookahead:options.Pipeline.lookahead ~inputs ~outputs
      (Ltl.conj_list formulas)
  else
    of_report
      (Span.with_span "realizability.check" (fun () ->
           Realizability.check ~engine:Realizability.Explicit
             ~lookahead:options.Pipeline.lookahead
             ~bound:options.Pipeline.bound ~inputs ~outputs formulas))

let partition formulas =
  Span.with_span "partition" (fun () ->
      (Partition.of_requirements formulas).Partition.partition)

(* [Pipeline.check_formulas]. *)
let check_formulas options ?partition:given formulas =
  let partition =
    match given with Some p -> p | None -> partition formulas
  in
  (partition, synthesize options partition formulas)

(* [Pipeline.run_document] over assumption-free sentences. *)
let run_document (options : Pipeline.options) texts =
  let translation =
    Span.with_span "translate" (fun () ->
        Speccc_translate.Translate.specification options.Pipeline.translate
          texts)
  in
  let raw =
    List.map
      (fun r -> r.Speccc_translate.Translate.formula)
      translation.Speccc_translate.Translate.requirements
  in
  let formulas, _ =
    Span.with_span "timeabs" (fun () -> Pipeline.abstract_times options raw)
  in
  let partition, result = check_formulas options formulas in
  (formulas, partition, result)
