open Speccc_logic
open Speccc_runtime

type engine = Explicit | Symbolic | Auto

type verdict =
  | Consistent
  | Inconsistent
  | Inconclusive of string

type rung = {
  rung_engine : string;
  rung_outcome : string;
  rung_error : Runtime.error option;
  rung_wall : float;
}

type report = {
  verdict : verdict;
  engine_used : string;
  controller : Mealy.t option;
  counterstrategy : Bounded.counterstrategy option;
  unsat_core : int list option;
  wall_time : float;
  detail : string;
  degradation : rung list;
}

let with_timer f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

(* ---------- witness emission (with corruption drill points) ---------- *)

(* Every controller and counterstrategy passes through a
   [Fault.corrupt] checkpoint on its way into the report, so the
   certification layer's rejection path is exercisable from tests: an
   armed [Corrupt] trigger mangles the witness while the verdict stays
   untouched, which certification must then catch. *)

let emit_controller machine =
  if Fault.corrupt Fault.Checkpoint.witness_controller then
    let mask = (1 lsl List.length machine.Mealy.outputs) - 1 in
    { machine with
      Mealy.step =
        (fun state input ->
           let output, next = machine.Mealy.step state input in
           (output lxor mask, next)) }
  else machine

let emit_counterstrategy cs =
  if Fault.corrupt Fault.Checkpoint.witness_counterstrategy then
    (* an environment that never raises an input cannot force an
       input-dependent conflict, so certification's candidate panel
       will produce a satisfying play and reject the witness *)
    { cs with Bounded.cs_move = (fun _ -> 0) }
  else cs

let emit_core core =
  if Fault.corrupt Fault.Checkpoint.witness_core then [] else core

(* ---------- degradation-log hygiene ---------- *)

let rung_rank = function
  | "symbolic" -> 0
  | "explicit" -> 1
  | "sat" -> 2
  | "lint" -> 3
  | "certify" -> 4
  | "ladder" -> 5
  | _ -> 6

let dedup_degradation rungs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun rung ->
       if Hashtbl.mem seen rung.rung_engine then false
       else begin
         Hashtbl.add seen rung.rung_engine ();
         true
       end)
    rungs

let canonical_degradation report =
  dedup_degradation report.degradation
  |> List.stable_sort (fun a b ->
      compare (rung_rank a.rung_engine) (rung_rank b.rung_engine))

let explicit_verdict_of = function
  | Bounded.Realizable controller ->
    ( Consistent,
      Some (emit_controller (Minimize.minimize controller)),
      None,
      "controller extracted and minimized" )
  | Bounded.Unrealizable counterstrategy ->
    ( Inconsistent,
      None,
      Some (emit_counterstrategy counterstrategy),
      "environment wins the dual game (counterstrategy extracted)" )
  | Bounded.Unknown k ->
    ( Inconclusive (Printf.sprintf "counting bound %d exhausted" k),
      None,
      None,
      "no side won within the bound" )

let explicit_report solve =
  let (verdict, controller, counterstrategy, detail), wall_time =
    with_timer (fun () -> explicit_verdict_of (solve ()))
  in
  {
    verdict;
    engine_used = "explicit";
    controller;
    counterstrategy;
    unsat_core = None;
    wall_time;
    detail;
    degradation = [];
  }

let run_explicit ?budget ~bound ~inputs ~outputs spec =
  explicit_report (fun () ->
      Bounded.solve_iterative ?budget ~max_bound:bound ~inputs ~outputs spec)

(* Session-incremental variant: assumption-free requirement lists go
   through the block-decomposed conjunction solver, which reuses the
   session's arena blocks and solo frontiers (see {!Bounded}). *)
let run_explicit_conj ~session ~bound ~inputs ~outputs requirements =
  explicit_report (fun () ->
      Bounded.solve_conj_iterative ~session ~max_bound:bound ~inputs ~outputs
        requirements)

let run_symbolic ?budget ~lookahead ~inputs ~outputs spec =
  let had_liveness = Classify.has_liveness spec in
  let max_bound = 4 * lookahead in
  let solve_at ~completed bound =
    let safety_spec =
      if had_liveness then Classify.bound_liveness ~bound spec
      else Nnf.of_formula spec
    in
    (* The base snapshot carries the last lookahead that fully
       completed (the resumable frontier); Obligation.solve adds the
       live fixpoint layer index on top for partial-verdict telemetry. *)
    let snapshot_base =
      Snapshot.make ~engine:"symbolic"
        (("attempting", string_of_int bound)
         :: (match completed with
             | Some k -> [ ("lookahead", string_of_int k) ]
             | None -> []))
    in
    Obligation.solve ?budget ~snapshot_base ~inputs ~outputs safety_spec
  in
  let publish_completed bound =
    match budget with
    | None -> ()
    | Some b ->
      Budget.publish b
        (Snapshot.make ~engine:"symbolic"
           [ ("lookahead", string_of_int bound) ])
  in
  (* Bounding eventualities is a strengthening, so a loss at one
     look-ahead may be won at a larger one — escalate a few times, as
     G4LTL does with its unroll parameter. *)
  let rec attempt ~completed bound =
    match solve_at ~completed bound with
    | Obligation.Realizable strategy -> Ok (strategy, bound)
    | Obligation.Unrealizable ->
      if had_liveness && 2 * bound <= max_bound then begin
        publish_completed bound;
        attempt ~completed:(Some bound) (2 * bound)
      end
      else begin publish_completed bound; Error bound end
  in
  (* Anytime resume: skip lookaheads a previous attempt already
     refuted; the doubling tail matches a cold run's. *)
  let start, start_completed =
    match budget with
    | None -> (lookahead, None)
    | Some b ->
      (match Budget.resume_for b ~engine:"symbolic" with
       | Some snap ->
         (match Snapshot.int_field snap "lookahead" with
          | Some k when k >= lookahead && had_liveness ->
            (max lookahead (min (2 * k) max_bound), Some k)
          | Some _ | None -> (lookahead, None))
       | None -> (lookahead, None))
  in
  let result, wall_time =
    with_timer (fun () -> attempt ~completed:start_completed start)
  in
  match result with
  | Ok (strategy, bound) ->
    let controller =
      Option.map
        (fun machine -> emit_controller (Minimize.minimize machine))
        (Obligation.to_mealy strategy)
    in
    {
      verdict = Consistent;
      engine_used = "symbolic";
      controller;
      counterstrategy = None;
      unsat_core = None;
      wall_time;
      detail =
        Printf.sprintf "%s lookahead=%d" (Obligation.stats strategy) bound;
      degradation = [];
    }
  | Error bound ->
    let verdict, detail =
      if had_liveness then
        ( Inconclusive
            (Printf.sprintf "unrealizable at liveness lookahead %d" bound),
          "eventualities were bounded before solving; a larger lookahead \
           may succeed" )
      else (Inconsistent, "safety obligation game lost")
    in
    {
      verdict;
      engine_used = "symbolic";
      controller = None;
      counterstrategy = None;
      unsat_core = None;
      wall_time;
      detail;
      degradation = [];
    }

let run_sat ?budget ~inputs ~outputs spec =
  let result, wall_time =
    with_timer (fun () ->
        Satsynth.solve_iterative ?budget ~inputs ~outputs spec)
  in
  match result with
  | Satsynth.Realizable machine ->
    {
      verdict = Consistent;
      engine_used = "sat";
      controller = Some (emit_controller (Minimize.minimize machine));
      counterstrategy = None;
      unsat_core = None;
      wall_time;
      detail = Satsynth.stats ();
      degradation = [];
    }
  | Satsynth.No_machine_within { states; bound } ->
    {
      verdict =
        Inconclusive
          (Printf.sprintf "no Mealy machine with <= %d states (bound %d)"
             states bound);
      engine_used = "sat";
      controller = None;
      counterstrategy = None;
      unsat_core = None;
      wall_time;
      detail = Satsynth.stats ();
      degradation = [];
    }

let spec_of ~assumptions requirements =
  let guarantees = Ltl.conj_list requirements in
  match assumptions with
  | [] -> guarantees
  | _ -> Ltl.implies (Ltl.conj_list assumptions) guarantees

(* Auto's threshold on |inputs| + |outputs| for the explicit engine. *)
let explicit_prop_limit = 12

let check ?(engine = Auto) ?(lookahead = 6) ?(bound = 8) ?(assumptions = [])
    ?explicit_session ~inputs ~outputs requirements =
  let spec = spec_of ~assumptions requirements in
  let chosen =
    match engine with
    | Explicit -> `Explicit
    | Symbolic -> `Symbolic
    | Auto ->
      (* assumption implications fall outside the obligation game's
         completeness fragment *)
      if assumptions <> []
      || List.length inputs + List.length outputs <= explicit_prop_limit
      then `Explicit
      else `Symbolic
  in
  match chosen with
  | `Explicit ->
    (match explicit_session with
     | Some session when assumptions = [] ->
       (* With assumptions the spec is an implication, not a plain
          conjunction — the block decomposition does not apply. *)
       run_explicit_conj ~session ~bound ~inputs ~outputs requirements
     | Some _ | None -> run_explicit ~bound ~inputs ~outputs spec)
  | `Symbolic -> run_symbolic ~lookahead ~inputs ~outputs spec

(* ---------- resource-governed checking with a fallback ladder ---------- *)

let ladder_stages ~assumptions =
  (* The symbolic obligation game is incomplete for the top-level
     temporal disjunction introduced by assumptions (it could report a
     spurious loss, which the ladder would trust as Inconsistent), so
     assumption-carrying checks start at the exact explicit engine. *)
  if assumptions = [] then [ `Symbolic; `Explicit; `Sat ]
  else [ `Explicit; `Sat ]

let stage_name = function
  | `Symbolic -> "symbolic"
  | `Explicit -> "explicit"
  | `Sat -> "sat"

let check_governed ?budget ?(engine = Auto) ?(lookahead = 6) ?(bound = 8)
    ?(skip = []) ?(assumptions = []) ~inputs ~outputs requirements =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let spec = spec_of ~assumptions requirements in
  let run_stage stage rung_budget =
    match stage with
    | `Symbolic ->
      run_symbolic ~budget:rung_budget ~lookahead ~inputs ~outputs spec
    | `Explicit ->
      run_explicit ~budget:rung_budget ~bound ~inputs ~outputs spec
    | `Sat -> run_sat ~budget:rung_budget ~inputs ~outputs spec
  in
  let stages =
    match engine with
    | Explicit -> [ `Explicit ]
    | Symbolic -> [ `Symbolic ]
    | Auto -> ladder_stages ~assumptions
  in
  (* Rung skipping ([skip], by rung name) serves the server's circuit
     breakers: a rung that keeps failing is bypassed for a cooldown
     window.  Skips apply only to the [Auto] ladder — a forced engine
     is an explicit caller choice — and each skipped rung is recorded
     so the degradation log still explains why the verdict came from a
     lower rung. *)
  let stages, skipped =
    match engine with
    | Auto when skip <> [] ->
      List.partition (fun s -> not (List.mem (stage_name s) skip)) stages
    | _ -> (stages, [])
  in
  let skipped_rungs =
    List.map
      (fun stage ->
         {
           rung_engine = stage_name stage;
           rung_outcome = "skipped: circuit breaker open";
           rung_error = None;
           rung_wall = 0.;
         })
      skipped
  in
  (* Hard memory watermark: under heap pressure the game engines'
     state spaces (explicit position tables, BDD node stores) are the
     liability, so the ladder collapses to its lowest-memory rung —
     bounded SAT synthesis — and logs the higher rungs as typed
     memory degradations.  Only the [Auto] ladder degrades; a forced
     engine is an explicit caller choice. *)
  let stages, skipped_rungs =
    match engine, List.rev stages with
    | Auto, (last :: _ :: _ as rev_stages)
      when Memwatch.level () = Memwatch.Hard ->
      let shed = List.rev (List.tl rev_stages) in
      let mem_rungs =
        List.map
          (fun stage ->
             let name = stage_name stage in
             {
               rung_engine = name;
               rung_outcome = "skipped: hard memory watermark";
               rung_error =
                 Some
                   (Runtime.Degraded
                      ( "memory",
                        Runtime.Engine_failure
                          (name, "hard memory watermark") ));
               rung_wall = 0.;
             })
          shed
      in
      ([ last ], skipped_rungs @ mem_rungs)
    | _ -> (stages, skipped_rungs)
  in
  (* Fuel slicing: every rung but the last gets half of what remains,
     so a stuck early engine cannot starve the ladder's floor. *)
  let slice_for ~last =
    match Budget.remaining budget with
    | None -> max_int / 2
    | Some r -> if last then r else max 1 (r / 2)
  in
  let total_wall = ref 0.0 in
  let rec descend stages log last_inconclusive =
    match stages with
    | [] ->
      let detail =
        match last_inconclusive with
        | Some report -> report.detail
        | None -> "every engine in the ladder degraded"
      in
      Ok
        {
          verdict =
            Inconclusive
              "all engines degraded or inconclusive under the budget";
          engine_used =
            (match last_inconclusive with
             | Some report -> report.engine_used
             | None -> "none");
          controller = None;
          counterstrategy = None;
          unsat_core = None;
          wall_time = !total_wall;
          detail;
          degradation = dedup_degradation (List.rev log);
        }
    | stage :: rest ->
      let name = stage_name stage in
      let rung_budget = Budget.child budget ~fuel:(slice_for ~last:(rest = [])) in
      let result, rung_wall =
        with_timer (fun () ->
            Runtime.guard ~stage:name (fun () -> run_stage stage rung_budget))
      in
      Budget.absorb budget rung_budget;
      total_wall := !total_wall +. rung_wall;
      (match result with
       | Ok ({ verdict = Consistent | Inconsistent; _ } as report) ->
         Ok
           {
             report with
             wall_time = !total_wall;
             degradation = dedup_degradation (List.rev log);
           }
       | Ok ({ verdict = Inconclusive why; _ } as report) ->
         let rung =
           {
             rung_engine = name;
             rung_outcome = "inconclusive: " ^ why;
             rung_error = None;
             rung_wall;
           }
         in
         descend rest (rung :: log) (Some report)
       | Error ((Runtime.Timeout _ | Runtime.Cancelled _) as error) ->
         (* The wall-clock deadline and cancellation are global: no
            point starting a cheaper engine that will be killed at its
            first poll. *)
         Error error
       | Error error ->
         let rung =
           {
             rung_engine = name;
             rung_outcome = Runtime.to_string error;
             rung_error = Some error;
             rung_wall;
           }
         in
         descend rest (rung :: log) last_inconclusive)
  in
  descend stages (List.rev skipped_rungs) None
