(** Realizability checking front-end — the paper's stage 2: a
    specification (a set of LTL requirements, implicitly conjoined) is
    {e consistent} iff it is realizable, i.e. a controller reading the
    input propositions and driving the output propositions exists
    (Sec. V-A).

    Three engines are available:
    - [Explicit]: exact bounded synthesis with a dual-game
      unrealizability check ({!Bounded}); cost is exponential in the
      number of propositions, so it is reserved for small alphabets.
    - [Symbolic]: BDD obligation game ({!Obligation}); liveness is
      first strengthened to [lookahead]-bounded eventualities, exactly
      as G4LTL's unroll parameter does.
    - the SAT-based bounded-machine search ({!Satsynth}), used only as
      a fallback rung by {!check_governed}.
    - [Auto] picks [Explicit] for small alphabets and [Symbolic]
      otherwise.

    {!check} is the classic ungoverned entry point; {!check_governed}
    runs under a {!Speccc_runtime.Budget} and degrades down a fallback
    ladder (symbolic → explicit → SAT) instead of hanging or raising,
    recording every degradation step. *)

type engine = Explicit | Symbolic | Auto

type verdict =
  | Consistent        (** realizable: a controller exists *)
  | Inconsistent      (** definitely unrealizable *)
  | Inconclusive of string
      (** bound/lookahead exhausted; the string says which limit *)

type rung = {
  rung_engine : string;       (** ["symbolic"], ["explicit"], ["sat"] *)
  rung_outcome : string;      (** why the ladder moved past this rung *)
  rung_error : Speccc_runtime.Runtime.error option;
      (** present when the rung failed or ran out of resources;
          [None] when it completed but was inconclusive *)
  rung_wall : float;          (** seconds spent on this rung *)
}
(** One abandoned step of the fallback ladder. *)

type report = {
  verdict : verdict;
  engine_used : string;
  controller : Mealy.t option;   (** present when [Consistent] *)
  counterstrategy : Bounded.counterstrategy option;
      (** present when the explicit engine proved [Inconsistent]: the
          environment's winning strategy, usable with
          {!Bounded.refute} to demonstrate the inconsistency against
          any candidate implementation *)
  unsat_core : int list option;
      (** present when [Inconsistent] was proved by unsatisfiability
          of a requirement subset (the lint floor's witness): 0-based
          requirement indices whose conjunction admits no behaviour at
          all.  Engines that prove unrealizability game-theoretically
          leave this [None] and ship a [counterstrategy] instead. *)
  wall_time : float;             (** seconds (all rungs included) *)
  detail : string;               (** engine diagnostics *)
  degradation : rung list;
      (** engines tried and abandoned before this verdict, in order,
          at most one entry per engine; [[]] when the first engine
          concluded (always [[]] from {!check}) *)
}

(** {2 Witnesses}

    [controller], [counterstrategy] and [unsat_core] are the report's
    {e witnesses}: independently checkable evidence for the verdict,
    validated by [Speccc_certify.Certify] with machinery disjoint from
    the engine that produced them.  Each witness passes through a
    [Speccc_runtime.Fault.corrupt] checkpoint ([witness.controller],
    [witness.counterstrategy], [witness.core]) on emission, so
    certificate rejection is drillable from tests. *)

val emit_core : int list -> int list
(** Route an unsat core through its corruption checkpoint (used by the
    pipeline's lint floor; exposed so every witness emission point
    shares one drill mechanism). *)

val canonical_degradation : report -> rung list
(** The degradation log in canonical rendering order: deduplicated,
    stably sorted by ladder position (symbolic, explicit, sat, lint,
    certify, ladder, then anything else).  CLI printers use this so a
    given report always renders identically. *)

val check :
  ?engine:engine ->
  ?lookahead:int ->
  ?bound:int ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  ?explicit_session:Bounded.session ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  report
(** [check ~inputs ~outputs requirements].  Defaults: [engine = Auto],
    [lookahead = 6] (bounded-eventuality depth for the symbolic
    engine), [bound = 8] (maximal counting bound for the explicit
    engine); [Auto] takes the explicit engine when
    [|inputs| + |outputs| <= 12].

    [explicit_session] opts assumption-free checks that land on the
    explicit engine into {!Bounded.solve_conj_iterative}'s session-
    incremental block decomposition: arena blocks and solo frontiers
    for unchanged requirement formulas are reused across calls, and
    verdicts and witnesses are bit-identical to the same call with a
    fresh session.  Ignored for the symbolic engine and for
    assumption-carrying checks (the spec is then an implication, not a
    plain conjunction).

    [assumptions] are environment hypotheses [A]: the checked formula
    becomes [(∧A) → (∧requirements)], so the system need only comply
    while the environment behaves.  The top-level temporal disjunction
    this introduces is outside the symbolic engine's completeness
    fragment, so [Auto] routes assumption-carrying checks to the
    explicit engine; forcing [Symbolic] stays sound but may report
    spurious unrealizability. *)

val check_governed :
  ?budget:Speccc_runtime.Budget.t ->
  ?engine:engine ->
  ?lookahead:int ->
  ?bound:int ->
  ?skip:string list ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  inputs:string list ->
  outputs:string list ->
  Speccc_logic.Ltl.t list ->
  (report, Speccc_runtime.Runtime.error) result
(** Resource-governed {!check}.  Under [engine = Auto] (the default)
    the engines form a fallback ladder — symbolic under a fuel slice,
    then the exact explicit engine with its escalating counting
    bound, then the SAT-based bounded-machine search — where each rung
    gets half of the remaining fuel (the last gets all of it) and a
    rung's fuel exhaustion, engine failure or inconclusive verdict
    drops to the next rung, recorded in [report.degradation].  Forcing
    [engine] runs a one-rung ladder.  Assumption-carrying checks skip
    the symbolic rung (see {!check}).

    [skip] (rung names, e.g. [["symbolic"]]) removes rungs from the
    [Auto] ladder before it runs — the serve mode's circuit breakers
    use this to bypass a rung that keeps failing.  Each skipped rung
    is recorded in [report.degradation] with outcome
    ["skipped: circuit breaker open"].  [skip] is ignored when
    [engine] is forced; skipping every rung yields the same
    [Inconclusive] report as a ladder whose every rung degraded.

    Never raises.  Returns [Error] only for the {e global} resource
    events — [Timeout] (wall-clock deadline) and [Cancelled] — that
    make running further rungs pointless; everything else, including
    full fuel exhaustion, yields [Ok] with a sound verdict
    ([Inconclusive] when no engine concluded) and a populated
    degradation log. *)
