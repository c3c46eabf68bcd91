(** The SpecCC pipeline (Fig. 1): natural-language requirements are
    translated to LTL (stage 1, with semantic reasoning and time
    abstraction), partitioned into inputs/outputs, and checked for
    consistency by LTL synthesis (stage 2).  Stage 3 — refinement —
    is {!localize} over the {!consistent} subset check; {!Refine} adds
    partition adjustments on top. *)

type options = {
  translate : Speccc_translate.Translate.config;
  time_budget : int option;
      (** error budget [B] for the abstraction; [None] = GCD only *)
  use_smt_abstraction : bool;
      (** true: solve the optimization by bit-blasting (the paper's
          route); false: analytic divisor search *)
  engine : Speccc_synthesis.Realizability.engine;
  lookahead : int;
  bound : int;
  fuel : int option;
      (** deterministic step budget for the synthesis stage; [None] =
          ungoverned.  Setting any of [fuel], [deadline] or [cancel]
          routes synthesis through
          {!Speccc_synthesis.Realizability.check_governed} and its
          fallback ladder, with a lint pass as the ladder's floor. *)
  deadline : float option;
      (** wall-clock seconds allowed for the synthesis stage *)
  cancel : Speccc_runtime.Cancellation.token option;
      (** cooperative cancellation, polled at budget checkpoints *)
  skip_engines : string list;
      (** ladder rungs (by name: ["symbolic"], ["explicit"], ["sat"])
          to bypass in this run — the serve mode's circuit breakers
          set this while a rung's breaker is open.  A non-empty list
          routes synthesis through the governed ladder even without a
          budget; ignored when [engine] is forced. *)
  recover : bool;
      (** true: an ungrammatical requirement is dropped with a located
          diagnostic ([outcome.diagnostics]) and checking continues
          over the remaining requirements; false (default): the
          translation stage raises {!Speccc_nlp.Parser.Error} as
          before *)
  certify : bool;
      (** true: validate the verdict's witness with
          {!Speccc_certify.Certify.apply} (on a small reserved budget)
          before reporting; a rejected certificate downgrades the
          verdict to [Inconclusive] *)
  snapshot : Speccc_runtime.Snapshot.slot option;
      (** anytime-progress slot threaded onto the governed budget: the
          engines publish resumable frontiers into it, and an armed
          resume snapshot lets a retried run skip already-completed
          escalation work (see {!Speccc_runtime.Snapshot}) *)
}

val default_options : unit -> options
(** Ungoverned: [fuel], [deadline] and [cancel] are all [None], so
    {!run} behaves exactly as before the resource-governance layer. *)

type stage_times = {
  translation_s : float;
  abstraction_s : float;
  partition_s : float;
  synthesis_s : float;
}

type outcome = {
  requirements : Speccc_translate.Translate.requirement list;
  formulas : Speccc_logic.Ltl.t list;
      (** after time abstraction, in requirement order *)
  assumptions : Speccc_logic.Ltl.t list;
      (** the members of [formulas] that are environment assumptions
          ({!Document.is_assumption}), in document order *)
  time_solution : Speccc_timeabs.Timeabs.solution option;
  partition : Speccc_partition.Partition.analysis;
  report : Speccc_synthesis.Realizability.report;
  times : stage_times;
  diagnostics : (string * Speccc_nlp.Parser.diagnostic) list;
      (** requirements dropped by error recovery, as [(id, where/why)]
          pairs in document order; always empty unless
          [options.recover] *)
  certificate : Speccc_certify.Certify.outcome option;
      (** witness-validation outcome; [None] unless [options.certify] *)
}

val abstract_times :
  options ->
  Speccc_logic.Ltl.t list ->
  Speccc_logic.Ltl.t list * Speccc_timeabs.Timeabs.solution option
(** The time-abstraction stage on its own: collect the θ constants,
    solve for a divisor (per [options.time_budget] /
    [options.use_smt_abstraction]) and rewrite the formulas — the
    stage {!run_document} times as [abstraction_s], exposed so callers
    can time it apart from the rest of the pipeline. *)

val governed : options -> bool
(** True when the options route synthesis through the governed ladder
    ({!Speccc_synthesis.Realizability.check_governed}): any of [fuel],
    [deadline], [cancel], [skip_engines] or [snapshot] set, or memory
    pressure above normal. *)

type cache = {
  parse : Speccc_translate.Translate.parse_cache;
      (** sentence parses, keyed by text *)
  engine : Speccc_synthesis.Bounded.session;
      (** the explicit engine's arena blocks and solo frontiers, keyed
          by hash-consed formula id *)
  memo : Localize.memo;
      (** localization subset verdicts, keyed by formula-id set *)
}
(** Incremental state a long-lived caller (a {!Watch} session) threads
    through every check.  Every store is content-addressed, so a
    cached run is bit-identical to a run with a fresh cache on the
    same input.  Keep one cache per [options] value: the memo's
    verdicts are only valid under the options that produced them.
    The cache is consulted only when [not (governed options)]; a
    governed run ignores it and runs cold. *)

val cache : unit -> cache

val run : ?options:options -> string list -> outcome
(** Full pipeline from requirement sentences (positional identifiers;
    equivalent to {!run_document} over {!Document.of_texts}). *)

val run_document : ?options:options -> ?cache:cache -> Document.t -> outcome
(** Like {!run}, but items whose identifier marks them as environment
    assumptions ({!Document.is_assumption}) become the antecedent of
    the realizability check ([∧A → ∧G]) instead of system obligations.
    Translation, time abstraction and partitioning still treat the
    whole document uniformly, so assumptions share the proposition
    space.  [outcome.formulas] lists every formula in document
    order. *)

val certify_report :
  options ->
  assumptions:Speccc_logic.Ltl.t list ->
  Speccc_logic.Ltl.t list ->
  Speccc_synthesis.Realizability.report ->
  Speccc_synthesis.Realizability.report
  * Speccc_certify.Certify.outcome option
(** With [options.certify] set, validate [report]'s witness with
    {!Speccc_certify.Certify.apply} on a reserved fuel budget of its
    own, as {!run_document} does; otherwise [(report, None)]. *)

val check_formulas :
  ?options:options ->
  ?cache:cache ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  ?partition:Speccc_partition.Partition.t ->
  Speccc_logic.Ltl.t list ->
  Speccc_partition.Partition.t * Speccc_synthesis.Realizability.report
(** Stage 2 only: partition (unless given, derived as {!run_document}
    derives it) and synthesis of [∧assumptions → ∧formulas] over
    formulas that are already in LTL.  Used for specifications
    authored directly in LTL. *)

val consistent :
  ?cache:cache ->
  options:options ->
  ?assumptions:Speccc_logic.Ltl.t list ->
  ?partition:Speccc_partition.Partition.t ->
  Speccc_logic.Ltl.t list ->
  bool
(** The stage-3 subset check: {!check_formulas} (re-deriving the
    partition for the subset unless one is given) reports
    [Consistent]. *)

val localize :
  ?cache:cache -> options:options -> outcome -> Localize.result option
(** Stage 3: when [outcome]'s verdict is [Inconsistent], locate the
    culprit and its partners with {!Localize.run}; [None] otherwise.
    Every subset is checked with all of [outcome.assumptions] as its
    antecedent, so assumptions are never culprits or partners.
    Indices count [outcome.formulas], i.e. the requirements that
    survived translation. *)

val refine : options:options -> outcome -> Refine.suggestion
(** Stage 3 with partition advice: {!Refine.suggest} over the same
    subset check as {!localize}, adjusting [outcome]'s partition. *)

val pp_verdict :
  Format.formatter -> Speccc_synthesis.Realizability.report -> unit
(** The verdict line, then one [degraded:] line per abandoned ladder
    rung; {!pp_outcome} prints it after the earlier stages. *)

val pp_outcome : Format.formatter -> outcome -> unit
