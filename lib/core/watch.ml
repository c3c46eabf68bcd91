open Speccc_logic
open Speccc_synthesis

module Verdict_lru = Speccc_cache.Cache.Make (Speccc_cache.Cache.String_key)

type reuse = {
  verdict_cached : bool;
  parse_hits : int;
  blocks_reused : int;
  solo_reused : int;
  invalidated : int;
}

type checked = {
  outcome : Pipeline.outcome;
  localization : Localize.result option;
  culprit_id : string option;
  partner_ids : string list;
  wall_s : float;
  reuse : reuse;
  seq : int;
}

type counters = {
  checks : int;
  verdict_hits : int;
  engine : Bounded.session_stats;
  localize_entries : int;
  invalidated_total : int;
}

type session = {
  options : Pipeline.options;
  mutable doc : Document.t;
  cache : Pipeline.cache;
  verdicts : (Pipeline.outcome * Localize.result option) Verdict_lru.t;
  mutable last_ids : int list;
      (* sorted hash-cons ids of the document's formulas at the last
         check that ran the pipeline — the invalidation baseline *)
  mutable seq : int;
  mutable checks : int;
  mutable verdict_hits : int;
  mutable invalidated_total : int;
}

let create ?options doc =
  let options =
    match options with Some o -> o | None -> Pipeline.default_options ()
  in
  {
    options;
    doc;
    cache = Pipeline.cache ();
    verdicts =
      Verdict_lru.create ~name:"watch.verdict"
        ~capacity:
          (Speccc_cache.Cache.capacity ~name:"watch.verdict" ~default:128)
        ();
    last_ids = [];
    seq = 0;
    checks = 0;
    verdict_hits = 0;
    invalidated_total = 0;
  }

let document session = session.doc
let set_document session doc = session.doc <- doc

let renumber doc =
  List.mapi (fun i item -> { item with Document.line = i + 1 }) doc

let mem_id doc id = List.exists (fun item -> item.Document.id = id) doc

let edit session ~id ~text =
  if mem_id session.doc id then begin
    session.doc <-
      List.map
        (fun item ->
           if item.Document.id = id then { item with Document.text } else item)
        session.doc;
    Ok ()
  end
  else Error (Printf.sprintf "no requirement %S in the document" id)

let insert ?at session ~id ~text =
  if mem_id session.doc id then
    Error (Printf.sprintf "requirement %S already exists" id)
  else begin
    let n = List.length session.doc in
    let at = match at with None -> n | Some i -> max 0 (min i n) in
    let before = List.filteri (fun i _ -> i < at) session.doc in
    let after = List.filteri (fun i _ -> i >= at) session.doc in
    session.doc <-
      renumber (before @ ({ Document.id; text; line = 0 } :: after));
    Ok ()
  end

let delete session ~id =
  if mem_id session.doc id then begin
    session.doc <-
      renumber (List.filter (fun item -> item.Document.id <> id) session.doc);
    Ok ()
  end
  else Error (Printf.sprintf "no requirement %S in the document" id)

(* Content key of the current document: ids, texts and (through the
   ids) the assumption/guarantee split.  Options are fixed per
   session, so they need no salt here. *)
let doc_key doc =
  String.concat "\x1e"
    (List.map
       (fun item -> item.Document.id ^ "\x1f" ^ item.Document.text)
       doc)

let cache_hits name =
  match
    List.find_opt
      (fun s -> s.Speccc_cache.Cache.name = name)
      (Speccc_cache.Cache.stats ())
  with
  | Some s -> s.Speccc_cache.Cache.hits
  | None -> 0

(* Localization indices count the formulas that reached the checker;
   with [recover], the sentences named in [diagnostics] were dropped
   before that, so the indices map through the survivors. *)
let ids_of doc (outcome : Pipeline.outcome) localization =
  match localization with
  | None -> (None, [])
  | Some loc ->
    let dropped = List.map fst outcome.Pipeline.diagnostics in
    let survivors =
      List.filter (fun item -> not (List.mem item.Document.id dropped)) doc
    in
    ( Some (Document.id_at survivors loc.Localize.culprit),
      List.map (Document.id_at survivors) loc.Localize.partners )

(* Explicit invalidation: edited-away formulas (their hash-cons ids no
   longer appear in the document) are dropped from the localize memo
   and the engine's block/frontier caches.  Correctness never depends
   on this — both stores are content-addressed — it bounds their
   growth over a long session. *)
let prune session formulas =
  let ids = List.sort_uniq Int.compare (List.map Ltl.id formulas) in
  if ids = session.last_ids then 0
  else begin
    let retain id = List.mem id ids in
    let dropped = Localize.prune_memo session.cache.Pipeline.memo ~retain in
    Bounded.prune_session session.cache.Pipeline.engine ~retain;
    session.last_ids <- ids;
    dropped
  end

let run session =
  let parse_hits0 = cache_hits "nlp.parse" in
  let engine0 = Bounded.session_stats session.cache.Pipeline.engine in
  let outcome =
    Pipeline.run_document ~options:session.options ~cache:session.cache
      session.doc
  in
  let localization =
    Pipeline.localize ~options:session.options ~cache:session.cache outcome
  in
  let invalidated = prune session outcome.Pipeline.formulas in
  session.invalidated_total <- session.invalidated_total + invalidated;
  let engine1 = Bounded.session_stats session.cache.Pipeline.engine in
  ( outcome,
    localization,
    {
      verdict_cached = false;
      parse_hits = cache_hits "nlp.parse" - parse_hits0;
      blocks_reused =
        engine1.Bounded.reused_blocks - engine0.Bounded.reused_blocks;
      solo_reused = engine1.Bounded.reused_solo - engine0.Bounded.reused_solo;
      invalidated;
    } )

let check session =
  let start = Unix.gettimeofday () in
  session.seq <- session.seq + 1;
  session.checks <- session.checks + 1;
  let finish (outcome, localization, reuse) =
    let culprit_id, partner_ids = ids_of session.doc outcome localization in
    {
      outcome;
      localization;
      culprit_id;
      partner_ids;
      wall_s = Unix.gettimeofday () -. start;
      reuse;
      seq = session.seq;
    }
  in
  let key = doc_key session.doc in
  match Verdict_lru.find_opt session.verdicts key with
  | Some (outcome, localization) ->
    session.verdict_hits <- session.verdict_hits + 1;
    finish
      ( outcome,
        localization,
        {
          verdict_cached = true;
          parse_hits = 0;
          blocks_reused = 0;
          solo_reused = 0;
          invalidated = 0;
        } )
  | None ->
    let ((outcome, localization, _) as result) = run session in
    (* An inconclusive verdict may come from a deadline, a cancellation
       or memory pressure rather than from the document, so only
       definite verdicts are remembered. *)
    (match outcome.Pipeline.report.Realizability.verdict with
     | Realizability.Consistent | Realizability.Inconsistent ->
       Verdict_lru.add session.verdicts key (outcome, localization)
     | Realizability.Inconclusive _ -> ());
    finish result

let check_cold ?options doc = check (create ?options doc)

let counters session =
  {
    checks = session.checks;
    verdict_hits = session.verdict_hits;
    engine = Bounded.session_stats session.cache.Pipeline.engine;
    localize_entries = Localize.memo_length session.cache.Pipeline.memo;
    invalidated_total = session.invalidated_total;
  }

(* A canonical rendering of everything a verdict claims — verdict
   class, engine, witnesses (controllers and counterstrategies are
   materialized transition-by-transition, since they carry closures)
   and the localization — so tests can assert bit-identity between an
   incremental check and a cold one with plain string equality. *)
let fingerprint checked =
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let report = checked.outcome.Pipeline.report in
  (match report.Realizability.verdict with
   | Realizability.Consistent -> add "consistent"
   | Realizability.Inconsistent -> add "inconsistent"
   | Realizability.Inconclusive why -> add ("inconclusive:" ^ why));
  add ("|engine=" ^ report.Realizability.engine_used);
  (match report.Realizability.controller with
   | None -> add "|controller=-"
   | Some m ->
     add
       (Printf.sprintf "|controller=%d/%d[%s;%s]" m.Mealy.num_states
          m.Mealy.initial
          (String.concat "," m.Mealy.inputs)
          (String.concat "," m.Mealy.outputs));
     let letters = 1 lsl List.length m.Mealy.inputs in
     for state = 0 to m.Mealy.num_states - 1 do
       for input = 0 to letters - 1 do
         let output, next = m.Mealy.step state input in
         add (Printf.sprintf ";%d.%d->%d.%d" state input output next)
       done
     done);
  (match report.Realizability.counterstrategy with
   | None -> add "|cs=-"
   | Some cs ->
     add
       (Printf.sprintf "|cs=%d/%d" cs.Bounded.cs_num_states
          cs.Bounded.cs_initial);
     let answers = 1 lsl List.length cs.Bounded.cs_outputs in
     for state = 0 to cs.Bounded.cs_num_states - 1 do
       add (Printf.sprintf ";%d!%d" state (cs.Bounded.cs_move state));
       for output = 0 to answers - 1 do
         add (Printf.sprintf ",%d" (cs.Bounded.cs_next state output))
       done
     done);
  (match report.Realizability.unsat_core with
   | None -> add "|core=-"
   | Some core ->
     add ("|core=" ^ String.concat "," (List.map string_of_int core)));
  (match checked.localization with
   | None -> add "|localize=-"
   | Some loc ->
     add
       (Printf.sprintf "|localize=%d<-[%s]~[%s]" loc.Localize.culprit
          (String.concat "," (List.map string_of_int loc.Localize.partners))
          (String.concat "," (List.map string_of_int loc.Localize.relevant))));
  Buffer.contents b
