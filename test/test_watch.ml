(* Incremental re-checking (the watch session): whatever edit sequence
   led to the current document, the session's verdict — witnesses and
   localization included — must be bit-identical to a cold start on
   the same document.  [Watch.fingerprint] materializes everything a
   check claims (controllers transition-by-transition), so identity is
   plain string equality. *)

open Speccc_logic
open Speccc_core
open Speccc_synthesis

let explicit_options =
  { (Pipeline.default_options ()) with
    Pipeline.engine = Realizability.Explicit }

let doc_of items =
  List.mapi
    (fun line (id, text) -> { Document.id; text; line = line + 1 })
    items

let base_doc () =
  doc_of
    [
      ("R1", "If the start button is pressed, the pump is started.");
      ("R2", "If the pump is lost, the alarm is triggered.");
      ("R3", "When the pump is started, eventually the cuff is inflated.");
    ]

(* The oracle: a throwaway session over the same document — same code
   path, no inherited state. *)
let check_against_cold session =
  let live = Watch.check session in
  let cold = Watch.check_cold ~options:explicit_options
      (Watch.document session)
  in
  Alcotest.(check string) "incremental = cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  live

let verdict_class (checked : Watch.checked) =
  match checked.Watch.outcome.Pipeline.report.Realizability.verdict with
  | Realizability.Consistent -> "consistent"
  | Realizability.Inconsistent -> "inconsistent"
  | Realizability.Inconclusive _ -> "inconclusive"

(* The full-pipeline reference: verdict class from
   [Pipeline.run_document], culprit from [Pipeline.localize] without a
   cache (fresh partitions, no session). *)
let pipeline_reference doc =
  let outcome = Pipeline.run_document ~options:explicit_options doc in
  let culprit =
    Pipeline.localize ~options:explicit_options outcome
    |> Option.map (fun l -> Document.id_at doc l.Localize.culprit)
  in
  let verdict =
    match outcome.Pipeline.report.Realizability.verdict with
    | Realizability.Consistent -> "consistent"
    | Realizability.Inconsistent -> "inconsistent"
    | Realizability.Inconclusive _ -> "inconclusive"
  in
  (verdict, culprit)

let ok = function
  | Ok () -> ()
  | Error message -> Alcotest.fail message

let test_scripted_edit_drill () =
  let session = Watch.create ~options:explicit_options (base_doc ()) in
  let initial = check_against_cold session in
  Alcotest.(check string) "starts consistent" "consistent"
    (verdict_class initial);
  (* grow the document *)
  ok (Watch.insert session ~id:"R4"
        ~text:"If the cuff is inflated, the valve is opened.");
  ignore (check_against_cold session);
  (* introduce a conflict: R5 contradicts R2 on the same trigger *)
  ok (Watch.insert session ~id:"R5"
        ~text:"If the pump is lost, the alarm is not triggered.");
  let broken = check_against_cold session in
  Alcotest.(check string) "conflict detected" "inconsistent"
    (verdict_class broken);
  let ref_verdict, ref_culprit = pipeline_reference (Watch.document session) in
  Alcotest.(check string) "pipeline agrees on the verdict" ref_verdict
    (verdict_class broken);
  Alcotest.(check (option string)) "pipeline agrees on the culprit"
    ref_culprit broken.Watch.culprit_id;
  Alcotest.(check (option string)) "culprit is the contradicting edit"
    (Some "R5") broken.Watch.culprit_id;
  Alcotest.(check (list string)) "partnered with its mirror" [ "R2" ]
    broken.Watch.partner_ids;
  (* repair by editing the culprit instead of deleting it *)
  ok (Watch.edit session ~id:"R5"
        ~text:"If the cuff is lost, the alarm is triggered.");
  let repaired = check_against_cold session in
  Alcotest.(check string) "repair restores consistency" "consistent"
    (verdict_class repaired);
  (* delete and re-check once more *)
  ok (Watch.delete session ~id:"R4");
  ignore (check_against_cold session);
  let counters = Watch.counters session in
  Alcotest.(check bool) "the session actually reused engine state" true
    (counters.Watch.engine.Bounded.reused_blocks > 0);
  Alcotest.(check bool) "edits invalidated stale state" true
    (counters.Watch.invalidated_total >= 0)

let test_edit_then_revert_is_noop () =
  let session = Watch.create ~options:explicit_options (base_doc ()) in
  let before = Watch.check session in
  ok (Watch.edit session ~id:"R2"
        ~text:"If the pump is lost, the alarm is not triggered.");
  ignore (Watch.check session);
  ok (Watch.edit session ~id:"R2"
        ~text:"If the pump is lost, the alarm is triggered.");
  let after = Watch.check session in
  Alcotest.(check string) "revert restores the verdict verbatim"
    (Watch.fingerprint before) (Watch.fingerprint after);
  Alcotest.(check bool) "and is answered from the verdict cache" true
    after.Watch.reuse.Watch.verdict_cached

let test_assumptions_take_the_stock_path () =
  (* Assumption-carrying documents cannot use the session's block
     decomposition (the spec is an implication); the session must
     still answer, identically to cold. *)
  let doc =
    Document.parse
      "Assume-1: The lock is inactive or the request is lost.\n\
       R1: If the lock is active, the grant is disabled.\n\
       R2: If the request is available, the grant is enabled.\n"
  in
  let session = Watch.create ~options:explicit_options doc in
  let live = check_against_cold session in
  Alcotest.(check string) "realizable under the assumption" "consistent"
    (verdict_class live);
  ok (Watch.edit session ~id:"R2"
        ~text:"If the request is lost, the grant is enabled.");
  ignore (check_against_cold session)

let test_governed_sessions_bypass_the_caches () =
  let options = { explicit_options with Pipeline.fuel = Some 2_000_000 } in
  let session = Watch.create ~options (base_doc ()) in
  let live = Watch.check session in
  let cold = Watch.check_cold ~options (Watch.document session) in
  Alcotest.(check string) "governed watch = governed cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  Alcotest.(check bool) "no engine reuse on the governed path" true
    (not live.Watch.reuse.Watch.verdict_cached
     && live.Watch.reuse.Watch.blocks_reused = 0)

(* Under [recover] the dropped sentence is not among the formulas the
   localization indices count, so the culprit and its partner must be
   named through the surviving requirements, never the dropped one. *)
let test_recover_names_surviving_requirements () =
  let options = { explicit_options with Pipeline.recover = true } in
  let doc =
    Document.parse
      "R1: the the the.\n\
       R2: If the pump is lost, the alarm is triggered.\n\
       R3: If the pump is lost, the alarm is not triggered.\n"
  in
  let session = Watch.create ~options doc in
  let live = Watch.check session in
  Alcotest.(check (list string)) "R1 is dropped" [ "R1" ]
    (List.map fst live.Watch.outcome.Pipeline.diagnostics);
  Alcotest.(check string) "the survivors conflict" "inconsistent"
    (verdict_class live);
  Alcotest.(check (option string)) "culprit" (Some "R3") live.Watch.culprit_id;
  Alcotest.(check (list string)) "partners" [ "R2" ] live.Watch.partner_ids;
  let cold = Watch.check_cold ~options doc in
  Alcotest.(check string) "recovering watch = recovering cold"
    (Watch.fingerprint cold) (Watch.fingerprint live)

let test_certify_sessions_match_cold () =
  let options = { explicit_options with Pipeline.certify = true } in
  let session = Watch.create ~options (base_doc ()) in
  let initial = Watch.check session in
  Alcotest.(check bool) "the verdict is certified" true
    (initial.Watch.outcome.Pipeline.certificate <> None);
  ok (Watch.insert session ~id:"R4"
        ~text:"If the pump is lost, the alarm is not triggered.");
  let live = Watch.check session in
  let cold = Watch.check_cold ~options (Watch.document session) in
  Alcotest.(check string) "certifying watch = certifying cold"
    (Watch.fingerprint cold) (Watch.fingerprint live);
  Alcotest.(check (option string)) "culprit" (Some "R4") live.Watch.culprit_id

(* --- randomized drills --- *)

let sentence_pool =
  [|
    "If the pump is lost, the alarm is triggered.";
    "If the pump is lost, the alarm is not triggered.";
    "If the start button is pressed, the pump is started.";
    "When the pump is started, eventually the cuff is inflated.";
    "If the cuff is inflated, the valve is opened.";
    "If the valve is opened, the alarm is not triggered.";
  |]

type op =
  | Edit of int * int      (* position (mod size), sentence index *)
  | Insert of int * int
  | Delete of int

let op_gen =
  let open QCheck2.Gen in
  let sentence = int_bound (Array.length sentence_pool - 1) in
  oneof
    [
      map2 (fun p s -> Edit (p, s)) (int_bound 7) sentence;
      map2 (fun p s -> Insert (p, s)) (int_bound 7) sentence;
      map (fun p -> Delete p) (int_bound 7);
    ]

let apply_op session fresh op =
  let doc = Watch.document session in
  let size = List.length doc in
  match op with
  | Edit (p, s) ->
    ok
      (Watch.edit session
         ~id:(Document.id_at doc (p mod size))
         ~text:sentence_pool.(s))
  | Insert (p, s) ->
    incr fresh;
    ok
      (Watch.insert ~at:(p mod (size + 1)) session
         ~id:(Printf.sprintf "N%d" !fresh)
         ~text:sentence_pool.(s))
  | Delete p ->
    (* never empty the document *)
    if size > 1 then
      ok (Watch.delete session ~id:(Document.id_at doc (p mod size)))

let prop_random_edit_sequences =
  QCheck2.Test.make ~count:12 ~name:"watch: random edits = cold restart"
    QCheck2.Gen.(list_size (int_range 1 5) op_gen)
    (fun ops ->
       let session = Watch.create ~options:explicit_options (base_doc ()) in
       let fresh = ref 0 in
       ignore (Watch.check session);
       List.iter
         (fun op ->
            apply_op session fresh op;
            let live = Watch.check session in
            let cold =
              Watch.check_cold ~options:explicit_options
                (Watch.document session)
            in
            if Watch.fingerprint live <> Watch.fingerprint cold then
              QCheck2.Test.fail_reportf
                "divergence after %d ops:@.live: %s@.cold: %s"
                (List.length ops) (Watch.fingerprint live)
                (Watch.fingerprint cold))
         ops;
       true)

(* Warm-session [solve_conj] must be bit-identical to a fresh run, and
   must agree with the stock conjunction solver whenever both are
   definite (both are exact then; only Unknown boundaries may differ
   between the union-automaton and conjunction-automaton games). *)
let formula_pool =
  [|
    "G (i1 -> o1)";
    "G (i1 -> !o1)";
    "G (i2 -> o2)";
    "G (i2 -> X o2)";
    "G (i1 -> F o2)";
    "F o1";
    "G !o2";
  |]

let materialize = function
  | Bounded.Realizable m ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "realizable %d/%d" m.Mealy.num_states m.Mealy.initial);
    let letters = 1 lsl List.length m.Mealy.inputs in
    for state = 0 to m.Mealy.num_states - 1 do
      for input = 0 to letters - 1 do
        let output, next = m.Mealy.step state input in
        Buffer.add_string b (Printf.sprintf ";%d.%d->%d.%d" state input output next)
      done
    done;
    Buffer.contents b
  | Bounded.Unrealizable cs ->
    let b = Buffer.create 64 in
    Buffer.add_string b
      (Printf.sprintf "unrealizable %d/%d" cs.Bounded.cs_num_states
         cs.Bounded.cs_initial);
    let answers = 1 lsl List.length cs.Bounded.cs_outputs in
    for state = 0 to cs.Bounded.cs_num_states - 1 do
      Buffer.add_string b (Printf.sprintf ";%d!%d" state (cs.Bounded.cs_move state));
      for output = 0 to answers - 1 do
        Buffer.add_string b (Printf.sprintf ",%d" (cs.Bounded.cs_next state output))
      done
    done;
    Buffer.contents b
  | Bounded.Unknown bound -> Printf.sprintf "unknown %d" bound

let prop_solve_conj_warm_equals_fresh =
  let session = Bounded.create_session () in
  QCheck2.Test.make ~count:40
    ~name:"solve_conj: warm session = fresh session"
    QCheck2.Gen.(list_size (int_range 2 4)
                   (int_bound (Array.length formula_pool - 1)))
    (fun picks ->
       let formulas =
         List.map (fun i -> Ltl_parse.formula formula_pool.(i)) picks
       in
       let inputs = [ "i1"; "i2" ] and outputs = [ "o1"; "o2" ] in
       let warm =
         Bounded.solve_conj ~session ~inputs ~outputs formulas
       in
       let fresh = Bounded.solve_conj ~inputs ~outputs formulas in
       if materialize warm <> materialize fresh then
         QCheck2.Test.fail_reportf "warm %s <> fresh %s" (materialize warm)
           (materialize fresh);
       let stock =
         Bounded.solve ~inputs ~outputs (Ltl.conj_list formulas)
       in
       (match (warm, stock) with
        | Bounded.Realizable _, Bounded.Unrealizable _
        | Bounded.Unrealizable _, Bounded.Realizable _ ->
          QCheck2.Test.fail_reportf
            "definite disagreement: decomposed %s vs stock %s"
            (materialize warm) (materialize stock)
        | _ -> ());
       true)

let () =
  Alcotest.run "watch"
    [
      ( "identity",
        [
          Alcotest.test_case "scripted edit drill" `Quick
            test_scripted_edit_drill;
          Alcotest.test_case "edit then revert is a no-op" `Quick
            test_edit_then_revert_is_noop;
          Alcotest.test_case "assumptions take the stock path" `Quick
            test_assumptions_take_the_stock_path;
          Alcotest.test_case "governed sessions bypass the caches" `Quick
            test_governed_sessions_bypass_the_caches;
          Alcotest.test_case "recover names surviving requirements" `Quick
            test_recover_names_surviving_requirements;
          Alcotest.test_case "certify sessions match cold" `Quick
            test_certify_sessions_match_cold;
        ] );
      ( "random",
        [
          QCheck_alcotest.to_alcotest prop_random_edit_sequences;
          QCheck_alcotest.to_alcotest prop_solve_conj_warm_equals_fresh;
        ] );
    ]
