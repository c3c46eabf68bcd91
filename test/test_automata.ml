(* Tests for the LTL → Büchi construction: hand-checked automata plus
   the key property test — automaton membership on random lasso words
   agrees with the exact trace semantics. *)

open Speccc_logic
open Speccc_automata

let parse = Ltl_parse.formula

let prop_names = [ "a"; "b"; "c" ]

(* Formula size is capped: the tableau is exponential in the worst
   case, and the membership check multiplies automaton size by lasso
   length. *)
let formula_gen =
  let open QCheck2.Gen in
  int_range 0 10 >>= fix (fun self size ->
      if size <= 1 then
        oneof
          [ return Ltl.True; return Ltl.False; map Ltl.prop (oneofl prop_names) ]
      else
        let sub = self (size / 2) in
        oneof
          [
            map Ltl.prop (oneofl prop_names);
            map (fun f -> Ltl.Not f) sub;
            map2 (fun f g -> Ltl.And (f, g)) sub sub;
            map2 (fun f g -> Ltl.Or (f, g)) sub sub;
            map2 (fun f g -> Ltl.Implies (f, g)) sub sub;
            map (fun f -> Ltl.Next f) sub;
            map (fun f -> Ltl.Eventually f) sub;
            map (fun f -> Ltl.Always f) sub;
            map2 (fun f g -> Ltl.Until (f, g)) sub sub;
            map2 (fun f g -> Ltl.Weak_until (f, g)) sub sub;
            map2 (fun f g -> Ltl.Release (f, g)) sub sub;
          ])

let letter_gen =
  let open QCheck2.Gen in
  flatten_l (List.map (fun name -> map (fun b -> (name, b)) bool) prop_names)

let trace_gen =
  let open QCheck2.Gen in
  map2
    (fun prefix loop -> Trace.make ~prefix ~loop)
    (list_size (int_range 0 3) letter_gen)
    (list_size (int_range 1 3) letter_gen)

let letter trues = List.map (fun p -> (p, List.mem p trues)) prop_names

let accepts f word = Nbw.accepts_lasso (Nbw.of_ltl f) word

let test_atomic () =
  let wa = Trace.constant (letter [ "a" ]) in
  let wb = Trace.constant (letter [ "b" ]) in
  Alcotest.(check bool) "a accepts a^w" true (accepts (parse "a") wa);
  Alcotest.(check bool) "a rejects b^w" false (accepts (parse "a") wb);
  Alcotest.(check bool) "true accepts" true (accepts Ltl.tt wa);
  Alcotest.(check bool) "false rejects" false (accepts Ltl.ff wa)

let test_temporal () =
  let w =
    Trace.make ~prefix:[ letter [ "a" ]; letter [ "a" ] ]
      ~loop:[ letter [ "b" ] ]
  in
  Alcotest.(check bool) "a U b" true (accepts (parse "a U b") w);
  Alcotest.(check bool) "G a fails" false (accepts (parse "G a") w);
  Alcotest.(check bool) "F G b" true (accepts (parse "F G b") w);
  Alcotest.(check bool) "G F b" true (accepts (parse "G F b") w);
  Alcotest.(check bool) "X X G b" true (accepts (parse "X X G b") w);
  Alcotest.(check bool) "X G b fails" false (accepts (parse "X G b") w)

let test_liveness_automaton () =
  (* G F a on a word alternating a / not-a is accepted; on eventually
     never-a it is rejected. *)
  let alternating =
    Trace.make ~prefix:[] ~loop:[ letter [ "a" ]; letter [] ]
  in
  let dies =
    Trace.make ~prefix:[ letter [ "a" ] ] ~loop:[ letter [] ]
  in
  Alcotest.(check bool) "GFa on (a;-)^w" true
    (accepts (parse "G F a") alternating);
  Alcotest.(check bool) "GFa on a(-)^w" false (accepts (parse "G F a") dies)

let test_sizes_reasonable () =
  let auto = Nbw.of_ltl (parse "G (a -> F b)") in
  Alcotest.(check bool) "nontrivial automaton" true (auto.Nbw.num_states > 1);
  Alcotest.(check bool) "has accepting states" true
    (Array.exists Fun.id auto.Nbw.accepting)

let prop_membership_matches_semantics =
  QCheck2.Test.make ~count:400
    ~name:"NBW membership = trace semantics"
    QCheck2.Gen.(pair formula_gen trace_gen)
    (fun (f, w) -> accepts f w = Trace.holds w f)

let prop_negation_partitions =
  QCheck2.Test.make ~count:200
    ~name:"exactly one of A(f), A(!f) accepts each lasso"
    QCheck2.Gen.(pair formula_gen trace_gen)
    (fun (f, w) -> accepts f w <> accepts (Ltl.Not f) w)

(* --- template-compiled automata --- *)

(* Shapes the pattern catalogue recognizes, with small propositional
   parameters: every generated formula must take the template path. *)
let template_formula_gen =
  let open QCheck2.Gen in
  let atom = map Ltl.prop (oneofl prop_names) in
  let state_formula =
    oneof
      [
        atom;
        map (fun f -> Ltl.Not f) atom;
        map2 (fun f g -> Ltl.And (f, g)) atom atom;
        map2 (fun f g -> Ltl.Or (f, g)) atom atom;
      ]
  in
  oneof
    [
      map (fun p -> Ltl.Always (Ltl.Not p)) state_formula;
      map (fun p -> Ltl.Always p) state_formula;
      map (fun p -> Ltl.Eventually p) state_formula;
      map2
        (fun g r -> Ltl.Always (Ltl.Implies (g, Ltl.Eventually r)))
        state_formula state_formula;
      map2 (fun p s -> Ltl.Weak_until (Ltl.Not p, s)) state_formula
        state_formula;
    ]

let prop_template_matches_tableau =
  QCheck2.Test.make ~count:150
    ~name:"template-compiled automata accept the same lassos as the tableau"
    QCheck2.Gen.(pair template_formula_gen (list_size (int_range 1 4) trace_gen))
    (fun (f, words) ->
       if Template.abstract f = None then
         QCheck2.Test.fail_report "generator produced a non-template shape";
       let templated = Nbw.of_ltl f in
       let tableau = Nbw.tableau f in
       List.for_all
         (fun w ->
            Nbw.accepts_lasso templated w = Nbw.accepts_lasso tableau w)
         words)

let template_hits () =
  match
    List.find_opt
      (fun s -> s.Speccc_cache.Cache.name = "nbw.template")
      (Speccc_cache.Cache.stats ())
  with
  | Some s -> s.Speccc_cache.Cache.hits
  | None -> 0

let test_template_sharing () =
  let first = Nbw.of_ltl (parse "G (tpl_p -> F tpl_q)") in
  let before = template_hits () in
  let second = Nbw.of_ltl (parse "G (tpl_r -> F tpl_s)") in
  Alcotest.(check bool) "second instance served from the compiled shape" true
    (template_hits () > before);
  Alcotest.(check int) "instances share the shape's state count"
    first.Nbw.num_states second.Nbw.num_states;
  Alcotest.(check (slist string compare)) "atoms substituted"
    [ "tpl_r"; "tpl_s" ] second.Nbw.atoms

(* --- one path for governed calls --- *)

module Budget = Speccc_runtime.Budget
module Cache = Speccc_cache.Cache
module Fault = Speccc_runtime.Fault

let fuel_of f =
  let budget = Budget.unlimited () in
  ignore (Nbw.of_ltl ~budget f);
  Budget.spent budget

(* Random formulas from the fuzzer's generator (mostly off-template)
   and catalogue instances (always on-template). *)
let governed_formula_gen =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun seed ->
           Speccc_diffcheck.Gen.formula
             (Speccc_diffcheck.Prng.make seed)
             ~props:prop_names ~depth:3)
        int;
      template_formula_gen;
    ]

let prop_fuel_cache_independent =
  QCheck2.Test.make ~count:100
    ~name:"fuel spent is the same with a cold, warm, shed or disabled cache"
    governed_formula_gen
    (fun f ->
       Cache.reset ();
       let cold = fuel_of f in
       let warm = fuel_of f in
       Cache.shed ();
       let shed = fuel_of f in
       Cache.set_enabled false;
       let disabled =
         Fun.protect ~finally:(fun () -> Cache.set_enabled true) (fun () ->
             fuel_of f)
       in
       List.for_all (( = ) cold) [ warm; shed; disabled ])

let test_expand_once_per_call () =
  let formulas =
    [ parse "G (tpl_e -> F tpl_f)"; parse "G (tpl_e -> F tpl_f)";
      parse "a U (b && X c)" ]
  in
  Fault.install [];
  Fun.protect ~finally:Fault.clear (fun () ->
      List.iteri
        (fun i f ->
           ignore (Nbw.of_ltl ~budget:(Budget.unlimited ()) f);
           Alcotest.(check int) "one tableau.expand per call" (i + 1)
             (Fault.hits Fault.Checkpoint.tableau_expand))
        formulas)

let test_budgeted_calls_use_templates () =
  ignore (Nbw.of_ltl (parse "G (tpl_u -> F tpl_v)"));
  let before = template_hits () in
  let budget = Budget.create ~fuel:1_000_000 () in
  let auto = Nbw.of_ltl ~budget (parse "G (tpl_w -> F tpl_x)") in
  Alcotest.(check bool) "budgeted instance served from the compiled shape"
    true
    (template_hits () > before);
  Alcotest.(check (slist string compare)) "atoms substituted"
    [ "tpl_w"; "tpl_x" ] auto.Nbw.atoms;
  Alcotest.(check bool) "the hit still spends fuel" true
    (Budget.spent budget > 0)

let () =
  Alcotest.run "automata"
    [
      ( "nbw",
        [
          Alcotest.test_case "atomic" `Quick test_atomic;
          Alcotest.test_case "temporal" `Quick test_temporal;
          Alcotest.test_case "liveness" `Quick test_liveness_automaton;
          Alcotest.test_case "sizes" `Quick test_sizes_reasonable;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_membership_matches_semantics;
          QCheck_alcotest.to_alcotest prop_negation_partitions;
        ] );
      ( "template",
        [
          QCheck_alcotest.to_alcotest prop_template_matches_tableau;
          Alcotest.test_case "sharing" `Quick test_template_sharing;
        ] );
      ( "governed",
        [
          QCheck_alcotest.to_alcotest prop_fuel_cache_independent;
          Alcotest.test_case "tableau.expand once per call" `Quick
            test_expand_once_per_call;
          Alcotest.test_case "budgeted calls use templates" `Quick
            test_budgeted_calls_use_templates;
        ] );
    ]
