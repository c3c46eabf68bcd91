(* Tests for the bounded LRU memoization cache: eviction order and
   recency promotion, memo counters, the global pass-through switch,
   and the property the whole PR rests on — verdicts are identical
   with caching on and off. *)

open Speccc_cache

module C = Cache.Make (Cache.Int_key)

let stat name =
  List.find_opt (fun s -> s.Cache.name = name) (Cache.stats ())

(* ---------- LRU mechanics ---------- *)

let test_lru_eviction_order () =
  let c = C.create ~name:"test.evict" ~capacity:3 () in
  C.add c 1 "one";
  C.add c 2 "two";
  C.add c 3 "three";
  C.add c 4 "four";
  Alcotest.(check (option string)) "oldest evicted" None (C.find_opt c 1);
  Alcotest.(check (option string)) "2 kept" (Some "two") (C.find_opt c 2);
  Alcotest.(check (option string)) "4 kept" (Some "four") (C.find_opt c 4);
  Alcotest.(check int) "at capacity" 3 (C.length c)

let test_lru_promotion () =
  let c = C.create ~name:"test.promote" ~capacity:3 () in
  C.add c 1 "one";
  C.add c 2 "two";
  C.add c 3 "three";
  (* Touch 1 so it is the most recent; the next insert must evict 2. *)
  ignore (C.find_opt c 1);
  C.add c 4 "four";
  Alcotest.(check (option string)) "promoted survives" (Some "one")
    (C.find_opt c 1);
  Alcotest.(check (option string)) "unpromoted evicted" None
    (C.find_opt c 2)

let test_memo_counters () =
  let c = C.create ~name:"test.counters" ~capacity:8 () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  Alcotest.(check int) "first memo computes" 42 (C.memo c 7 compute);
  Alcotest.(check int) "second memo replays" 42 (C.memo c 7 compute);
  Alcotest.(check int) "one computation" 1 !calls;
  match stat "test.counters" with
  | None -> Alcotest.fail "cache not registered"
  | Some s ->
    Alcotest.(check int) "one hit" 1 s.Cache.hits;
    Alcotest.(check int) "one miss" 1 s.Cache.misses;
    Alcotest.(check bool) "hit rate is 1/2" true
      (abs_float (Cache.hit_rate s -. 0.5) < 1e-9)

let test_disabled_is_passthrough () =
  let c = C.create ~name:"test.disabled" ~capacity:8 () in
  Cache.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Cache.set_enabled true)
    (fun () ->
       let calls = ref 0 in
       let compute () = incr calls; 1 in
       ignore (C.memo c 1 compute);
       ignore (C.memo c 1 compute);
       Alcotest.(check int) "every memo recomputes" 2 !calls;
       Alcotest.(check int) "nothing stored" 0 (C.length c);
       match stat "test.disabled" with
       | None -> Alcotest.fail "cache not registered"
       | Some s ->
         Alcotest.(check int) "no counters moved" 0
           (s.Cache.hits + s.Cache.misses))

(* ---------- verdicts do not depend on memoization ---------- *)

let parse = Speccc_logic.Ltl_parse.formula

let verdict_sets =
  [ [ "G (trigger -> flag)"; "G (trigger -> !flag)" ];
    [ "G (a -> X b)"; "F a" ];
    [ "G (req -> F ack)" ];
    [ "G (a -> X b)"; "G (a -> X !b)"; "G (F a)" ] ]

let check_all engine =
  let options =
    { (Speccc_core.Pipeline.default_options ()) with
      Speccc_core.Pipeline.engine }
  in
  List.map
    (fun texts ->
       let formulas = List.map parse texts in
       let _, report =
         Speccc_core.Pipeline.check_formulas ~options formulas
       in
       report.Speccc_synthesis.Realizability.verdict)
    verdict_sets

let test_verdicts_cache_independent () =
  List.iter
    (fun engine ->
       let cached = check_all engine in
       Cache.reset ();
       Cache.set_enabled false;
       let uncached =
         Fun.protect
           ~finally:(fun () -> Cache.set_enabled true)
           (fun () -> check_all engine)
       in
       List.iter2
         (fun a b ->
            Alcotest.(check bool) "cached verdict = uncached verdict" true
              (a = b))
         cached uncached)
    [ Speccc_synthesis.Realizability.Explicit;
      Speccc_synthesis.Realizability.Symbolic ]

(* ---------- capacity table ---------- *)

let test_capacity_table () =
  Alcotest.(check int) "unknown names keep their default" 77
    (Cache.capacity ~name:"no-such-cache" ~default:77);
  Alcotest.(check int) "template cache size comes from the table" 1024
    (Cache.capacity ~name:"nbw.template" ~default:1);
  (* the live instance must actually carry the table's size *)
  match stat "nbw.template" with
  | Some s ->
    Alcotest.(check int) "live instance uses the table"
      (Cache.capacity ~name:"nbw.template" ~default:1)
      s.Cache.capacity
  | None ->
    (* instance not created in this process yet: force it with a
       template instance (absence) *)
    ignore
      (Speccc_automata.Nbw.of_ltl
         (Speccc_logic.Ltl.Always
            (Speccc_logic.Ltl.Not (Speccc_logic.Ltl.prop "capacity_probe"))));
    (match stat "nbw.template" with
     | Some s ->
       Alcotest.(check int) "live instance uses the table"
         (Cache.capacity ~name:"nbw.template" ~default:1)
         s.Cache.capacity
     | None -> Alcotest.fail "nbw.template cache not registered")

let () =
  Alcotest.run "cache"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "recency promotion" `Quick test_lru_promotion;
          Alcotest.test_case "memo counters" `Quick test_memo_counters;
          Alcotest.test_case "disabled pass-through" `Quick
            test_disabled_is_passthrough;
          Alcotest.test_case "capacity table" `Quick test_capacity_table;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "verdicts cache-independent" `Quick
            test_verdicts_cache_independent;
        ] );
    ]
