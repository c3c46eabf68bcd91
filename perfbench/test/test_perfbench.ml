(* Tests of the benchmark itself: seeded generation, the tail
   percentile rule, span self time, and the known-answer abort. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let raises_wrong f =
  match f () with
  | exception Answer.Wrong_answer _ -> true
  | _ -> false

(* ---------- generator determinism ---------- *)

let take n next = List.init n (fun _ -> next ())

let localize_digest seed =
  take 20 (Gen.localize_stream (Gen.rng ~seed ~stream:2)) |> List.map Gen.digest_localize

let serve_digest seed =
  take 60 (Gen.serve_stream (Gen.rng ~seed ~stream:3)) |> List.map Gen.digest_request

let watch_digest seed =
  let rng = Gen.rng ~seed ~stream:4 in
  let initial = Gen.watch_initial rng in
  let next = Gen.watch_script rng initial in
  List.map (fun (i, t) -> i ^ " " ^ t) initial
  @ List.map (fun (step, _) -> Gen.digest_step step) (take 200 next)

let () =
  List.iter
    (fun (name, digest) ->
       check (name ^ ": same seed, same inputs") (digest 7 = digest 7);
       check (name ^ ": another seed, other inputs") (digest 7 <> digest 8))
    [ ("localize documents", localize_digest);
      ("serve requests", serve_digest); ("watch script", watch_digest) ]

let () =
  let stream = take 240 (Gen.serve_stream (Gen.rng ~seed:3 ~stream:3)) in
  let count p = List.length (List.filter p stream) in
  check "serve stream: 3 repeats in every 12 requests" (count (fun r -> r.Gen.repeat) = 60);
  check "serve stream: 3 conflicts in every 9 fresh documents"
    (count (fun r -> (not r.Gen.repeat) && r.Gen.klass = Answer.Inconsistent) = 60);
  let rng = Gen.rng ~seed:3 ~stream:4 in
  let initial = Gen.watch_initial rng in
  let script = take 200 (Gen.watch_script rng initial) in
  let steps p = List.length (List.filter (fun (step, _) -> p step) script) in
  check "watch script: 7 edits, 1 revert, 1 insert, 1 delete in every 10 steps"
    (steps (function Gen.Edit _ -> true | _ -> false) = 140
     && steps (function Gen.Revert _ -> true | _ -> false) = 20
     && steps (function Gen.Insert _ -> true | _ -> false) = 20
     && steps (function Gen.Delete _ -> true | _ -> false) = 20);
  check "watch script: a revert restores the document before the edit"
    (let after = Array.of_list (List.map snd script) in
     let before i = if i = 0 then initial else after.(i - 1) in
     List.for_all
       (fun (i, (step, doc)) ->
          match step with
          | Gen.Revert _ -> i >= 1 && doc = before (i - 1)
          | _ -> true)
       (List.mapi (fun i s -> (i, s)) script));
  check "watch script: the size stays within one of the start"
    (List.for_all (fun (_, doc) -> abs (List.length doc - List.length initial) <= 1) script);
  let docs = take 45 (Gen.localize_stream (Gen.rng ~seed:3 ~stream:2)) in
  check "localize stream: every size once per block"
    (List.sort compare (List.map (fun d -> List.length d.Gen.formulas) docs)
     = List.sort compare (List.concat (List.init 5 (fun _ -> Gen.localize_sizes))));
  check "localize stream: the pair is planted where recorded"
    (List.for_all
       (fun d ->
          d.Gen.partner < d.Gen.culprit
          && List.sort compare
               [ List.nth d.Gen.formulas d.Gen.partner; List.nth d.Gen.formulas d.Gen.culprit ]
             = [ "G (trig -> !flag)"; "G (trig -> flag)" ])
       docs)

(* ---------- the "at least 10 samples beyond" tail rule ---------- *)

let close ?(eps = 1e-6) a b = Float.abs (a -. b) < eps

let () =
  let samples n = List.init n (fun i -> float_of_int (n - i)) in
  let t = Stats.tail (samples 44) in
  check "tail of 44: p77.27, 10 beyond, near rank 34"
    (close ~eps:1e-3 t.Stats.percentile 77.2727 && t.Stats.beyond = 10
     && t.Stats.value > 32. && t.Stats.value <= 34.);
  let t = Stats.tail (samples 1000) in
  check "tail of 1000: p99, near rank 990"
    (t.Stats.percentile = 99. && t.Stats.beyond = 10 && t.Stats.value > 985. && t.Stats.value <= 990.);
  let t' = Stats.tail (List.map (fun x -> if x > 990. then 1e6 else x) (samples 1000)) in
  check "tail: the samples beyond it do not move it" (close t'.Stats.value t.Stats.value);
  let t = Stats.tail (samples 11) in
  check "tail of 11: p9.09 has 10 beyond" (close ~eps:1e-3 t.Stats.percentile 9.0909 && t.Stats.beyond = 10);
  let t = Stats.tail (samples 10) in
  check "tail of 10: no percentile qualifies, the maximum"
    (t.Stats.value = 10. && t.Stats.beyond = 0);
  check "median, even count: between the middle samples" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median, odd count" (close (Stats.median [ 5.; 1.; 3. ]) 3.);
  check "median of equal samples" (close (Stats.median [ 7.; 7.; 7.; 7.; 7. ]) 7.);
  (* one sample of 21 slowing past its neighbours moves the estimate by
     a fraction of the change, where the middle order statistic would
     take all of it *)
  let base = List.init 21 (fun i -> float_of_int i) in
  let moved = List.map (fun x -> if x = 10. then 10.9 else x) base in
  let d = Stats.median moved -. Stats.median base in
  check "median: one sample moves it by part of its change" (d > 0. && d < 0.5);
  (* blocks: the percentile is the block's, and one block's stall does
     not move the median of three *)
  let block = List.init 100 (fun i -> float_of_int (i + 1)) in
  let stalled = List.map (fun x -> x *. 10.) block in
  let t = Stats.block_tail ~block:100 (block @ block @ block @ [ 1e6 ]) in
  let t' = Stats.block_tail ~block:100 (block @ stalled @ block) in
  check "block tail: p90 per block of 100, 3 blocks, the partial block left out"
    (t.Stats.percentile = 90. && t.Stats.blocks = 3 && t.Stats.value > 85. && t.Stats.value <= 90.);
  check "block tail: one stalled block does not move it" (close t'.Stats.value t.Stats.value);
  check "block tail: fewer samples than a block, the whole run"
    (close (Stats.block_tail ~block:100 (samples 44)).Stats.value (Stats.tail (samples 44)).Stats.value);
  (* completions at 1 s per op, but the second block of 10 takes 100 s *)
  let times = List.init 30 (fun i -> float_of_int (i + 1) +. if i >= 10 then 90. else 0.) in
  check "block rate: the median over blocks, one slow block ignored"
    (close (Stats.block_rate ~block:10 ~window_s:120. times) 1.);
  check "block rate: fewer operations than a block, over the window"
    (close (Stats.block_rate ~block:10 ~window_s:4. [ 1.; 2. ]) 0.5)

(* ---------- self time over nested spans ---------- *)

let () =
  let span id parent start stop = { Span.id; name = "s" ^ string_of_int id; op = 1; parent; start; stop } in
  let spans =
    [ span 1 0 0. 10.; span 2 1 1. 3.; span 3 1 2. 5.; span 4 1 8. 12.; span 5 2 1.5 2.5 ]
  in
  let self id = List.assoc id (List.map (fun (s, t) -> (s.Span.id, t)) (Span.self_times spans)) in
  check "self time: overlapping and overhanging children are covered once"
    (Float.abs (self 1 -. 4.) < 1e-9);
  check "self time: a grandchild counts against its parent only"
    (Float.abs (self 2 -. 1.) < 1e-9);
  check "self time: a leaf keeps its whole duration" (Float.abs (self 5 -. 1.) < 1e-9);
  Span.clear ();
  Span.set_enabled true;
  Span.with_op 42 (fun () ->
      Span.with_span "outer" (fun () -> Span.with_span "inner" (fun () -> ignore (Sys.time ()))));
  Span.set_enabled false;
  (match Span.all () with
   | [ inner; outer ] ->
     check "spans: nesting records the parent"
       (inner.Span.name = "inner" && outer.Span.name = "outer"
        && inner.Span.parent = outer.Span.id && outer.Span.parent = 0);
     check "spans: one operation id" (inner.Span.op = 42 && outer.Span.op = 42)
   | _ -> check "spans: two recorded" false);
  Span.clear ();
  Span.with_span "off" ignore;
  check "spans: nothing recorded while disabled" (Span.all () = [])

(* ---------- a wrong definite answer aborts ---------- *)

let () =
  let open Speccc_casestudies in
  let robot = List.find (fun r -> W_table1.row_name r = "Robot:1") Table1.rows in
  let options = W_table1.options () in
  let c = W_table1.check ~trace:false options robot in
  check "table1: Robot:1 passes its known answer" (W_table1.judge robot c = Answer.Definite);
  let wrong = { robot with Table1.expected = Table1.Inconsistent_until_partition_fix "carry" } in
  check "table1: a wrong expected answer aborts"
    (raises_wrong (fun () -> W_table1.judge wrong (W_table1.check ~trace:false options wrong)));
  let traced = W_table1.check ~trace:true options robot in
  check "table1: the traced replay agrees with the pipeline"
    (not (raises_wrong (fun () -> W_table1.assert_no_drift robot ~untraced:c ~traced)));
  check "table1: a drifted replay aborts"
    (raises_wrong (fun () ->
         W_table1.assert_no_drift robot ~untraced:c
           ~traced:{ traced with W_table1.final = { traced.W_table1.final with Replay.states = Some 0 } }))

let () =
  let doc = Gen.localize_doc (Gen.rng ~seed:1 ~stream:9) ~n:8 ~shape:(2, 3) ~stratum:4 in
  let formulas = List.map Speccc_logic.Ltl_parse.formula doc.Gen.formulas in
  let l = W_localize.localize ~trace:false (Speccc_core.Pipeline.default_options ()) formulas in
  check "localize: the planted pair is found" (W_localize.judge ~what:"doc" doc l = Answer.Definite);
  check "localize: a wrong planted culprit aborts"
    (raises_wrong (fun () ->
         W_localize.judge ~what:"doc" { doc with Gen.culprit = doc.Gen.partner } l))

let () =
  let request klass =
    { Gen.text = ""; klass; kind = "test"; repeat = false }
  in
  let response verdict =
    Speccc_server.Jsonl.Obj [ ("id", Speccc_server.Jsonl.Num 1.); ("verdict", Speccc_server.Jsonl.Str verdict) ]
  in
  check "serve: a matching verdict passes"
    (W_serve.judge ~what:"r" (request Answer.Inconsistent) (response "inconsistent") = Answer.Definite);
  check "serve: unknown is a failed operation"
    (W_serve.judge ~what:"r" (request Answer.Consistent) (response "unknown") = Answer.Unknown);
  check "serve: a wrong definite verdict aborts"
    (raises_wrong (fun () -> W_serve.judge ~what:"r" (request Answer.Consistent) (response "inconsistent")))

let () =
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
