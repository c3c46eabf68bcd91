(* Metric names and units, as declared in BENCHMARK.json, and the
   end-to-end values computed from a run. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("throughput_ops_s", "1/s");
    ("definite_frac", "fraction");
    ("heap_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("translate.busy_s", "s/op");
    ("timeabs.busy_s", "s/op");
    ("partition.busy_s", "s/op");
    ("logic.bound_liveness_s", "s/op");
    ("obligation.solve_s", "s/op");
    ("obligation.solve_calls", "count/op");
    ("obligation.to_mealy_s", "s/op");
    ("mealy.states", "count");
    ("minimize.busy_s", "s/op");
    ("minimize.states_out", "count");
    ("realizability.check_s", "s/op");
    ("localize.subset_checks", "count/op");
    ("localize.check_s", "s/op");
    ("localize.self_s", "s/op");
    ("serve.queue_wait_ms", "ms");
    ("harness.wall_ms", "ms");
    ("ladder.degraded_frac", "fraction");
    ("store.hit_ratio", "fraction");
    ("journal.bytes", "B/op");
    ("serve.shed", "count");
    ("serve.watchdog_trips", "count");
    ("watch.edit_s", "s/op");
    ("watch.check_s", "s/op");
    ("watch.parse_hits", "count/op");
    ("watch.blocks_reused", "count/op");
    ("watch.solo_reused", "count/op");
    ("watch.verdict_hits", "count/op");
    ("watch.invalidated", "count/op");
    ("cache.nbw.of_ltl.hit_ratio", "fraction");
    ("cache.nbw.template.hit_ratio", "fraction");
    ("cache.logic.nnf.hit_ratio", "fraction");
    ("cache.nlp.parse.hit_ratio", "fraction");
    ("cache.watch.verdict.hit_ratio", "fraction");
    ("ltl.hashcons_hit_ratio", "fraction");
    ("bdd.nodes", "count/op");
    ("bdd.op_hit_ratio", "fraction");
    ("bdd.reorders", "count/op");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count/op");
    ("trace.throughput_ratio", "ratio");
  ]

type summary = {
  values : (string * float) list;
  tail : Stats.tail;
  samples : int;
}

let summarize (r : Run.t) =
  let ms = List.map (fun s -> s *. 1000.) r.Run.latencies in
  let tail, throughput =
    match r.Run.block with
    | None -> (Stats.tail ms, float_of_int (List.length ms) /. r.Run.window_s)
    | Some block ->
      ( Stats.block_tail ~block (List.rev ms),
        Stats.block_rate ~block ~window_s:r.Run.window_s (List.rev r.Run.done_at) )
  in
  let samples = List.length ms in
  {
    values =
      [
        ("setup_s", Stats.median r.Run.setup_s);
        ("op_p50_ms", Stats.median ms);
        ("op_tail_ms", tail.Stats.value);
        ("throughput_ops_s", throughput);
        ( "definite_frac",
          float_of_int (r.Run.attempted - r.Run.failed) /. float_of_int r.Run.attempted );
        ("heap_peak_mb", r.Run.heap_peak_mb);
      ];
    tail;
    samples;
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: exactly [correct], [attempted], [failed] and
   [metrics], each metric an object with [value] and [unit]. *)
let result_line ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, value) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed body
