(* What one workload run measured, and the counters shared by every
   workload. *)

type t = {
  setup_s : float list;      (** each set-up repetition *)
  latencies : float list;    (** seconds per completed operation, newest first *)
  block : int option;        (** samples per block for the tail and the throughput;
                                 [None]: the run is one block *)
  done_at : float list;      (** window seconds at each sample's completion, newest
                                 first; needed with [block] *)
  window_s : float;          (** measured wall, verification pauses excluded *)
  attempted : int;
  failed : int;              (** unknown, failed, overloaded or watchdog answers *)
  heap_peak_mb : float;      (** Gc top heap after the run's fixed operation count *)
  notes : (string * string) list;  (** input properties, printed with the result *)
  layers : (string * float) list;  (** per-layer metrics (traced runs) *)
}

(* A stopwatch over the measured window that can be paused for work
   outside the timed region (resetting state between one-shot checks). *)
type window = { started : float; mutable paused : float }

let window () = { started = Unix.gettimeofday (); paused = 0. }
let elapsed w = Unix.gettimeofday () -. w.started -. w.paused

let outside w f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> w.paused <- w.paused +. (Unix.gettimeofday () -. t0)) f

(* Gc top heap so far, in MiB. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* A window ends once [seconds] have elapsed and at least [heap_ops]
   operations have completed; the heap peak is read when the
   [heap_ops]-th completes.  Caches and hash-consing tables fill as a
   run goes, so a peak read at the end of the window would grow with the
   operations a faster build completes. *)
let running w ~seconds ~ops ~heap_ops = elapsed w < seconds || ops < heap_ops

(* "min-max" of a list of counts, for the input-property notes. *)
let range l = Printf.sprintf "%d-%d" (List.fold_left min max_int l) (List.fold_left max 0 l)

(* One more operation of [dt] seconds on a (count, busy seconds) side. *)
let add_op side dt = side := (fst !side + 1, snd !side +. dt)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Set up [times] times [batch] times over; each sample is the mean
   set-up time of one batch (batches make set-ups of a few microseconds
   measurable).  Every fixture but the last is torn down, outside the
   timing; the last is what the run uses. *)
let setups ?(batch = 1) ~times ~setup ~teardown () =
  let last = ref None and samples = ref [] in
  for _ = 1 to times do
    let total = ref 0. in
    for _ = 1 to batch do
      Option.iter teardown !last;
      let fixture, s = time setup in
      total := !total +. s;
      last := Some fixture
    done;
    samples := (!total /. float_of_int batch) :: !samples
  done;
  (Option.get !last, List.rev !samples)

(* The same, after the measured window, every fixture torn down: the
   other half of a run's set-ups.  The host's speed shifts between
   states lasting seconds, and set-ups all made in the first second of
   a run would see one state; half at each end see two, 25 s apart.
   Made after every other figure is read, so that they move none. *)
let setups_after ?batch ~times ~setup ~teardown () =
  let last, samples = setups ?batch ~times ~setup ~teardown () in
  teardown last;
  samples

(* ---------- process counters ---------- *)

module Cache = Speccc_cache.Cache

type counters = {
  minor_words : float;
  major_collections : int;
  caches : Cache.stats list;
  hc_hits : int;
  hc_misses : int;
  bdd : Speccc_bdd.Bdd.counters;
}

let counters () =
  let gc = Gc.quick_stat () in
  let hc = Speccc_logic.Ltl.hashcons_stats () in
  {
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections;
    caches = Cache.stats ();
    hc_hits = hc.Speccc_logic.Ltl.hc_hits;
    hc_misses = hc.Speccc_logic.Ltl.hc_misses;
    bdd = Speccc_bdd.Bdd.counters ();
  }

let zero =
  {
    minor_words = 0.;
    major_collections = 0;
    caches = [];
    hc_hits = 0;
    hc_misses = 0;
    bdd = { Speccc_bdd.Bdd.nodes = 0; op_hits = 0; op_misses = 0; reorders = 0 };
  }

let cache_names = [ "nbw.of_ltl"; "nbw.template"; "logic.nnf"; "nlp.parse"; "watch.verdict" ]

let cache_get name c =
  match List.find_opt (fun s -> s.Cache.name = name) c.caches with
  | Some s -> (s.Cache.hits, s.Cache.misses)
  | None -> (0, 0)

(* [acc + (b - a)]: accumulate the counters' movement between two
   samples (workloads that reset the caches mid-run add per operation). *)
let accumulate acc a b =
  let caches =
    List.map
      (fun name ->
         let h0, m0 = cache_get name a and h1, m1 = cache_get name b
         and ha, ma = cache_get name acc in
         { Cache.name; hits = ha + h1 - h0; misses = ma + m1 - m0; evictions = 0;
           size = 0; capacity = 0 })
      cache_names
  in
  {
    minor_words = acc.minor_words +. b.minor_words -. a.minor_words;
    major_collections = acc.major_collections + b.major_collections - a.major_collections;
    caches;
    hc_hits = acc.hc_hits + b.hc_hits - a.hc_hits;
    hc_misses = acc.hc_misses + b.hc_misses - a.hc_misses;
    bdd =
      {
        Speccc_bdd.Bdd.nodes = acc.bdd.nodes + b.bdd.nodes - a.bdd.nodes;
        op_hits = acc.bdd.op_hits + b.bdd.op_hits - a.bdd.op_hits;
        op_misses = acc.bdd.op_misses + b.bdd.op_misses - a.bdd.op_misses;
        reorders = acc.bdd.reorders + b.bdd.reorders - a.bdd.reorders;
      };
  }

let ratio hits misses =
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* The per-layer metrics every workload reports from process counters
   moved over [ops] operations. *)
let counter_layers ~ops c =
  let per_op x = x /. float_of_int (max 1 ops) in
  List.map
    (fun name ->
       let h, m = cache_get name c in
       ("cache." ^ name ^ ".hit_ratio", ratio h m))
    cache_names
  @ [
    ("ltl.hashcons_hit_ratio", ratio c.hc_hits c.hc_misses);
    ("bdd.nodes", per_op (float_of_int c.bdd.Speccc_bdd.Bdd.nodes));
    ("bdd.op_hit_ratio", ratio c.bdd.Speccc_bdd.Bdd.op_hits c.bdd.Speccc_bdd.Bdd.op_misses);
    ("bdd.reorders", per_op (float_of_int c.bdd.Speccc_bdd.Bdd.reorders));
    ("gc.minor_words_per_op", per_op c.minor_words);
    ("gc.major_collections", per_op (float_of_int c.major_collections));
  ]

(* Per-layer metrics from the spans of [ops] traced operations: seconds
   per operation spent in each named layer call. *)
let span_layers ~ops spans =
  let totals = Span.totals spans in
  let per_op x = x /. float_of_int (max 1 ops) in
  let busy name = per_op (totals name).Span.busy_s in
  let calls name = per_op (float_of_int (totals name).Span.calls) in
  let mean_counter name calls =
    let n = (totals calls).Span.calls in
    if n = 0 then 0. else Span.counter name /. float_of_int n
  in
  [
    ("translate.busy_s", busy "translate");
    ("timeabs.busy_s", busy "timeabs");
    ("partition.busy_s", busy "partition");
    ("logic.bound_liveness_s", busy "logic.bound_liveness");
    ("obligation.solve_s", busy "obligation.solve");
    ("obligation.solve_calls", calls "obligation.solve");
    ("obligation.to_mealy_s", busy "obligation.to_mealy");
    ("mealy.states", mean_counter "mealy.states" "minimize");
    ("minimize.busy_s", busy "minimize");
    ("minimize.states_out", mean_counter "minimize.states_out" "minimize");
    ("realizability.check_s", busy "realizability.check");
    ("localize.subset_checks", calls "localize.check");
    ("localize.check_s", busy "localize.check");
    ("localize.self_s", per_op (totals "localize").Span.self_s);
  ]

(* Tracing overhead: traced over untraced operations per second of
   their own busy time, the two sides interleaved in one run. *)
let throughput_ratio ~untraced:(u_ops, u_s) ~traced:(t_ops, t_s) =
  if u_ops = 0 || t_ops = 0 then 0.
  else (float_of_int t_ops /. t_s) /. (float_of_int u_ops /. u_s)
