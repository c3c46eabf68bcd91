(* serve_mix: the in-process server ([Server.run] over a pipe) with a
   verdict store, a journal and 2 worker domains, driven closed-loop by
   one client that keeps 1 request in flight.  Harness defaults apply,
   so every check is governed (fuel 200k, the engine ladder). *)

module Jsonl = Speccc_server.Jsonl
module Server = Speccc_server.Server
module Store = Speccc_store.Store
module Harness = Speccc_harness.Harness

(* One request in flight: with two, both checks ran at once on a
   2-core machine beside the client and the server's reader, and a
   core lost to the host slowed every request. *)
let in_flight = 1

type fixture = {
  dir : string;
  store : Store.t;
  journal : string;
  requests : out_channel;
  responses : in_channel;
  server : Thread.t;
  stats : Server.stats option ref;
}

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let work_root = Filename.concat "perfbench" "_work"

let send fixture json =
  output_string fixture.requests (Jsonl.to_string json);
  output_char fixture.requests '\n';
  flush fixture.requests

(* Open a fresh store and journal and start the server; set-up ends
   when the pool answers a health request. *)
let start ~serial =
  let dir =
    Filename.concat work_root (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) serial)
  in
  remove dir;
  mkdir_p dir;
  let store = Store.open_ (Filename.concat dir "store.log") in
  let journal = Filename.concat dir "journal.jsonl" in
  let harness = { (Harness.default_config ()) with Harness.journal = Some journal } in
  (* the server wires the store into the harness itself *)
  let config =
    { (Server.default_config ()) with Server.harness; workers = 2; store = Some store }
  in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let stats = ref None in
  let server =
    Thread.create
      (fun () ->
         let output = Unix.out_channel_of_descr resp_w in
         stats := Some (Server.run config ~input:req_r ~output);
         close_out output;
         Unix.close req_r)
      ()
  in
  let fixture =
    {
      dir; store; journal; server; stats;
      requests = Unix.out_channel_of_descr req_w;
      responses = Unix.in_channel_of_descr resp_r;
    }
  in
  send fixture (Jsonl.Obj [ ("id", Jsonl.Num (-1.)); ("cmd", Jsonl.Str "health") ]);
  ignore (input_line fixture.responses);
  fixture

(* Drain: shutdown, EOF, wait for the server thread to return. *)
let stop fixture =
  send fixture (Jsonl.Obj [ ("id", Jsonl.Num 0.); ("cmd", Jsonl.Str "shutdown") ]);
  close_out fixture.requests;
  (try
     while true do
       ignore (input_line fixture.responses)
     done
   with End_of_file -> ());
  Thread.join fixture.server;
  close_in fixture.responses;
  Store.close fixture.store;
  Option.get !(fixture.stats)

let judge ~what (request : Gen.request) response =
  match Jsonl.str_member "verdict" response, Jsonl.str_member "error" response with
  | Some "consistent", _ ->
    Answer.verdict ~what ~expected:request.Gen.klass Speccc_synthesis.Realizability.Consistent
  | Some "inconsistent", _ ->
    Answer.verdict ~what ~expected:request.Gen.klass Speccc_synthesis.Realizability.Inconsistent
  | Some ("unknown" | "failed"), _ | _, Some "overloaded" -> Answer.Unknown
  | _ -> Answer.wrong "%s: unexpected response %s" what (Jsonl.to_string response)

(* The heap peak is read after 25 blocks of requests, about a quarter
   of what a 25 s run serves. *)
let heap_ops = 300

(* The tail and the throughput are medians over blocks of 300
   responses (25 blocks of the request stream; the tail is p96.67 in
   each). *)
let block = 300

let run ~seed ~seconds ~trace =
  let serial = ref 0 in
  let teardown (_, f) =
    ignore (stop f);
    remove f.dir
  in
  let setup () =
    let next = Gen.serve_stream (Gen.rng ~seed ~stream:3) in
    incr serial;
    (next, start ~serial:!serial)
  in
  let (next, fixture), setup_before = Run.setups ~times:151 ~teardown ~setup () in
  let pending = Hashtbl.create 4 in
  let latencies = ref [] and done_at = ref [] and answered = ref 0 and attempted = ref 0 and failed = ref 0 in
  let repeats = ref 0 and engines = Hashtbl.create 8 and heap = ref 0. in
  let queue_waits = ref [] and walls = ref [] and fresh = ref 0 and degraded = ref 0 in
  let next_id = ref 0 in
  let start_counters = Run.counters () in
  let window = Run.window () in
  let send_next () =
    let r = next () in
    incr next_id;
    incr attempted;
    if r.Gen.repeat then incr repeats;
    Hashtbl.replace pending !next_id (r, Unix.gettimeofday ());
    send fixture
      (Jsonl.Obj [ ("id", Jsonl.Num (float_of_int !next_id)); ("doc", Jsonl.Str r.Gen.text) ])
  in
  for _ = 1 to in_flight do send_next () done;
  while Hashtbl.length pending > 0 do
    let line = input_line fixture.responses in
    let received = Unix.gettimeofday () in
    let response =
      match Jsonl.parse line with
      | Ok json -> json
      | Error e -> Answer.wrong "unparsable response %S: %s" line e
    in
    let id = Option.value (Jsonl.int_member "id" response) ~default:(-1) in
    match Hashtbl.find_opt pending id with
    | None -> Answer.wrong "response to unknown request %d: %s" id line
    | Some (request, sent) ->
      Hashtbl.remove pending id;
      let latency = received -. sent in
      latencies := latency :: !latencies;
      done_at := Run.elapsed window :: !done_at;
      incr answered;
      if !answered = heap_ops then heap := Run.heap_peak_mb ();
      (match judge ~what:(Printf.sprintf "request %d" id) request response with
       | Answer.Definite -> ()
       | Answer.Unknown -> incr failed);
      (* A store hit ([attempts] 0) carries the [wall] of the check that
         stored it, so only fresh checks give queue waits and walls. *)
      (match Jsonl.num_member "wall" response, Jsonl.int_member "attempts" response with
       | Some wall, attempts when attempts <> Some 0 ->
         incr fresh;
         (* [wall] is printed to the millisecond, so a wait under half a
            millisecond can come out slightly negative *)
         queue_waits := Float.max 0. ((latency -. wall) *. 1000.) :: !queue_waits;
         walls := (wall *. 1000.) :: !walls;
         let engine = Option.value (Jsonl.str_member "engine" response) ~default:"?" in
         if engine <> "symbolic" then incr degraded;
         Hashtbl.replace engines engine
           (1 + Option.value (Hashtbl.find_opt engines engine) ~default:0)
       | _ -> ());
      if Run.running window ~seconds ~ops:!attempted ~heap_ops then send_next ()
  done;
  let window_s = Run.elapsed window in
  let stats = stop fixture in
  let store_stats = Store.stats fixture.store in
  let journal_bytes = (Unix.stat fixture.journal).Unix.st_size in
  remove fixture.dir;
  let responses = !answered in
  let share n = float_of_int n /. float_of_int (max 1 responses) in
  let median_or_zero = function [] -> 0. | l -> Stats.median l in
  (* Every figure here comes from responses, the store and process
     counters; no span is recorded, so tracing costs nothing. *)
  let layers =
    if not trace then []
    else
      Run.counter_layers ~ops:responses (Run.accumulate Run.zero start_counters (Run.counters ()))
      @ [
        ("serve.queue_wait_ms", median_or_zero !queue_waits);
        ("harness.wall_ms", median_or_zero !walls);
        ("ladder.degraded_frac", float_of_int !degraded /. float_of_int (max 1 !fresh));
        ( "store.hit_ratio",
          Run.ratio store_stats.Store.hits store_stats.Store.misses );
        ("journal.bytes", float_of_int journal_bytes /. float_of_int (max 1 responses));
        ("serve.shed", float_of_int stats.Server.shed);
        ("serve.watchdog_trips", float_of_int stats.Server.watchdog_trips);
        ("trace.throughput_ratio", 1.);
      ]
  in
  let routing =
    Hashtbl.fold (fun engine n acc -> (engine, n) :: acc) engines []
    |> List.sort compare
    |> List.map (fun (engine, n) ->
        Printf.sprintf "%s %.3f" engine (float_of_int n /. float_of_int (max 1 !fresh)))
    |> String.concat ", "
  in
  let setup_after = Run.setups_after ~times:150 ~teardown ~setup () in
  (try Sys.rmdir work_root with Sys_error _ -> ());
  {
    Run.setup_s = setup_before @ setup_after;
    block = Some block;
    done_at = !done_at;
    latencies = !latencies;
    window_s;
    heap_peak_mb = !heap;
    attempted = !attempted;
    failed = !failed;
    notes =
      [
        ("repeat_share", Printf.sprintf "%.3f" (share !repeats));
        ( "store",
          Printf.sprintf "%d hits, %d misses" store_stats.Store.hits store_stats.Store.misses );
        ("routing (fresh checks by engine)", routing);
        ("clients", Printf.sprintf "1, %d in flight, 2 workers" in_flight);
      ];
    layers;
  }
