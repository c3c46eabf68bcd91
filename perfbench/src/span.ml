(* In-memory spans recorded around calls into the program's layers.

   Spans nest per domain (a domain-local stack names each span's
   parent); every span carries the id of the operation it belongs to,
   so all spans of one document check, localization, request or edit
   share one id.  Nothing is written while the benchmark measures:
   spans accumulate in memory and are aggregated when the run ends.
   Counters ride on the same boundaries, so ratios are taken where the
   work happens. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** [0] for a root span *)
  start : float;
  stop : float;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let spans : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let next_id = Atomic.make 1
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let current_op : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let set_enabled on = Atomic.set enabled on

let clear () =
  Mutex.protect lock (fun () ->
      spans := [];
      Hashtbl.reset counters)

let record span = Mutex.protect lock (fun () -> spans := span :: !spans)

let with_op op f =
  let saved = Domain.DLS.get current_op in
  Domain.DLS.set current_op op;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_op saved) f

(* [with_span name f] runs [f] inside a span of the domain's current
   operation. *)
let with_span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let outer = Domain.DLS.get stack in
    let parent = match outer with p :: _ -> p | [] -> 0 in
    let op = Domain.DLS.get current_op in
    Domain.DLS.set stack (id :: outer);
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
          let stop = Unix.gettimeofday () in
          Domain.DLS.set stack outer;
          record { id; name; op; parent; start; stop })
      f
  end

let count name v =
  if Atomic.get enabled then
    Mutex.protect lock (fun () ->
        let old = Option.value (Hashtbl.find_opt counters name) ~default:0. in
        Hashtbl.replace counters name (old +. v))

let counter name =
  Mutex.protect lock (fun () ->
      Option.value (Hashtbl.find_opt counters name) ~default:0.)

let all () = Mutex.protect lock (fun () -> List.rev !spans)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
         let a = Float.max a lo and b = Float.min b hi in
         if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
         match cur with
         | None -> (total, Some (a, b))
         | Some (ca, cb) ->
           if a <= cb then (total, Some (ca, Float.max cb b))
           else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of it that
   its child spans cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
       if s.parent <> 0 then
         Hashtbl.replace children s.parent
           ((s.start, s.stop)
            :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
       let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
       (s, (s.stop -. s.start) -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type totals = { calls : int; busy_s : float; self_s : float }

(* Per span name: number of spans, summed duration, summed self time. *)
let totals spans =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
       let t =
         Option.value (Hashtbl.find_opt table s.name)
           ~default:{ calls = 0; busy_s = 0.; self_s = 0. }
       in
       Hashtbl.replace table s.name
         {
           calls = t.calls + 1;
           busy_s = t.busy_s +. (s.stop -. s.start);
           self_s = t.self_s +. self;
         })
    (self_times spans);
  fun name ->
    Option.value (Hashtbl.find_opt table name)
      ~default:{ calls = 0; busy_s = 0.; self_s = 0. }
