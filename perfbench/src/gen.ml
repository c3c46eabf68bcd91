(* Seeded input generation.  Every generator draws from its own
   [Random.State] made from the run's seed, so one seed gives
   byte-identical inputs; the [digest_*] functions render what a
   generator produced, for the determinism tests.  Streams are built in blocks of fixed
   composition, shuffled within the block, so runs with different
   seeds see the same mix of input shapes. *)

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* The [k]-th of a family of generators beside [stream]'s own, for
   inputs a run only sets up and measures, never checks after. *)
let sub_rng ~seed ~stream k = Random.State.make [| seed; stream; k |]

let int rng bound = Random.State.int rng bound

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ---------- localize: planted-conflict LTL documents ---------- *)

type localize_doc = {
  formulas : string list;  (** LTL, in document order *)
  culprit : int;           (** index of the later formula of the pair *)
  partner : int;           (** index of the earlier one *)
  props : int;
}

(* Slices of a document a culprit position is drawn from. *)
let strata = 9

(* A conflicting pair G(trig -> flag) / G(trig -> !flag) at seeded
   positions among guarded responses G(g -> o) over inputs in0.. and
   outputs out0...  Innocents never mention [flag], so the pair is the
   only inconsistency; one innocent is guarded by [trig], so it shares
   a proposition with the culprit without being needed to refute it.
   The explicit engine's refutation cost grows steeply with the number
   of distinct requirements (16 requirements: about 1 s with 4
   distinct innocents, 3.5 s with 6, over 30 s with 8), so documents
   repeat 4 distinct innocents up to their size.  At most 8
   propositions, so [Auto] routes every subset to the explicit
   engine. *)
let localize_doc rng ~n ~shape:(a, b) ~stratum =
  let inputs = Array.init a (Printf.sprintf "in%d") in
  let outs = Array.init b (Printf.sprintf "out%d") in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun g -> List.map (fun o -> (g, o)) (Array.to_list outs))
         (Array.to_list inputs))
  in
  let distinct =
    ("trig", outs.(int rng b)) :: Array.to_list (Array.sub (shuffle rng pairs) 0 3)
    |> List.map (fun (g, o) -> Printf.sprintf "G (%s -> %s)" g o)
    |> Array.of_list
  in
  let innocents = List.init (n - 2) (fun k -> distinct.(k mod 4)) in
  (* the culprit's position decides how many prefixes are checked, so
     it is drawn from one of [strata] equal slices of the document *)
  let culprit =
    1 + (((stratum * (n - 1)) + int rng (n - 1)) / strata)
  in
  let partner = int rng culprit in
  let first, second =
    if int rng 2 = 0 then ("G (trig -> flag)", "G (trig -> !flag)")
    else ("G (trig -> !flag)", "G (trig -> flag)")
  in
  let rest = ref innocents in
  let formulas =
    List.init n (fun i ->
        if i = partner then first
        else if i = culprit then second
        else
          match !rest with
          | f :: tl ->
            rest := tl;
            f
          | [] -> assert false)
  in
  { formulas; culprit; partner; props = 2 + a + b }

let localize_sizes = List.init 9 (fun k -> 8 + k)
let localize_shapes = [| (2, 3); (3, 3); (2, 4) |]

(* Documents of 8 to 16 requirements, each size once per block of 9,
   with the culprit's position slice and the alphabet shape also
   spread evenly over the block. *)
let localize_stream rng =
  let block = ref [] in
  fun () ->
    (match !block with
     | [] ->
       let sizes = shuffle rng (Array.of_list localize_sizes) in
       let strata = shuffle rng (Array.init strata Fun.id) in
       let first_shape = int rng (Array.length localize_shapes) in
       block :=
         List.init (Array.length sizes) (fun i ->
             ( sizes.(i),
               localize_shapes.((first_shape + i) mod Array.length localize_shapes),
               strata.(i) ))
     | _ -> ());
    match !block with
    | (n, shape, stratum) :: tl ->
      block := tl;
      localize_doc rng ~n ~shape ~stratum
    | [] -> assert false

(* ---------- serve_mix: a request stream over generated documents ---------- *)

type request = {
  text : string;               (** document text, one requirement per line *)
  klass : Answer.klass;
  kind : string;               (** consistent / safety_conflict / liveness_conflict *)
  repeat : bool;               (** an earlier request's document again *)
}

(* Specgen profiles measured to check in 5 to 100 ms under the harness
   defaults.  Larger profiles are left out: (18, 10, 14) and
   (20, 12, 16) take about 0.45 s, which makes runs too short on
   requests to be steady, and (24, 14, 18) about 40 s in controller
   extraction, which no fuel budget bounds. *)
let consistent_profiles =
  [ (8, 5, 6); (10, 6, 8); (12, 8, 10); (14, 8, 10); (16, 9, 12); (16, 10, 12) ]

(* Conflicts the governed ladder decides quickly.  A safety document
   loses the symbolic game outright; a small document with an
   eventuality falls through to the explicit engine.  Larger
   eventuality documents with a conflict exhaust the fuel and then
   spend minutes in the SAT rung, so none is generated. *)
let safety_conflict_lines = [ 6; 10; 12; 16; 20 ]
let liveness_conflict_lines = [ 3; 4; 5 ]

(* Signal names share a first letter so that every document orders its
   propositions alike; the suffix makes each fresh document distinct. *)
let prefix k =
  let rec letters k acc =
    let acc = String.make 1 (Char.chr (Char.code 'a' + (k mod 26))) ^ acc in
    if k < 26 then acc else letters ((k / 26) - 1) acc
  in
  "d" ^ letters k ""

let conflict_line p = Printf.sprintf "If %s_sensor_0 is available, %s_unit_0 is not triggered." p p

let specgen p (lines, inputs, outputs) =
  Speccc_casestudies.Specgen.sentences
    { Speccc_casestudies.Specgen.prefix = p; lines; inputs; outputs }

let fresh_doc ~index kind rng =
  let p = prefix index in
  let sentences, klass =
    match kind with
    | `Consistent profile -> (specgen p profile, Answer.Consistent)
    | `Safety_conflict ->
      let lines = List.nth safety_conflict_lines (int rng (List.length safety_conflict_lines)) in
      (* drop Specgen's eventuality lines (every fourth, from line 2) *)
      let safety =
        List.filteri (fun i _ -> i mod 4 <> 2) (specgen p (lines, lines / 2 + 1, lines / 2 + 2))
      in
      (safety @ [ conflict_line p ], Answer.Inconsistent)
    | `Liveness_conflict ->
      let lines = List.nth liveness_conflict_lines (int rng (List.length liveness_conflict_lines)) in
      (specgen p (lines, lines - 1, lines - 1) @ [ conflict_line p ], Answer.Inconsistent)
  in
  let kind =
    match kind with
    | `Consistent _ -> "consistent"
    | `Safety_conflict -> "safety_conflict"
    | `Liveness_conflict -> "liveness_conflict"
  in
  { text = String.concat "\n" sentences; klass; kind; repeat = false }

(* Blocks of 12 requests: 9 fresh documents, one consistent document
   per profile and 3 planted conflicts, and 3 repeats of documents
   already sent.  The shares follow the repository's own serve soak
   (lib/chaos/workload.ml: 4 requests, 1 a repeat, over 3 documents, 1
   inconsistent): a quarter repeats, a third of fresh documents
   inconsistent.  Of the conflicts, one per block has an eventuality:
   an assumed share, the smallest that still sends the ladder past the
   symbolic rung to the explicit one; the other two are safety
   conflicts, decided by the symbolic rung. *)
let serve_block = 12

let serve_stream rng =
  let earlier = ref [||] and count = ref 0 and block = ref [] in
  let new_block () =
    let kinds =
      List.map (fun p -> `Consistent p) consistent_profiles
      @ [ `Safety_conflict; `Safety_conflict; `Liveness_conflict ]
    in
    let fresh = Array.to_list (shuffle rng (Array.of_list kinds)) in
    (* repeats go anywhere after the block's first request *)
    let repeats = serve_block - List.length kinds in
    let slots = Array.make serve_block false in
    let free = shuffle rng (Array.init (serve_block - 1) (fun i -> i + 1)) in
    for i = 0 to repeats - 1 do slots.(free.(i)) <- true done;
    let rest = ref fresh in
    List.init serve_block (fun i ->
        if slots.(i) then `Repeat
        else
          match !rest with
          | k :: tl ->
            rest := tl;
            `Fresh k
          | [] -> assert false)
  in
  fun () ->
    (match !block with [] -> block := new_block () | _ -> ());
    match !block with
    | step :: tl ->
      block := tl;
      (match step with
       | `Repeat ->
         (* the block's first slot is always fresh, so [earlier] is
            never empty here *)
         let r = !earlier.(int rng (Array.length !earlier)) in
         { r with repeat = true }
       | `Fresh kind ->
         let r = fresh_doc ~index:!count kind rng in
         incr count;
         earlier := Array.append !earlier [| r |];
         r)
    | [] -> assert false

(* ---------- watch_edits: an edit script over a live document ---------- *)

let sensors =
  [| "the button is pressed"; "the occlusion is present";
     "the pressure is high"; "the signal is low" |]

let actuators =
  [| "the pump is started"; "the alarm is triggered"; "the valve is opened";
     "the monitor is enabled"; "the cuff is inflated" |]

(* Guarded responses and eventualities in the shapes of the CARA
   document: every response drives an output positively, so every
   document the script reaches is consistent.  Nine propositions, so
   [Auto] keeps the session on the explicit engine and its
   incremental caches. *)
let watch_guarded =
  Array.of_list
    (List.concat_map
       (fun s ->
          Array.to_list
            (Array.map (fun a -> Printf.sprintf "If %s, %s." s a) actuators))
       (Array.to_list sensors))

let watch_eventual =
  Array.map
    (fun a -> Printf.sprintf "When %s, eventually the cuff is inflated." a)
    (Array.sub actuators 0 4)

type step =
  | Edit of string * string     (** id, new text *)
  | Revert of string * string   (** id, the text before the last edit *)
  | Insert of int * string * string  (** position, id, text *)
  | Delete of string

let is_eventual text = Array.mem text watch_eventual

(* 12 guarded responses and 2 eventualities, in seeded order. *)
let watch_initial rng =
  let guarded = shuffle rng (Array.copy watch_guarded)
  and eventual = shuffle rng (Array.copy watch_eventual) in
  let items = shuffle rng (Array.append (Array.sub guarded 0 12) (Array.sub eventual 0 2)) in
  List.init 14 (fun i -> (Printf.sprintf "R%d" (i + 1), items.(i)))

(* Blocks of 10 steps: 7 edits, one of them followed at once by its
   revert, 1 insert and 1 delete, shuffled as units.  The repository's
   own edit scripts (bench/main.ml's edit group, scripts/watch_smoke.sh)
   are 10 single-sentence edits; here one revert, one insert and one
   delete per 10 steps is an assumed share, the smallest that still
   exercises each one's layer: the verdict LRU for a revert, arena
   blocks and invalidation by id for an insert or a delete.

   The script tracks the document it produces, so each step is valid
   where it is applied: ids exist, texts are unused, and a revert
   exactly undoes the edit just before it, returning to a document
   already checked.  One insert and one delete per block keep the
   size within one of the start.  Edits replace a sentence with one of
   the same shape, and inserts and deletes touch only guarded
   responses, so every document holds two eventualities: the checks
   cost alike whatever the seed. *)
let watch_script rng initial =
  let doc = ref initial and next_id = ref (List.length initial + 1) in
  let unused pool =
    let used = List.map snd !doc in
    let free = List.filter (fun t -> not (List.mem t used)) (Array.to_list pool) in
    List.nth free (int rng (List.length free))
  in
  let random_id ?(only = fun _ -> true) () =
    let ids = List.filter (fun (_, t) -> only t) !doc in
    fst (List.nth ids (int rng (List.length ids)))
  in
  let apply step =
    (match step with
     | Edit (id, text) | Revert (id, text) ->
       doc := List.map (fun (i, t) -> if i = id then (i, text) else (i, t)) !doc
     | Insert (at, id, text) ->
       doc := List.filteri (fun i _ -> i < at) !doc @ [ (id, text) ]
              @ List.filteri (fun i _ -> i >= at) !doc
     | Delete id -> doc := List.filter (fun (i, _) -> i <> id) !doc);
    step
  in
  let edit () =
    let id = random_id () in
    let old = List.assoc id !doc in
    (apply (Edit (id, unused (if is_eventual old then watch_eventual else watch_guarded))), old)
  in
  (* each step is drawn when it is taken, against the document as it
     then stands *)
  let unit = function
    | `Edit -> [ (fun () -> fst (edit ())) ]
    | `Edit_revert ->
      let undo = ref None in
      [ (fun () ->
            let step, old = edit () in
            (match step with Edit (id, _) -> undo := Some (id, old) | _ -> ());
            step);
        (fun () -> apply (Revert (fst (Option.get !undo), snd (Option.get !undo)))) ]
    | `Insert ->
      [ (fun () ->
            let id = Printf.sprintf "E%d" !next_id in
            incr next_id;
            apply (Insert (int rng (List.length !doc + 1), id, unused watch_guarded))) ]
    | `Delete -> [ (fun () -> apply (Delete (random_id ~only:(fun t -> not (is_eventual t)) ()))) ]
  in
  let block = ref [] in
  fun () ->
    (match !block with
     | [] ->
       let units =
         shuffle rng
           (Array.of_list
              ([ `Edit_revert; `Insert; `Delete ] @ List.init 6 (fun _ -> `Edit)))
       in
       block := List.concat_map unit (Array.to_list units)
     | _ -> ());
    match !block with
    | take :: tl ->
      block := tl;
      let step = take () in
      (step, !doc)
    | [] -> assert false

(* ---------- rendering, for the determinism tests ---------- *)

let digest_localize d =
  Printf.sprintf "%s|c%d|p%d|n%d" (String.concat ";" d.formulas) d.culprit d.partner d.props

let digest_request r =
  Printf.sprintf "%s|%s|%b|%s" r.kind (Answer.klass_name r.klass) r.repeat r.text

let digest_step = function
  | Edit (id, t) -> Printf.sprintf "edit %s %s" id t
  | Revert (id, t) -> Printf.sprintf "revert %s %s" id t
  | Insert (at, id, t) -> Printf.sprintf "insert %d %s %s" at id t
  | Delete id -> "delete " ^ id
