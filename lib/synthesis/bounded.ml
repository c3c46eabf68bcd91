open Speccc_logic
open Speccc_automata

type counterstrategy = {
  cs_inputs : string list;
  cs_outputs : string list;
  cs_num_states : int;
  cs_initial : int;
  cs_move : int -> int;
  cs_next : int -> int -> int;
}

type verdict =
  | Realizable of Mealy.t
  | Unrealizable of counterstrategy
  | Unknown of int

(* Transitions of the UCW, with guards compiled to (mask, value) pairs
   over the combined input-then-output bit layout. *)
type compiled_transition = {
  dst : int;
  guard_mask : int;
  guard_value : int;
  never : bool;  (* guard mentions an unknown proposition positively *)
}

let compile_automaton auto ~inputs ~outputs =
  let bit_of =
    let table = Hashtbl.create 16 in
    List.iteri (fun i p -> Hashtbl.add table p i) inputs;
    let base = List.length inputs in
    List.iteri (fun i p -> Hashtbl.add table p (base + i)) outputs;
    fun p -> Hashtbl.find_opt table p
  in
  let by_src = Array.make auto.Nbw.num_states [] in
  List.iter
    (fun (src, guard, dst) ->
       let compiled =
         List.fold_left
           (fun acc (p, value) ->
              match acc with
              | None -> None
              | Some t ->
                (match bit_of p with
                 | Some bit ->
                   Some
                     {
                       t with
                       guard_mask = t.guard_mask lor (1 lsl bit);
                       guard_value =
                         (if value then t.guard_value lor (1 lsl bit)
                          else t.guard_value);
                     }
                 | None ->
                   (* Unknown propositions are constant false. *)
                   if value then None else Some t))
           (Some { dst; guard_mask = 0; guard_value = 0; never = false })
           guard
       in
       match compiled with
       | Some t -> by_src.(src) <- t :: by_src.(src)
       | None -> ())
    auto.Nbw.transitions;
  by_src

(* Counting functions are arrays over UCW states: -1 inactive,
   otherwise the maximal number of accepting states seen on a run
   reaching this state.  Keys for hashing are byte strings. *)
let key_of_counts counts =
  let bytes = Bytes.create (Array.length counts) in
  Array.iteri (fun i c -> Bytes.set bytes i (Char.chr (c + 1))) counts;
  Bytes.to_string bytes

type game = {
  states : (string, int) Hashtbl.t;   (* key -> id *)
  mutable count_arrays : int array array;  (* id -> counting function *)
  mutable num_states : int;
  successor : (int, int array) Hashtbl.t;
      (* id -> per-combined-letter successor id, -2 unexplored,
         -1 overflow *)
}

let successor_counts auto by_src ~bound counts letter =
  let n = Array.length counts in
  let next = Array.make n (-1) in
  let overflow = ref false in
  for q = 0 to n - 1 do
    if counts.(q) >= 0 then
      List.iter
        (fun t ->
           if (not t.never) && letter land t.guard_mask = t.guard_value then begin
             let credit = if auto.Nbw.accepting.(t.dst) then 1 else 0 in
             let value = counts.(q) + credit in
             if value > bound then overflow := true
             else if value > next.(t.dst) then next.(t.dst) <- value
           end)
        by_src.(q)
  done;
  if !overflow then None else Some next

(* Explore the full game graph reachable from the initial counting
   function, then compute the set of winning positions by a greatest
   fixpoint.  [system_moves_second] selects the quantifier order:
   true = ∀input ∃output (system synthesis), false = ∃input ∀output
   (environment synthesis for the dual game). *)
let solve_game ?budget auto by_src ~bound ~num_input_bits ~num_output_bits
    ~system_moves_second =
  let tick () =
    match budget with
    | Some budget ->
      Speccc_runtime.Budget.checkpoint budget ~stage:"explicit"
    | None -> ()
  in
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl num_output_bits in
  let num_letters = num_inputs * num_outputs in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  let game = {
    states = Hashtbl.create 1024;
    count_arrays = Array.make 64 [||];
    num_states = 0;
    successor = Hashtbl.create 1024;
  }
  in
  let intern counts =
    let key = key_of_counts counts in
    match Hashtbl.find_opt game.states key with
    | Some id -> id
    | None ->
      (* One fuel unit per game position: the counting-function space
         is the exponential blow-up this engine is prone to. *)
      tick ();
      let id = game.num_states in
      Hashtbl.add game.states key id;
      game.num_states <- id + 1;
      if id >= Array.length game.count_arrays then begin
        let fresh = Array.make (2 * Array.length game.count_arrays) [||] in
        Array.blit game.count_arrays 0 fresh 0 id;
        game.count_arrays <- fresh
      end;
      game.count_arrays.(id) <- counts;
      id
  in
  let initial_counts = Array.make auto.Nbw.num_states (-1) in
  List.iter
    (fun q ->
       initial_counts.(q) <-
         (if auto.Nbw.accepting.(q) then 1 else 0))
    auto.Nbw.initial;
  (* Clamp: if an initial state already exceeds the bound the system
     loses immediately (cannot happen with bound >= 1). *)
  let initial_id = intern initial_counts in
  (* Forward exploration. *)
  let queue = Queue.create () in
  Queue.add initial_id queue;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if not (Hashtbl.mem game.successor id) then begin
      let counts = game.count_arrays.(id) in
      let table = Array.make num_letters (-1) in
      for imask = 0 to num_inputs - 1 do
        for omask = 0 to num_outputs - 1 do
          let letter = combined imask omask in
          match successor_counts auto by_src ~bound counts letter with
          | None -> table.(letter) <- -1
          | Some next ->
            let next_id = intern next in
            table.(letter) <- next_id;
            if not (Hashtbl.mem game.successor next_id) then
              Queue.add next_id queue
        done
      done;
      Hashtbl.add game.successor id table
    end
  done;
  (* Greatest fixpoint of the safety winning region. *)
  let alive = Array.make game.num_states true in
  let stable = ref false in
  while not !stable do
    stable := true;
    tick ();
    for id = 0 to game.num_states - 1 do
      if alive.(id) then begin
        let table = Hashtbl.find game.successor id in
        let ok_for_input imask =
          let exists_output omask =
            let succ = table.(combined imask omask) in
            succ >= 0 && alive.(succ)
          in
          let rec any omask =
            omask < num_outputs && (exists_output omask || any (omask + 1))
          in
          let rec all omask =
            omask >= num_outputs
            || (exists_output omask && all (omask + 1))
          in
          if system_moves_second then any 0 else all 0
        in
        let wins =
          if system_moves_second then
            (* ∀ input ∃ output *)
            let rec all imask =
              imask >= num_inputs || (ok_for_input imask && all (imask + 1))
            in
            all 0
          else
            (* ∃ input ∀ output *)
            let rec any imask =
              imask < num_inputs && (ok_for_input imask || any (imask + 1))
            in
            any 0
        in
        if not wins then begin
          alive.(id) <- false;
          stable := false
        end
      end
    done
  done;
  if not alive.(initial_id) then None
  else Some (game, alive, initial_id, combined)

(* ---------- antichain game solving ----------

   Counting functions are ordered pointwise ([-1] inactive is bottom);
   the transition function is monotone in that order and overflow is
   upward-closed, so the system's safety winning region is downward
   closed and is represented exactly by its ⊑-maximal elements
   (Acacia-style).  Instead of enumerating every reachable counting
   function forward, the fixpoint works backward on antichains: one
   controllable-predecessor step maps the current frontier to the
   maximal positions from which the mover can stay inside it, and the
   iteration stops as soon as the initial position falls out (early
   exit) or the frontier stabilizes.  Independent requirements then
   cost a few antichain elements instead of a product state space. *)

type algorithm = Antichain | Enumerate

(* f ⊑ g, pointwise on counts with -1 (inactive) as bottom. *)
let dominated f g =
  let n = Array.length f in
  let rec go q = q >= n || (f.(q) <= g.(q) && go (q + 1)) in
  go 0

let insert_maximal f antichain =
  if List.exists (fun g -> dominated f g) antichain then antichain
  else f :: List.filter (fun g -> not (dominated g f)) antichain

let meet f g = Array.init (Array.length f) (fun q -> min f.(q) g.(q))

let meet_antichains a b =
  List.fold_left
    (fun acc f ->
       List.fold_left (fun acc g -> insert_maximal (meet f g) acc) acc b)
    [] a

(* Largest f with succ(f, letter) ⊑ w and no overflow:
   f(q) = min over enabled edges q→q' of w(q') − credit(q'), clamped to
   [-1, bound]; states with no enabled edge are unconstrained. *)
let pre_max auto by_src ~bound w letter =
  let n = Array.length w in
  Array.init n (fun q ->
      let c = ref bound in
      List.iter
        (fun t ->
           if (not t.never) && letter land t.guard_mask = t.guard_value
           then begin
             let credit = if auto.Nbw.accepting.(t.dst) then 1 else 0 in
             let allow = w.(t.dst) - credit in
             if allow < !c then c := allow
           end)
        by_src.(q);
      if !c < 0 then -1 else !c)

let initial_counts_of auto =
  let counts = Array.make auto.Nbw.num_states (-1) in
  List.iter
    (fun q -> counts.(q) <- (if auto.Nbw.accepting.(q) then 1 else 0))
    auto.Nbw.initial;
  counts

(* One controllable-predecessor step on antichains.
   System game (∀input ∃output): meet over inputs of the union over
   (output, frontier element) of maximal predecessors.
   Dual game (∃input ∀output): union over inputs of the meet over
   outputs of the per-output predecessor antichains. *)
let cpre_antichain tick auto by_src ~bound ~num_input_bits ~num_output_bits
    ~system_moves_second frontier =
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl num_output_bits in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  if system_moves_second then begin
    let per_input imask =
      let acc = ref [] in
      for omask = 0 to num_outputs - 1 do
        List.iter
          (fun w ->
             acc :=
               insert_maximal
                 (pre_max auto by_src ~bound w (combined imask omask))
                 !acc)
          frontier
      done;
      !acc
    in
    let result = ref (per_input 0) in
    for imask = 1 to num_inputs - 1 do
      tick ();
      result := meet_antichains !result (per_input imask)
    done;
    !result
  end
  else begin
    let per_input imask =
      let per_output omask =
        List.fold_left
          (fun acc w ->
             insert_maximal
               (pre_max auto by_src ~bound w (combined imask omask))
               acc)
          [] frontier
      in
      let acc = ref (per_output 0) in
      for omask = 1 to num_outputs - 1 do
        acc := meet_antichains !acc (per_output omask)
      done;
      !acc
    in
    let result = ref [] in
    for imask = 0 to num_inputs - 1 do
      tick ();
      List.iter (fun f -> result := insert_maximal f !result)
        (per_input imask)
    done;
    !result
  end

(* Greatest fixpoint on antichains.  Publishes the frontier (with the
   bound and the game side) into the budget slot every round, so a
   preempted run resumes from its last frontier instead of from top;
   warm starts are verdict-safe — a "lost" outcome under a resumed
   frontier is re-checked from top, so a stale or forged snapshot can
   cost time, never flip a verdict (winning outcomes are self-certifying:
   a converged frontier satisfies W ⊑ CPre(W), so ↓W is a winning
   invariant no matter where the iteration started). *)
let solve_game_antichain ?budget auto by_src ~bound ~num_input_bits
    ~num_output_bits ~system_moves_second =
  let tick () =
    match budget with
    | Some budget ->
      Speccc_runtime.Budget.checkpoint budget ~stage:"explicit"
    | None -> ()
  in
  let n = auto.Nbw.num_states in
  let initial = initial_counts_of auto in
  let top = Array.make n bound in
  let game_tag = if system_moves_second then "system" else "dual" in
  let publish frontier =
    match budget with
    | None -> ()
    | Some b ->
      Speccc_runtime.Budget.publish b
        (Speccc_runtime.Snapshot.make ~engine:"explicit"
           [
             ("bound", string_of_int bound);
             ("game", game_tag);
             ("frontier", Speccc_runtime.Snapshot.counts_to_field frontier);
           ])
  in
  let resumed =
    match budget with
    | None -> None
    | Some b ->
      (match Speccc_runtime.Budget.resume_for b ~engine:"explicit" with
       | Some snap
         when Speccc_runtime.Snapshot.int_field snap "bound" = Some bound
              && Speccc_runtime.Snapshot.field snap "game" = Some game_tag ->
         (match Speccc_runtime.Snapshot.field snap "frontier" with
          | None -> None
          | Some raw ->
            (match Speccc_runtime.Snapshot.counts_of_field raw with
             | Some (_ :: _ as frontier)
               when List.for_all
                      (fun w ->
                         Array.length w = n
                         && Array.for_all (fun c -> c >= -1 && c <= bound) w)
                      frontier ->
               Some frontier
             | Some _ | None -> None))
       | Some _ | None -> None)
  in
  let cpre frontier =
    cpre_antichain tick auto by_src ~bound ~num_input_bits ~num_output_bits
      ~system_moves_second frontier
  in
  let rec gfp warm frontier =
    tick ();
    let frontier' = meet_antichains frontier (cpre frontier) in
    if not (List.exists (dominated initial) frontier') then
      (* Early exit: the initial position fell out.  Under a warm start
         this could be an artifact of the resumed frontier, so re-check
         from the top before conceding. *)
      if warm then gfp false [ top ] else None
    else if
      List.for_all (fun f -> List.exists (dominated f) frontier') frontier
    then Some frontier'
    else begin
      publish frontier';
      gfp warm frontier'
    end
  in
  match resumed with
  | Some frontier -> gfp true frontier
  | None -> gfp false [ top ]

(* Controller extraction from a winning antichain: forward walk over
   the counting functions actually reached under the strategy "first
   output whose successor stays dominated" — the same move preference
   as the enumerative extraction, so the machines coincide. *)
let extract_controller_antichain ?budget auto by_src ~bound frontier ~inputs
    ~outputs =
  let tick () =
    match budget with
    | Some budget ->
      Speccc_runtime.Budget.checkpoint budget ~stage:"explicit"
    | None -> ()
  in
  let num_input_bits = List.length inputs in
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl List.length outputs in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  let winning f = List.exists (fun w -> dominated f w) frontier in
  let ids = Hashtbl.create 64 in
  let rows = ref [] in
  let rec intern counts =
    let key = key_of_counts counts in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      tick ();
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      let row = Array.make num_inputs (0, 0) in
      rows := row :: !rows;
      for imask = 0 to num_inputs - 1 do
        let rec first omask =
          if omask >= num_outputs then
            assert false (* dominated positions always have a move *)
          else
            match
              successor_counts auto by_src ~bound counts
                (combined imask omask)
            with
            | Some next when winning next -> (omask, next)
            | Some _ | None -> first (omask + 1)
        in
        let omask, next = first 0 in
        row.(imask) <- (omask, intern next)
      done;
      id
  in
  let initial = intern (initial_counts_of auto) in
  let step_table = Array.of_list (List.rev !rows) in
  {
    Mealy.inputs;
    outputs;
    num_states = Array.length step_table;
    initial;
    step = (fun state imask -> step_table.(state).(imask));
  }

(* Environment counterstrategy from a won dual game: first input under
   which every system answer stays dominated — again the enumerative
   extraction's preference. *)
let extract_counterstrategy_antichain ?budget auto by_src ~bound frontier
    ~inputs ~outputs =
  let tick () =
    match budget with
    | Some budget ->
      Speccc_runtime.Budget.checkpoint budget ~stage:"explicit"
    | None -> ()
  in
  let num_input_bits = List.length inputs in
  let num_inputs = 1 lsl num_input_bits in
  let num_outputs = 1 lsl List.length outputs in
  let combined imask omask = imask lor (omask lsl num_input_bits) in
  let winning f = List.exists (fun w -> dominated f w) frontier in
  let successors counts imask =
    let rec collect omask acc =
      if omask < 0 then Some acc
      else
        match
          successor_counts auto by_src ~bound counts (combined imask omask)
        with
        | Some next when winning next -> collect (omask - 1) (next :: acc)
        | Some _ | None -> None
    in
    collect (num_outputs - 1) []
  in
  let winning_move counts =
    let rec first imask =
      if imask >= num_inputs then assert false
      else
        match successors counts imask with
        | Some nexts -> (imask, nexts)
        | None -> first (imask + 1)
    in
    first 0
  in
  let ids = Hashtbl.create 64 in
  let moves = ref [] in
  let nexts_table = ref [] in
  let rec intern counts =
    let key = key_of_counts counts in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      tick ();
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      let imask, nexts = winning_move counts in
      moves := (id, imask) :: !moves;
      let row = Array.make num_outputs 0 in
      nexts_table := (id, row) :: !nexts_table;
      List.iteri (fun omask next -> row.(omask) <- intern next) nexts;
      id
  in
  let initial = intern (initial_counts_of auto) in
  let num_states = Hashtbl.length ids in
  let move_arr = Array.make num_states 0 in
  List.iter (fun (id, imask) -> move_arr.(id) <- imask) !moves;
  let next_arr = Array.make num_states [||] in
  List.iter (fun (id, row) -> next_arr.(id) <- row) !nexts_table;
  {
    cs_inputs = inputs;
    cs_outputs = outputs;
    cs_num_states = num_states;
    cs_initial = initial;
    cs_move = (fun state -> move_arr.(state));
    cs_next = (fun state omask -> next_arr.(state).(omask));
  }

(* Extract a Mealy controller from the winning region: in each alive
   state, for each input, pick the first output leading to an alive
   successor. *)
let extract_controller game alive initial_id combined ~inputs ~outputs =
  let num_inputs = 1 lsl List.length inputs in
  let num_outputs = 1 lsl List.length outputs in
  (* Renumber alive states reachable under the chosen strategy. *)
  let remap = Hashtbl.create 64 in
  let back = ref [] in
  let next_id = ref 0 in
  let rec visit id =
    if not (Hashtbl.mem remap id) then begin
      Hashtbl.add remap id !next_id;
      back := id :: !back;
      incr next_id;
      let table = Hashtbl.find game.successor id in
      for imask = 0 to num_inputs - 1 do
        let rec first omask =
          if omask >= num_outputs then None
          else
            let succ = table.(combined imask omask) in
            if succ >= 0 && alive.(succ) then Some succ else first (omask + 1)
        in
        match first 0 with
        | Some succ -> visit succ
        | None -> assert false  (* alive states always have a move *)
      done
    end
  in
  visit initial_id;
  let ids = Array.of_list (List.rev !back) in
  let step_table =
    Array.map
      (fun id ->
         let table = Hashtbl.find game.successor id in
         Array.init num_inputs (fun imask ->
             let rec first omask =
               if omask >= num_outputs then assert false
               else
                 let succ = table.(combined imask omask) in
                 if succ >= 0 && alive.(succ) then
                   (omask, Hashtbl.find remap succ)
                 else first (omask + 1)
             in
             first 0))
      ids
  in
  {
    Mealy.inputs;
    outputs;
    num_states = Array.length ids;
    initial = 0;
    step = (fun state imask -> step_table.(state).(imask));
  }

(* Extract the environment's Moore strategy from a won dual game: in
   every alive position there is an input valuation under which every
   system answer stays inside the (dual) winning region. *)
let extract_counterstrategy game alive initial_id combined ~inputs ~outputs =
  let num_inputs = 1 lsl List.length inputs in
  let num_outputs = 1 lsl List.length outputs in
  let winning_move id =
    let table = Hashtbl.find game.successor id in
    let all_outputs_alive imask =
      let rec all omask =
        omask >= num_outputs
        || (let succ = table.(combined imask omask) in
            succ >= 0 && alive.(succ) && all (omask + 1))
      in
      all 0
    in
    let rec first imask =
      if imask >= num_inputs then assert false
      else if all_outputs_alive imask then imask
      else first (imask + 1)
    in
    first 0
  in
  let remap = Hashtbl.create 64 in
  let order = ref [] in
  let next_id = ref 0 in
  let rec visit id =
    if not (Hashtbl.mem remap id) then begin
      Hashtbl.add remap id !next_id;
      order := id :: !order;
      incr next_id;
      let table = Hashtbl.find game.successor id in
      let imask = winning_move id in
      for omask = 0 to num_outputs - 1 do
        visit table.(combined imask omask)
      done
    end
  in
  visit initial_id;
  let ids = Array.of_list (List.rev !order) in
  let moves = Array.map winning_move ids in
  let next_table =
    Array.mapi
      (fun state id ->
         let table = Hashtbl.find game.successor id in
         Array.init num_outputs (fun omask ->
             Hashtbl.find remap table.(combined moves.(state) omask)))
      ids
  in
  {
    cs_inputs = inputs;
    cs_outputs = outputs;
    cs_num_states = Array.length ids;
    cs_initial = 0;
    cs_move = (fun state -> moves.(state));
    cs_next = (fun state omask -> next_table.(state).(omask));
  }

let refute counterstrategy machine =
  if counterstrategy.cs_inputs <> machine.Mealy.inputs
  || counterstrategy.cs_outputs <> machine.Mealy.outputs
  then invalid_arg "Bounded.refute: interface mismatch";
  let combined_letter imask omask =
    Mealy.assignment_of_mask counterstrategy.cs_inputs imask
    @ Mealy.assignment_of_mask counterstrategy.cs_outputs omask
  in
  let seen = Hashtbl.create 64 in
  let rec play cs_state mealy_state acc step_index =
    match Hashtbl.find_opt seen (cs_state, mealy_state) with
    | Some first_index ->
      let letters = List.rev acc in
      let prefix = List.filteri (fun i _ -> i < first_index) letters in
      let loop = List.filteri (fun i _ -> i >= first_index) letters in
      Speccc_logic.Trace.make ~prefix ~loop
    | None ->
      Hashtbl.add seen (cs_state, mealy_state) step_index;
      let imask = counterstrategy.cs_move cs_state in
      let omask, mealy' = machine.Mealy.step mealy_state imask in
      let cs' = counterstrategy.cs_next cs_state omask in
      play cs' mealy' (combined_letter imask omask :: acc) (step_index + 1)
  in
  play counterstrategy.cs_initial machine.Mealy.initial [] 0

let check_size ~max_letters ~inputs ~outputs =
  let bits = List.length inputs + List.length outputs in
  if bits > 24 || 1 lsl bits > max_letters then
    invalid_arg
      (Printf.sprintf
         "Bounded.solve: %d propositions exceed the explicit engine's \
          letter budget (max_letters = %d); use the symbolic engine"
         bits max_letters)

let solve ?budget ?(bound = 3) ?(max_letters = 4096) ?(algorithm = Antichain)
    ~inputs ~outputs spec =
  Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.engine_explicit;
  check_size ~max_letters ~inputs ~outputs;
  let num_input_bits = List.length inputs in
  let num_output_bits = List.length outputs in
  (* System game: UCW of the negation. *)
  let ucw = Nbw.of_ltl ?budget (Ltl.neg spec) in
  let by_src = compile_automaton ucw ~inputs ~outputs in
  match algorithm with
  | Antichain -> begin
      match
        solve_game_antichain ?budget ucw by_src ~bound ~num_input_bits
          ~num_output_bits ~system_moves_second:true
      with
      | Some frontier ->
        Realizable
          (extract_controller_antichain ?budget ucw by_src ~bound frontier
             ~inputs ~outputs)
      | None ->
        let ucw_dual = Nbw.of_ltl ?budget spec in
        let by_src_dual = compile_automaton ucw_dual ~inputs ~outputs in
        (match
           solve_game_antichain ?budget ucw_dual by_src_dual ~bound
             ~num_input_bits ~num_output_bits ~system_moves_second:false
         with
         | Some frontier ->
           Unrealizable
             (extract_counterstrategy_antichain ?budget ucw_dual by_src_dual
                ~bound frontier ~inputs ~outputs)
         | None -> Unknown bound)
    end
  | Enumerate -> begin
      match
        solve_game ?budget ucw by_src ~bound ~num_input_bits ~num_output_bits
          ~system_moves_second:true
      with
      | Some (game, alive, initial_id, combined) ->
        Realizable
          (extract_controller game alive initial_id combined ~inputs ~outputs)
      | None ->
        (* Dual game: the environment tries to realize the negation; it
           moves first (Moore), i.e. picks the input before seeing the
           output.  Winning it proves unrealizability exactly. *)
        let ucw_dual = Nbw.of_ltl ?budget spec in
        let by_src_dual = compile_automaton ucw_dual ~inputs ~outputs in
        (match
           solve_game ?budget ucw_dual by_src_dual ~bound ~num_input_bits
             ~num_output_bits ~system_moves_second:false
         with
         | Some (game, alive, initial_id, combined) ->
           Unrealizable
             (extract_counterstrategy game alive initial_id combined ~inputs
                ~outputs)
         | None -> Unknown bound)
    end

(* ---------- session-incremental conjunction solving ----------

   The UCW of ¬(f1 ∧ ... ∧ fm) is the disjoint union of the per-
   conjunct automata NBW(¬fi), so the joint counting-function game
   decomposes block-wise: a counting function over the union is the
   concatenation of per-block counting functions, and a joint winning
   strategy wins every per-block "solo" game (a joint play restricted
   to block i is a valid solo play).  Hence

       W*_joint  ⊆  ⋂i lift_i(W*_i)

   where lift_i extends a block-i counting function with ⊤ (the bound)
   everywhere else.  A [session] caches, per formula id: the compiled
   block (arena fragment) and the converged solo frontier per counting
   bound — so after a one-sentence edit only the edited conjunct's
   block is re-instantiated and re-solved solo, and the joint gfp is
   seeded with the meet of the lifted solo frontiers instead of
   starting from ⊤.  Seeding is verdict- and witness-exact: every
   iterate stays ⊇ W*_joint (the seed is, and the operator is
   monotone), and a fixpoint X with X ⊑ CPre(X) is ⊆ W*_joint, so the
   iteration converges to exactly W*_joint — the same canonical
   maximal-element frontier a cold run reaches, from which the
   dominance-based extraction reads off bit-identical machines.  The
   early-exit loss is genuine under a seed (unlike under a resumed
   snapshot): the initial position fell out of an upper bound of the
   winning region.

   Solo frontiers never leave the process, so the session keeps them
   as plain values; seeding only reads them (it lifts copies). *)

type block = {
  b_auto : Nbw.t;
  b_by_src : compiled_transition list array;
}

type session = {
  mutable io_tag : string;
      (* compiled guards and solo regions are relative to the in/out
         alphabets; a partition change invalidates everything *)
  s_blocks : (int, block) Hashtbl.t;           (* formula id -> block *)
  s_solo : (int * int, int array list option) Hashtbl.t;
      (* (formula id, bound) -> won frontier, None = solo lost *)
  mutable s_built_blocks : int;
  mutable s_reused_blocks : int;
  mutable s_solved_solo : int;
  mutable s_reused_solo : int;
}

type session_stats = {
  cached_blocks : int;
  cached_solo : int;
  built_blocks : int;
  reused_blocks : int;
  solved_solo : int;
  reused_solo : int;
}

let create_session () = {
  io_tag = "";
  s_blocks = Hashtbl.create 64;
  s_solo = Hashtbl.create 64;
  s_built_blocks = 0;
  s_reused_blocks = 0;
  s_solved_solo = 0;
  s_reused_solo = 0;
}

let session_stats s = {
  cached_blocks = Hashtbl.length s.s_blocks;
  cached_solo = Hashtbl.length s.s_solo;
  built_blocks = s.s_built_blocks;
  reused_blocks = s.s_reused_blocks;
  solved_solo = s.s_solved_solo;
  reused_solo = s.s_reused_solo;
}

let prune_session s ~retain =
  let stale_blocks =
    Hashtbl.fold
      (fun id _ acc -> if retain id then acc else id :: acc)
      s.s_blocks []
  in
  List.iter (Hashtbl.remove s.s_blocks) stale_blocks;
  let stale_solo =
    Hashtbl.fold
      (fun ((id, _) as key) _ acc -> if retain id then acc else key :: acc)
      s.s_solo []
  in
  List.iter (Hashtbl.remove s.s_solo) stale_solo

let io_tag_of ~inputs ~outputs =
  String.concat "\x1f" inputs ^ "\x1e" ^ String.concat "\x1f" outputs

let ensure_io session ~inputs ~outputs =
  let tag = io_tag_of ~inputs ~outputs in
  if session.io_tag <> tag then begin
    Hashtbl.reset session.s_blocks;
    Hashtbl.reset session.s_solo;
    session.io_tag <- tag
  end

let block_of session ?budget ~inputs ~outputs formula =
  let id = Ltl.id formula in
  match Hashtbl.find_opt session.s_blocks id with
  | Some block ->
    session.s_reused_blocks <- session.s_reused_blocks + 1;
    block
  | None ->
    let b_auto = Nbw.of_ltl ?budget (Ltl.neg formula) in
    let block = { b_auto; b_by_src = compile_automaton b_auto ~inputs ~outputs } in
    Hashtbl.add session.s_blocks id block;
    session.s_built_blocks <- session.s_built_blocks + 1;
    block

(* Converged solo frontier of one block's system game, or [None] when
   the system cannot even win that conjunct alone (which settles the
   joint system game at this bound: a joint win restricts to a solo
   win).  Cached per (formula id, bound). *)
let solo_of session ?budget ~bound ~num_input_bits ~num_output_bits formula
    block =
  let key = (Ltl.id formula, bound) in
  match Hashtbl.find_opt session.s_solo key with
  | Some frontier ->
    session.s_reused_solo <- session.s_reused_solo + 1;
    frontier
  | None ->
    let frontier =
      solve_game_antichain ?budget block.b_auto block.b_by_src ~bound
        ~num_input_bits ~num_output_bits ~system_moves_second:true
    in
    session.s_solved_solo <- session.s_solved_solo + 1;
    Hashtbl.replace session.s_solo key frontier;
    frontier

(* Disjoint union of the blocks, with per-block state offsets; the
   [transitions]/[atoms] fields are dead weight for the game solvers
   (they read [accepting]/[initial] plus the compiled guards), so the
   union leaves them empty. *)
let union_of_blocks blocks =
  let total = List.fold_left (fun n b -> n + b.b_auto.Nbw.num_states) 0 blocks in
  let accepting = Array.make total false in
  let by_src = Array.make total [] in
  let initial = ref [] in
  let offset = ref 0 in
  let offsets =
    List.map
      (fun b ->
         let off = !offset in
         Array.blit b.b_auto.Nbw.accepting 0 accepting off
           b.b_auto.Nbw.num_states;
         Array.iteri
           (fun src ts ->
              by_src.(off + src) <-
                List.map (fun t -> { t with dst = t.dst + off }) ts)
           b.b_by_src;
         List.iter (fun q -> initial := (q + off) :: !initial)
           b.b_auto.Nbw.initial;
         offset := off + b.b_auto.Nbw.num_states;
         off)
      blocks
  in
  let auto = {
    Nbw.num_states = total;
    initial = List.rev !initial;
    accepting;
    transitions = [];
    atoms = [];
  }
  in
  (auto, by_src, offsets)

(* The meet of the lifted solo frontiers.  Worst case the meet is the
   product of the per-block frontiers, so the accumulation is capped:
   blocks beyond the cap keep their lift at ⊤ — dropping a constraint
   only loosens the seed, which stays an upper bound of the joint
   winning region. *)
let seed_cap = 64

let seeded_frontier ~bound ~total solos_with_offsets =
  let lift off w =
    let a = Array.make total bound in
    Array.blit w 0 a off (Array.length w);
    a
  in
  List.fold_left
    (fun seed (frontier, off) ->
       let lifted = List.map (lift off) frontier in
       if List.length seed * List.length lifted > seed_cap then seed
       else meet_antichains seed lifted)
    [ Array.make total bound ]
    solos_with_offsets

(* Stock gfp, started from a frontier already known to be ⊇ the exact
   winning region (see the block-decomposition note above): losses are
   genuine without a from-top re-check, and the converged frontier is
   the same canonical one a cold from-top run reaches. *)
let solve_game_antichain_seeded ?budget auto by_src ~bound ~num_input_bits
    ~num_output_bits seed =
  let tick () =
    match budget with
    | Some budget ->
      Speccc_runtime.Budget.checkpoint budget ~stage:"explicit"
    | None -> ()
  in
  let initial = initial_counts_of auto in
  let cpre frontier =
    cpre_antichain tick auto by_src ~bound ~num_input_bits ~num_output_bits
      ~system_moves_second:true frontier
  in
  let rec gfp frontier =
    tick ();
    if not (List.exists (dominated initial) frontier) then None
    else
      let frontier' = meet_antichains frontier (cpre frontier) in
      if not (List.exists (dominated initial) frontier') then None
      else if
        List.for_all (fun f -> List.exists (dominated f) frontier') frontier
      then Some frontier'
      else gfp frontier'
  in
  gfp seed

let solve_conj ?budget ?session ?(bound = 3) ?(max_letters = 4096) ~inputs
    ~outputs formulas =
  match formulas with
  | [] | [ _ ] ->
    solve ?budget ~bound ~max_letters ~inputs ~outputs
      (Ltl.conj_list formulas)
  | _ ->
    Speccc_runtime.Fault.hit Speccc_runtime.Fault.Checkpoint.engine_explicit;
    check_size ~max_letters ~inputs ~outputs;
    let session =
      match session with Some s -> s | None -> create_session ()
    in
    ensure_io session ~inputs ~outputs;
    let num_input_bits = List.length inputs in
    let num_output_bits = List.length outputs in
    let blocks =
      List.map (block_of session ?budget ~inputs ~outputs) formulas
    in
    let auto, by_src, offsets = union_of_blocks blocks in
    let solos =
      List.map2
        (fun formula block ->
           solo_of session ?budget ~bound ~num_input_bits ~num_output_bits
             formula block)
        formulas blocks
    in
    let system_frontier =
      if List.exists Option.is_none solos then None
      else
        let solos_with_offsets =
          List.map2 (fun solo off -> (Option.get solo, off)) solos offsets
        in
        let seed =
          seeded_frontier ~bound ~total:auto.Nbw.num_states
            solos_with_offsets
        in
        solve_game_antichain_seeded ?budget auto by_src ~bound
          ~num_input_bits ~num_output_bits seed
    in
    (match system_frontier with
     | Some frontier ->
       Realizable
         (extract_controller_antichain ?budget auto by_src ~bound frontier
            ~inputs ~outputs)
     | None ->
       (* The dual game certifies unrealizability on the automaton of
          the conjunction itself, which does not decompose as a union —
          run it exactly as the stock path does. *)
       let spec = Ltl.conj_list formulas in
       let ucw_dual = Nbw.of_ltl ?budget spec in
       let by_src_dual = compile_automaton ucw_dual ~inputs ~outputs in
       (match
          solve_game_antichain ?budget ucw_dual by_src_dual ~bound
            ~num_input_bits ~num_output_bits ~system_moves_second:false
        with
        | Some frontier ->
          Unrealizable
            (extract_counterstrategy_antichain ?budget ucw_dual by_src_dual
               ~bound frontier ~inputs ~outputs)
        | None -> Unknown bound))

let solve_conj_iterative ?budget ?session ?(max_bound = 8) ?max_letters
    ~inputs ~outputs formulas =
  let rec escalate bound =
    match
      solve_conj ?budget ?session ~bound ?max_letters ~inputs ~outputs
        formulas
    with
    | (Realizable _ | Unrealizable _) as verdict -> verdict
    | Unknown _ when 2 * bound <= max_bound -> escalate (2 * bound)
    | Unknown _ -> Unknown bound
  in
  escalate 1

let solve_iterative ?budget ?(max_bound = 8) ?max_letters ?algorithm ~inputs
    ~outputs spec =
  (* Anytime resume: a snapshot records the last counting bound that
     completed with Unknown, so a preempted-then-retried search starts
     escalation above it instead of re-losing the small bounds.  The
     escalation tail (doubling, clamped at [max_bound]) is identical
     to a cold run's, so the final verdict cannot differ. *)
  let publish bound =
    match budget with
    | None -> ()
    | Some b ->
      Speccc_runtime.Budget.publish b
        (Speccc_runtime.Snapshot.make ~engine:"explicit"
           [ ("bound", string_of_int bound) ])
  in
  let start =
    match budget with
    | None -> 1
    | Some b ->
      (match Speccc_runtime.Budget.resume_for b ~engine:"explicit" with
       | Some snap ->
         (match Speccc_runtime.Snapshot.int_field snap "bound" with
          | Some k when k >= 1 ->
            (* A bare bound marks a bound that completed with Unknown —
               escalate past it.  A snapshot carrying an antichain
               frontier marks a bound that was preempted mid-fixpoint:
               restart at that bound and let the game solver warm-start
               from the frontier. *)
            if Speccc_runtime.Snapshot.field snap "frontier" <> None then
              min k max_bound
            else min (2 * k) max_bound
          | Some _ | None -> 1)
       | None -> 1)
  in
  let rec escalate bound =
    match solve ?budget ~bound ?max_letters ?algorithm ~inputs ~outputs spec with
    | Realizable _ as verdict -> verdict
    | Unrealizable _ as verdict -> verdict
    | Unknown _ when 2 * bound <= max_bound ->
      publish bound;
      escalate (2 * bound)
    | Unknown _ -> publish bound; Unknown bound
  in
  escalate (max 1 start)
