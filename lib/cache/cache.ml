(* Bounded LRU memoization with a process-wide stats registry.

   Design notes:
   - Instances are single-domain: callers keep one per domain (usually
     via [create_dls]) so lookups never take a lock.  Only the registry
     of stats/clear closures is shared, behind one mutex.
   - The LRU list is an intrusive doubly-linked list threaded through
     the hashtable's payload nodes, so hit/add/evict are all O(1).
   - [set_enabled false] makes [memo] a pass-through without touching
     counters, so an A/B test sees the uncached baseline exactly. *)

type stats = {
  name : string;
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let enabled_flag = Atomic.make true
let enabled () = Atomic.get enabled_flag
let set_enabled value = Atomic.set enabled_flag value

(* ---------- capacity table ----------

   One place to size every named cache: call sites pass their
   historical size as [default] and this table overrides it, so tuning
   a cache budget is a one-line change here instead of a hunt across
   libraries. *)

let capacities =
  [ ("nbw.template", 1024); ("nlp.parse", 2048); ("watch.verdict", 128) ]

let capacity ~name ~default =
  match List.assoc_opt name capacities with
  | Some c -> c
  | None -> default

(* ---------- registry ---------- *)

type registered = {
  reg_name : string;
  snapshot : unit -> stats;
  wipe : unit -> unit;
  drop : unit -> unit;    (* entries only; counters survive as evictions *)
}

let registry : registered list ref = ref []
let registry_lock = Mutex.create ()

let register entry =
  Mutex.lock registry_lock;
  registry := entry :: !registry;
  Mutex.unlock registry_lock

let registered () =
  Mutex.lock registry_lock;
  let entries = !registry in
  Mutex.unlock registry_lock;
  entries

let stats () =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun entry ->
       let s = entry.snapshot () in
       match Hashtbl.find_opt merged s.name with
       | None -> Hashtbl.replace merged s.name s
       | Some acc ->
         Hashtbl.replace merged s.name
           { acc with
             hits = acc.hits + s.hits;
             misses = acc.misses + s.misses;
             evictions = acc.evictions + s.evictions;
             size = acc.size + s.size })
    (registered ());
  Hashtbl.fold (fun _ s acc -> s :: acc) merged []
  |> List.sort (fun a b -> String.compare a.name b.name)

let reset () = List.iter (fun entry -> entry.wipe ()) (registered ())
let shed () = List.iter (fun entry -> entry.drop ()) (registered ())

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let pp_stats fmt entries =
  let width =
    List.fold_left (fun acc s -> max acc (String.length s.name)) 0 entries
  in
  List.iter
    (fun s ->
       Format.fprintf fmt "%-*s  hits=%-8d misses=%-8d evict=%-6d \
                           size=%d/%d  rate=%.1f%%@."
         width s.name s.hits s.misses s.evictions s.size s.capacity
         (100. *. hit_rate s))
    entries

(* ---------- LRU instances ---------- *)

module type KEY = sig
  type t
  val equal : t -> t -> bool
  val hash : t -> int
end

module Int_key = struct
  type t = int
  let equal = Int.equal
  let hash = Hashtbl.hash
end

module Int_list_key = struct
  type t = int list
  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end

module String_key = struct
  type t = string
  let equal = String.equal
  let hash = Hashtbl.hash
end

module Make (K : KEY) = struct
  module H = Hashtbl.Make (K)

  type 'a node = {
    key : K.t;
    value : 'a;
    mutable newer : 'a node option;
    mutable older : 'a node option;
  }

  type 'a t = {
    table : 'a node H.t;
    capacity : int;
    mutable newest : 'a node option;
    mutable oldest : 'a node option;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let unlink t node =
    (match node.newer with
     | Some n -> n.older <- node.older
     | None -> t.newest <- node.older);
    (match node.older with
     | Some n -> n.newer <- node.newer
     | None -> t.oldest <- node.newer);
    node.newer <- None;
    node.older <- None

  let push_newest t node =
    node.older <- t.newest;
    (match t.newest with
     | Some n -> n.newer <- Some node
     | None -> t.oldest <- Some node);
    t.newest <- Some node

  let length t = H.length t.table

  let clear t =
    H.reset t.table;
    t.newest <- None;
    t.oldest <- None;
    t.hits <- 0;
    t.misses <- 0;
    t.evictions <- 0

  (* memory shedding, not a stats reset: every live entry counts as an
     eviction so the [--stats] picture shows the shed happened *)
  let drop_entries t =
    let n = length t in
    H.reset t.table;
    t.newest <- None;
    t.oldest <- None;
    t.evictions <- t.evictions + n

  let create ~name ~capacity () =
    let t =
      { table = H.create (min capacity 64);
        capacity = max 1 capacity;
        newest = None;
        oldest = None;
        hits = 0;
        misses = 0;
        evictions = 0 }
    in
    register
      { reg_name = name;
        snapshot =
          (fun () ->
             { name;
               hits = t.hits;
               misses = t.misses;
               evictions = t.evictions;
               size = length t;
               capacity = t.capacity });
        wipe = (fun () -> clear t);
        drop = (fun () -> drop_entries t) };
    t

  let create_dls ~name ~capacity () =
    Domain.DLS.new_key (fun () -> create ~name ~capacity ())

  let find_opt t key =
    if not (enabled ()) then None
    else
      match H.find_opt t.table key with
      | Some node ->
        t.hits <- t.hits + 1;
        unlink t node;
        push_newest t node;
        Some node.value
      | None ->
        t.misses <- t.misses + 1;
        None

  let evict_oldest t =
    match t.oldest with
    | None -> ()
    | Some node ->
      unlink t node;
      H.remove t.table node.key;
      t.evictions <- t.evictions + 1

  let add t key value =
    if enabled () then begin
      (match H.find_opt t.table key with
       | Some stale -> unlink t stale; H.remove t.table key
       | None -> ());
      if H.length t.table >= t.capacity then evict_oldest t;
      let node = { key; value; newer = None; older = None } in
      H.replace t.table key node;
      push_newest t node
    end

  let memo t key compute =
    match find_opt t key with
    | Some value -> value
    | None ->
      let value = compute () in
      add t key value;
      value
end
