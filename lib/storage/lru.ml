(* A small LRU cache keyed by ints, used as the snapshot page cache.

   Implemented as a hashtable over a doubly-linked list; all operations
   are O(1). *)

type 'a node = {
  key : int;
  mutable value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
}

type 'a t = {
  mutable capacity : int;
  tbl : (int, 'a node) Hashtbl.t;
  mutable head : 'a node option; (* most recently used *)
  mutable tail : 'a node option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; tbl = Hashtbl.create 256; head = None; tail = None; hits = 0; misses = 0;
    evictions = 0 }

let length t = Hashtbl.length t.tbl

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None ->
    t.misses <- t.misses + 1;
    None
  | Some n ->
    t.hits <- t.hits + 1;
    unlink t n;
    push_front t n;
    Some n.value

let mem t key = Hashtbl.mem t.tbl key

let evict_lru t =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl n.key;
    t.evictions <- t.evictions + 1

let add t key value =
  (match Hashtbl.find_opt t.tbl key with
  | Some n ->
    n.value <- value;
    unlink t n;
    push_front t n
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    let n = { key; value; prev = None; next = None } in
    Hashtbl.add t.tbl key n;
    push_front t n)

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None

let set_capacity t capacity =
  if capacity < 1 then invalid_arg "Lru.set_capacity";
  t.capacity <- capacity;
  while Hashtbl.length t.tbl > capacity do
    evict_lru t
  done

(* Per-instance view for the introspection layer (sys_cache). *)
type stat_record = {
  s_capacity : int;
  s_occupancy : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

let stat_record t =
  { s_capacity = t.capacity;
    s_occupancy = Hashtbl.length t.tbl;
    s_hits = t.hits;
    s_misses = t.misses;
    s_evictions = t.evictions }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0
