(** A small LRU cache keyed by ints (the snapshot page cache).
    Hashtable over a doubly-linked list; all operations O(1). *)

type 'a t

(** @raise Invalid_argument if [capacity < 1]. *)
val create : int -> 'a t

val length : 'a t -> int

(** Lookup; a hit refreshes recency.  Counts into {!stat_record}. *)
val find : 'a t -> int -> 'a option

(** Membership without touching recency or stats. *)
val mem : 'a t -> int -> bool

(** Insert or refresh; evicts the least recently used entry at
    capacity. *)
val add : 'a t -> int -> 'a -> unit

val clear : 'a t -> unit

(** Shrink or grow the capacity, evicting as needed. *)
val set_capacity : 'a t -> int -> unit

(** Per-instance statistics for the introspection layer (sys_cache). *)
type stat_record = {
  s_capacity : int;
  s_occupancy : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
}

val stat_record : 'a t -> stat_record

(** Zero the hit/miss/eviction counters (capacity and contents are
    untouched). *)
val reset_stats : 'a t -> unit
