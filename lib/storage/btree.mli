(** Page-based B+trees used for table indexes.

    Entries are composite keys (column values, rowid): every entry is
    unique and non-unique indexes hold duplicates naturally.  Leaves are
    chained for range scans; the root page id is fixed for the index's
    lifetime (recorded in the catalog), so snapshots capture indexes
    exactly as the paper requires.  Deletion is lazy (no rebalancing). *)

type t

val create : Txn.t -> t
val open_existing : int -> t

val root : t -> int
(** The fixed root page id. *)

(** The longest key, in {!Record.row_size} bytes, {!insert} and {!build} always fit. *)
val max_key : int

(** Insert entry (key, rid); duplicates of [key] are allowed as long as
    rids differ. *)
val insert : Txn.t -> t -> Record.row -> int -> unit

(** Composite order of entries: [Record.compare_row] on the keys, then
    rids. *)
val compare_composite : Record.row * int -> Record.row * int -> int

(** Sort entries by {!compare_composite}, in place: a natural merge
    sort, so input made of r ascending runs costs about n log2 r
    comparisons. *)
val sort : (Record.row * int) array -> unit

(** Fill an empty tree (fresh from {!create}) from [(key, rid)] entries
    sorted by {!compare_composite}, bottom up: packed leaves chained in
    order, interior levels of first-composite separators, the top node
    in the root page.  Gives the same entries as {!insert} of each one;
    only the node layout differs.
    @raise Invalid_argument if the tree is not empty or the entries are
    not strictly ascending. *)
val build : Txn.t -> t -> (Record.row * int) array -> unit

(** Remove exactly the (key, rid) entry; returns whether it existed. *)
val delete : Txn.t -> t -> Record.row -> int -> bool

(** Visit every rid whose key columns equal [key]. *)
val lookup : Pager.read -> t -> Record.row -> f:(int -> unit) -> unit

(** Visit the rids of entries with composite (key, rid) in [lo, hi]
    (inclusive; [hi = None] runs to the end of the index) in key order;
    [f] returns [false] to stop.  Use [(k, min_int)]/[(k, max_int)] to
    form bounds around a key.  Searches compare composites against the
    encoded entries in the node pages, without decoding them. *)
val range :
  Pager.read -> t -> lo:Record.row * int -> hi:(Record.row * int) option ->
  f:(int -> bool) -> unit

(** Full ordered iteration. *)
val iter_all : Pager.read -> t -> f:(Record.row -> int -> unit) -> unit

val count : Pager.read -> t -> int

(** Pages reachable from the root (index size experiments). *)
val page_count : Pager.read -> t -> int

(** Release every page of the index (DROP INDEX). *)
val drop : Txn.t -> t -> unit
