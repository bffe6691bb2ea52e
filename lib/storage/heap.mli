(** Heap files: page chains holding serialized rows.

    A table's rows live on a chain of slotted pages linked through the
    page header's [next] field; the chain head is recorded in the
    catalog, so a query running AS OF a snapshot follows the chain as it
    existed in that snapshot.

    A handle carries an advisory in-memory free-space map so deleted
    space is found by later inserts; correctness never depends on it
    (pages are re-checked before use).  Once the transaction that last
    wrote through a handle aborts, the handle forgets the map and its
    tail hint before its next use: they may name pages the abort gave
    back. *)

type t

(** Allocate a fresh chain head inside [txn]. *)
val create : Txn.t -> t

(** Handle on an existing chain (e.g. from the catalog). *)
val open_existing : int -> t

val first_page : t -> int

(** Row ids encode (page id, slot); stable across in-place updates. *)
val rid_of : pid:int -> slot:int -> int

val pid_of_rid : int -> int
val slot_of_rid : int -> int

(** The longest record a page holds, in bytes. *)
val max_record : int

(** Insert a row, reusing freed space when possible, extending the
    chain otherwise.  Returns the new rid.  Inserts that follow one
    another onto a page in one transaction share its transaction copy
    and one scan of its slot directory.
    @raise Invalid_argument if longer than {!max_record} (chain unchanged). *)
val insert : Txn.t -> t -> string -> int

(** Fetch a row through any read context (committed, transaction-local
    or Retro snapshot). *)
val get : Pager.read -> t -> int -> string option

(** Copy-free {!get}: [f page offset length] on the row's bytes inside
    its page; [None] when the rid's slot is dead. *)
val get_span : Pager.read -> t -> int -> f:(Page.t -> int -> int -> 'a) -> 'a option

(** {!get_span} on the transaction's own copy of the row's page, for
    edits that rewrite bytes in place and keep the row's length (the
    bytes a same-length {!update} would leave); [None] when the rid's
    slot is dead.  Edits that follow one another on a page share one
    lookup of its copy. *)
val write_span : Txn.t -> t -> int -> f:(Page.t -> int -> int -> 'a) -> 'a option

(** Delete by rid; returns whether the row existed. *)
val delete : Txn.t -> t -> int -> bool

(** Update in place when the new bytes fit, else delete + reinsert
    ([`Moved] carries the new rid). *)
val update : Txn.t -> t -> int -> string -> [ `Same | `Moved of int ]

(** The handle's free-space map as sorted (page id, free bytes) pairs,
    built by one chain walk if the handle has none yet.  A fresh handle
    ({!open_existing}) gives the map a chain walk finds now. *)
val fsm_bindings : Pager.read -> t -> (int * int) list

(** Visit every live row in chain order. *)
val iter : Pager.read -> t -> f:(int -> string -> unit) -> unit

(** Copy-free {!iter}: [f rid page offset length], the row being the
    page's own bytes (see {!Page.iter_spans}).  Scans decode from here. *)
val iter_spans : Pager.read -> t -> f:(int -> Page.t -> int -> int -> unit) -> unit

(** Like {!iter} but [f] returns [false] to stop early. *)
val iter_while : Pager.read -> t -> f:(int -> string -> bool) -> unit

val count : Pager.read -> t -> int

(** Pages in the chain (size experiments). *)
val page_count : Pager.read -> t -> int

(** Release every page of the chain (DROP TABLE). *)
val drop : Txn.t -> t -> unit
