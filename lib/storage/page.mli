(** Slotted pages: the fixed-size unit of storage, snapshotting and
    I/O.

    A page is a [size]-byte buffer holding a header, a slot directory
    growing down from the header and a record area growing up from the
    end.  Heap pages keep slot indexes stable (rowids embed them);
    B+tree node pages keep the slot directory dense and sorted via
    {!insert_at}/{!remove_at}. *)

val size : int
(** Page size in bytes (4096). *)

val header : int
(** Header bytes reserved at the start of each page. *)

val slot_bytes : int
(** Bytes per slot-directory entry. *)

type kind = Free | Heap_page | Btree_leaf | Btree_interior | Meta

type t = Bytes.t

(** {1 Header accessors} *)

val kind : t -> kind
val set_kind : t -> kind -> unit

val next : t -> int
(** Chain link: next heap page / next B+tree leaf; [-1] = none. *)

val set_next : t -> int -> unit

val nslots : t -> int

val aux : t -> int
(** Auxiliary header field (B+tree interior: leftmost child). *)

val set_aux : t -> int -> unit

(** {1 Lifecycle} *)

(** Reset [p] to an empty page of the given kind. *)
val init : t -> kind -> unit

val create : kind -> t

(** {1 Records} *)

(** Bytes of slot [i], or [None] if dead/out of range. *)
val get : t -> int -> string option

(** @raise Invalid_argument on a dead slot. *)
val get_exn : t -> int -> string

val live : t -> int -> bool

(** Contiguous free bytes (before compaction). *)
val free_space : t -> int

(** Bytes recoverable by {!compact}. *)
val dead_bytes : t -> int

(** Would an insert of [len] bytes succeed, counting compaction?
    Answered without a directory scan when [free_space] already holds
    the record and a new slot. *)
val can_insert : t -> int -> bool

(** Insert a record, reusing the first dead slot if any; returns the
    slot index or [None] if the page is full even after compaction. *)
val insert : t -> string -> int option

(** {!insert}, also returning the page's [free_space + dead_bytes]
    after the insert; one pass over the slot directory computes both. *)
val insert_free : t -> string -> (int * int) option

(** {2 Repeated inserts into one page}

    What {!insert} learns from its directory scan (the first dead slot
    and the reclaimable bytes), kept up to date by the inserts made
    through it, so that a run of inserts into one page scans its
    directory once.  {!fill_insert} places a record exactly where
    {!insert} would. *)

type fill

(** Scan [p]'s slot directory once. *)
val fill : t -> fill

(** Whether [p]'s slot count and content start are still those [fill]
    last saw: false after any insert, compaction or growing update made
    without it.  (A delete or a shrinking update leaves both alone; the
    caller drops its [fill] after those.) *)
val fill_current : t -> fill -> bool

(** [free_space + dead_bytes]. *)
val fill_free : t -> fill -> int

(** {!can_insert}, without a directory scan. *)
val fill_fits : t -> fill -> int -> bool

(** {!insert}, without a directory scan, updating [fill]. *)
val fill_insert : t -> fill -> string -> int option

(** Kill slot [i]; returns whether it was live. *)
val delete : t -> int -> bool

(** Replace slot [i] in place (compacting if needed); returns [false]
    when the new record no longer fits and the slot is left unchanged. *)
val update : t -> int -> string -> bool

(** Rewrite the record area dropping dead space; slot indexes are
    preserved. *)
val compact : t -> unit

(** Visit live slots in slot order. *)
val iter : t -> f:(int -> string -> unit) -> unit

(** Visit live slots in slot order as [f slot offset length], where the
    record is the page's own bytes [offset, offset + length): nothing is
    copied.  The span is valid only while the page is unchanged. *)
val iter_spans : t -> f:(int -> int -> int -> unit) -> unit

(** Record offset of slot [i] (0 = dead) and its length. *)
val slot_off : t -> int -> int

val slot_len : t -> int -> int

(** {1 Ordered slot operations (B+tree nodes)} *)

(** Open a gap at slot [i] by shifting the directory, keeping slot order
    equal to key order.  Returns [false] if the record cannot fit. *)
val insert_at : t -> int -> string -> bool

(** Close the directory gap at slot [i]; the record bytes become dead
    space. *)
val remove_at : t -> int -> unit

val copy : t -> t
