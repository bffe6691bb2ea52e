(** The current-state database: the committed page images, kept on a
    {!Disk} page store named ["db"].

    As in the paper's evaluation, current-state pages are memory
    resident; reads count as cheap memory fetches.  All mutation goes
    through {!Txn}, which calls {!install} at commit; the
    [pre_commit_hook] is where Retro captures copy-on-write
    pre-states.  Committed images carry install-time CRC32 checksums
    verified by {!verify_checksums} (the integrity checker), not on
    each read.  A reserved id that was never installed holds an empty
    block with CRC 0. *)

type commit_event = {
  pid : int;
  before : Bytes.t option;
      (** committed image being overwritten; [None] for a brand-new id *)
}

(** Closures into the write-ahead log, installed by [Wal.attach]
    (avoids a Pager -> Wal dependency cycle).  [wal_barrier] is the
    durability point; group commit decides whether it flushes. *)
type wal_sink = {
  wal_commit : writes:(int * Bytes.t) list -> freed:int list -> unit;
  wal_declare : db_pages:int -> ts:float -> unit;
  wal_barrier : unit -> unit;
}

type t = {
  store : Disk.t;  (** committed images with their install-time CRCs *)
  mutable free_list : int list;
  mutable pre_commit_hook : commit_event list -> unit;
  mutable wal : wal_sink option;
  mutable installs : int;
      (** committed page images installed so far: unchanged between two
          reads exactly when no page's committed content changed *)
  lock : Rwlock.t;
      (** readers = whole read statements, writers = commit bodies /
          snapshot declarations (see DESIGN.md §15) *)
}

(** A read context: how a storage structure resolves a page id to bytes.
    Instantiated by committed reads, transaction views and Retro
    snapshot reads. *)
type read = int -> Bytes.t

val create : unit -> t

(** Run [f] holding this database's lock in read mode (nests: the lock
    is reader-preferring, so a read section inside a read section never
    deadlocks).  The engine wraps whole read statements in it. *)
val with_read_lock : t -> (unit -> 'a) -> 'a

(** Run [f] holding the lock in write mode: transaction commit bodies
    and snapshot declarations, which mutate the committed state. *)
val with_write_lock : t -> (unit -> 'a) -> 'a

val n_pages : t -> int

(** Committed image; treat as read-only ({!Txn} copies before
    mutating).
    @raise Invalid_argument on an out-of-range or never-installed
    page. *)
val read_committed : t -> int -> Bytes.t

(** Committed image without counters or raising ([None] when never
    installed or out of range).  The WAL replay path uses this to
    reconstruct before-images. *)
val peek_committed : t -> int -> Bytes.t option

(** Reserve a page id for a transaction; returns the previous committed
    image when the id is recycled. *)
val reserve : t -> int * Bytes.t option

(** Install a committed after-image (called by {!Txn.commit}). *)
val install : t -> int -> Bytes.t -> unit

(** Put a page id on the free list: a freed page (its content stays
    readable for snapshot sharing until the id is recycled) or a
    reserved id that was never committed (transaction abort). *)
val release : t -> int -> unit

(** Committed-state read context. *)
val read : t -> read

(** Page ids whose committed image fails its install-time checksum. *)
val verify_checksums : t -> int list

(** Test hook: flip one bit of a committed page without updating its
    CRC. *)
val corrupt_page : t -> int -> bit:int -> unit

(** {1 Images} *)

type image = {
  img_pages : (Bytes.t * int) option array;
      (** committed bytes and stored CRC; [None] for an id never
          committed *)
  img_free : int list;
}

(** Portable copy of the committed state, stored CRCs included. *)
val dump : t -> image

(** A fresh pager holding the image (no hook attached); each page keeps
    the CRC it was dumped with, so a damaged page stays damaged. *)
val restore : image -> t
