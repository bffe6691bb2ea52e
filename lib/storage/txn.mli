(** Transactions with page-level before-images.

    A transaction overlays private copies of the pages it writes;
    readers of the committed state never observe uncommitted writes.
    At commit the before-images are handed to the pager's pre-commit
    hook — the interposition point where Retro archives copy-on-write
    pre-states — and the after-images are installed atomically. *)

type t

val begin_txn : Pager.t -> t

(** Transaction-local read: own writes first, then committed state. *)
val read : t -> int -> Bytes.t

val read_ctx : t -> Pager.read

(** Mutable image of a page; the first touch copies the committed image
    and records it as the before-image.
    @raise Invalid_argument if the transaction is not active. *)
val write : t -> int -> Bytes.t

(** Allocate a page (possibly recycling a freed id, whose old committed
    image then becomes the before-image so COW can preserve it for
    older snapshots). *)
val alloc : t -> Page.kind -> int

(** Schedule a page for release at commit. *)
val free : t -> int -> unit

(** Deliver before-images to the pager hook, install after-images,
    release freed pages. *)
val commit : t -> unit

(** Discard all writes; reserved page ids return to the free list. *)
val abort : t -> unit

val is_active : t -> bool

(** Whether {!abort} ended the transaction. *)
val aborted : t -> bool

(** Run [f] in a fresh transaction: commit on return, abort if [f]
    raises. *)
val with_txn : Pager.t -> (t -> 'a) -> 'a
