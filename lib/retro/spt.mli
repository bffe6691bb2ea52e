(** Snapshot page tables: the per-snapshot map from page id to Pagelog
    location, built on demand by scanning the Maplog (paper §4).
    A page absent from the table is shared with the current database.
    Held as a page-indexed array: one word per page of the snapshot. *)

type t

val build : Maplog.t -> int -> t

(** The snapshot; its database size at declaration (pages at or beyond
    it did not exist); the Maplog entries visited to build the table. *)
val snap_id : t -> int
val db_pages : t -> int
val scan_len : t -> int

(** Pagelog offset of the page's image; [None] if shared or absent. *)
val find : t -> int -> int option

(** Mapped pages (pid, pagelog offset) in ascending page-id order. *)
val iter : t -> f:(int -> int -> unit) -> unit

(** Mapped pages (pages that must be fetched from the Pagelog). *)
val cardinal : t -> int

(** Did the page exist when the snapshot was declared? *)
val in_snapshot : t -> int -> bool
