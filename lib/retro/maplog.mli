(** Maplog: the log-structured list of page-id → Pagelog-location
    mappings (paper §4, [23]).

    A mapping is appended when a page's pre-state is copied out; a
    snapshot declaration records the log position, so SPT(S) is the
    first-mapping-per-page over the suffix starting at S's position.
    Pages absent from the suffix are shared with the current database.

    A Skippy-style skip structure (memoized per-segment digests, [23])
    accelerates the suffix scan for old snapshots; it can be toggled for
    the ablation benchmark. *)

type entry = { pid : int; pl_off : int }

type boundary = {
  pos : int;      (** maplog position at declaration *)
  db_pages : int; (** database size (pages) at declaration *)
  ts : float;     (** declaration timestamp *)
}

type t

val create : unit -> t

(** Enable/disable the skip index (on by default). *)
val set_skippy : t -> bool -> unit

val append : t -> entry -> unit

(** Record a snapshot declaration; returns the new 1-based snapshot
    id. *)
val declare : t -> db_pages:int -> ts:float -> int

val snapshot_count : t -> int

(** Lowest snapshot id still readable (1 until a vacuum drops a
    prefix).  Snapshot ids never renumber. *)
val first_live : t -> int

(** @raise Invalid_argument on an unknown or vacuumed snapshot id. *)
val boundary : t -> int -> boundary

(** Boundary slot without the vacuumed guard: a vacuumed snapshot's
    position is stale, but its declaration timestamp stays valid
    (introspection reads it).
    @raise Invalid_argument on an unknown snapshot id. *)
val raw_boundary : t -> int -> boundary

(** Drop the history prefix before snapshot [keep_from] after a Pagelog
    compaction: keep only the entry suffix from its boundary, rewriting
    kept entries' Pagelog offsets through [remap], shift live boundaries
    to the new origin, reset the skip digests and advance [first_live].
    Returns the number of entries dropped.  Caller holds the pager's
    writer lock.
    @raise Invalid_argument on an unknown or vacuumed [keep_from]. *)
val compact : t -> keep_from:int -> remap:(int -> int) -> int

(** Scan the suffix for snapshot [snap_id], calling [f pid pl_off] for
    every visited mapping of a page below the declaration-time database
    size, in log order; the caller keeps first-wins.  Returns the number
    of entries visited — the SPT build cost, accumulated into the
    [retro.maplog_scanned] counter. *)
val scan_from : t -> int -> f:(int -> int -> unit) -> int

(** Total mappings appended. *)
val length : t -> int

(** Raw log entry at position [i] (archive analysis).
    @raise Invalid_argument out of bounds. *)
val entry : t -> int -> entry

val skippy_enabled : t -> bool

(** Skip-index footprint: (memoized L1 segments, memoized L2 segments,
    total digest entries held).  Digests are built lazily by scans. *)
val skippy_stats : t -> int * int * int

(** {1 Backup} *)

type image = {
  img_entries : entry array;
  img_boundaries : boundary array;
  img_first_live : int;
}

val dump : t -> image

(** Skip digests are rebuilt lazily after restore. *)
val restore : image -> t
