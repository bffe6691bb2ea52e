(** Append-only write-ahead log for the current-state database and the
    snapshot archive.

    Only commits (page after-images + freed ids) and snapshot
    declarations are logged; recovery re-drives them through the
    pager's pre-commit hook, which rebuilds the Retro archive
    deterministically (see {!replay}).  Durability is modeled: a
    barrier flushes buffered frames and charges one fsync through
    {!Stats.Cost_model}; group commit batches barriers.  Per-frame
    CRC32 checksums let {!recover} detect a torn or bit-flipped tail
    and truncate to the last complete record (the atomic commit
    boundary).

    Assumes serialized transactions (one writer), which is how the
    engine runs; interleaved commits would need LSNs and txn ids. *)

exception Error of string
(** The file is not a usable WAL (bad magic / version / truncated
    header).  A damaged tail is not an error — recovery truncates it
    and reports it in the {!report}. *)

type record =
  | Commit of { writes : (int * Bytes.t) list; freed : int list }
  | Declare of { db_pages : int; ts : float }
  | Checkpoint of { seq : int }
      (** Everything before this frame is durably materialized in the
          checkpoint image of the same sequence number; recovery
          restores that image and replays only the frames after it. *)

type t

type status = {
  st_path : string;
  st_group_commit : int;
  st_appends : int;
  st_bytes : int;
  st_fsyncs : int;
  st_pending_bytes : int; (** frames buffered but not yet flushed *)
  st_since_checkpoint : int; (** frame bytes logged since the last checkpoint *)
}

type report = {
  rep_commits : int;
  rep_declares : int;
  rep_valid_bytes : int;
  rep_total_bytes : int;
  rep_torn : bool;    (** incomplete final frame (crash mid-write) *)
  rep_corrupt : bool; (** checksum/decode failure in the tail *)
  rep_checkpoint : int option; (** seq of the last checkpoint frame, if any *)
}

(** Create a fresh WAL at [path] (truncates).  [group_commit] is the
    number of commit barriers batched per flush+fsync (default 1 =
    every commit durable). *)
val create : ?group_commit:int -> path:string -> unit -> t

(** Reopen a recovered (truncated) WAL for appending. *)
val open_append : ?group_commit:int -> path:string -> unit -> t

(** Attach a fault injector to the write path (appends, flushes and
    fsyncs become crash points). *)
val set_fault : t -> Fault.t option -> unit

(** The attached fault injector, if any (the lifecycle protocols route
    their injection points through it). *)
val fault : t -> Fault.t option

val status : t -> status

(** The log's file path (checkpoint images live beside it). *)
val path : t -> string

(** Frame bytes appended since the last checkpoint truncation — the
    auto-checkpoint trigger input and the recovery-replay bound. *)
val bytes_since_checkpoint : t -> int

(** One explicit fault-injection point: observed as a write-path
    operation by the attached injector, so the crash matrix can kill
    the process at every step of a vacuum or checkpoint. *)
val injection_point : t -> unit

(** Truncate the log behind a durably materialized checkpoint: write a
    fresh log (header + [Checkpoint] frame for [seq]) to a temp file
    and atomically rename it over the log — the commit point of the
    checkpoint protocol.  The caller must have made the matching image
    durable first (see Sqldb.Ckpt).  Returns the frame bytes dropped
    (counted into [storage.wal_truncated_bytes]). *)
val truncate_to_checkpoint : t -> seq:int -> int

(** Append a record to the pending buffer (not yet durable). *)
val append : t -> record -> unit

(** Durability point: under group commit, flushes + charges an fsync
    only every [group_commit]-th barrier. *)
val barrier : t -> unit

(** Force the pending tail out regardless of group commit. *)
val sync : t -> unit

(** [sync] then close the file. *)
val close : t -> unit

(** Install this WAL as the pager's [wal] sink, so {!Txn.commit} and
    Retro declarations log through it. *)
val attach : t -> Pager.t -> unit

(** Scan [path], returning every record up to the last complete,
    checksum-valid frame; truncates a torn/corrupt tail in place (and
    counts it in [storage.torn_tail_discards]).
    @raise Error when the file is not a WAL at all. *)
val recover : path:string -> record list * report

(** Re-drive recovered records against a fresh pager: commits run
    through the pre-commit hook (with before-images reconstructed via
    {!Pager.peek_committed}) then install; [declare] is called for each
    snapshot boundary with its logged [db_pages]/[ts].  Reconstructs
    the free list. *)
val replay :
  pager:Pager.t -> declare:(db_pages:int -> ts:float -> unit) -> record list -> unit
