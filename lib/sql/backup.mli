(** Database backup/restore.

    A backup captures the committed pages and, for snapshottable
    databases, the whole Retro state (Pagelog, Maplog, COW bookkeeping):
    a saved database reopens with its complete snapshot history and
    AS OF queries keep working.  Stored page and block CRCs travel with
    it, so damage the original had is still reported after a load.
    Registered functions are not part of the image; callers re-register
    them (Rql.load does). *)

(** Capture a consistent image.
    @raise Sql_error.Error if a transaction is open. *)
val snapshot_image : Db.t -> Image.t

(** Materialize an image as a fresh handle. *)
val restore_image : Image.t -> Db.t

(** Save to [path]: written to [path ^ ".tmp"], then renamed over
    [path]. *)
val save : Db.t -> path:string -> unit

(** Load a database saved by {!save}.
    @raise Sql_error.Error on an unreadable, malformed or foreign file. *)
val load : path:string -> Db.t
