(** Database images: the one codec behind backups, checkpoints and RQL
    context files.

    An image keeps every stored CRC — of the pager's pages and of the
    Retro archive's blocks — so damage the original had survives a
    round trip.  On disk every image is [magic (8 bytes) | u32 version |
    u32 payload length | u32 CRC32(payload) | payload]; files are
    written to a temporary name and renamed into place. *)

(** One database: its committed pages and, when snapshottable, its
    archive. *)
type t = {
  pager : Storage.Pager.image;
  retro : Retro.image option;
}

(** Copy the committed state of a pager and its archive. *)
val capture : Storage.Pager.t -> Retro.t option -> t

(** A fresh pager and archive holding the image (the archive, if any,
    attached to the pager). *)
val restore : t -> Storage.Pager.t * Retro.t option

(** What a file holds; its magic tells the kinds apart. *)
type 'a kind

(** A {!Backup} file: one database. *)
val backup : t kind

(** An RQL context file: the data and meta databases. *)
val context : (t * t) kind

(** A checkpoint image: the WAL checkpoint seq and the database. *)
val checkpoint : (int * t) kind

(** Write [v] to [tmp] (default [path ^ ".tmp"]), close it, then rename
    it to [path].  [tick] runs once mid-write and once before the
    rename (fault-injection points).
    @raise Sql_error.Error on an I/O error; [path] is then untouched. *)
val write : ?tick:(unit -> unit) -> ?tmp:string -> 'a kind -> path:string -> 'a -> unit

(** Read an image written by {!write} with the same kind.
    @raise Sql_error.Error when [path] cannot be read, on a wrong magic
    or version, a length mismatch, a checksum mismatch or a payload that
    does not unmarshal. *)
val read : 'a kind -> path:string -> 'a
