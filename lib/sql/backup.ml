(* Database backup/restore.

   A backup is one {!Image.t} in an {!Image.backup} file: the committed
   pages and, for snapshottable databases, the whole Retro state
   (Pagelog, Maplog, COW bookkeeping) — so a saved database reopens with
   its entire snapshot history intact and AS OF queries keep working.
   Stored CRCs travel with the image, so damage survives the round trip
   and the integrity check still reports it.  Registered functions are
   not part of the image and must be re-registered by the caller
   (Rql.load does). *)

(* Capture a consistent image of the committed state. *)
let snapshot_image (db : Db.t) =
  if Db.in_txn db then
    Sql_error.error "cannot back up a database with an open transaction";
  Image.capture db.Db.pager db.Db.retro

(* Materialize an image as a fresh database handle. *)
let restore_image img =
  let pager, retro = Image.restore img in
  Db.of_parts ~pager ~retro

let save (db : Db.t) ~path = Image.write Image.backup ~path (snapshot_image db)

let load ~path = restore_image (Image.read Image.backup ~path)
