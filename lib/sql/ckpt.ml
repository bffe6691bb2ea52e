(* Checkpoint images: the durable materialization that lets the WAL be
   truncated (bounding recovery replay) and makes VACUUM's Pagelog
   compaction crash-atomic.

   The image lives beside the log, at <wal>.ckpt, as an {!Image.checkpoint}
   file: the seq of the WAL Checkpoint frame it pairs with plus the
   database image.  That image keeps the stored CRCs of pages and
   archive blocks, so a latent corruption survives checkpoint + recovery
   as a corruption the scrub and the integrity check re-find — never
   silently blessed.

   Write protocol (Db.checkpoint drives it, under the pager's writer
   lock, with every step a fault-injection point):

     1. Wal.sync                 — every logged commit is on the medium
     2. serialize the image      -> <ckpt>.tmp   (torn crash point inside)
     3. rename <ckpt>.tmp        -> <ckpt>.new   (image durable, not yet live)
     4. Wal.truncate_to_checkpoint seq           — WAL swap rename: COMMIT POINT
     5. rename <ckpt>.new        -> <ckpt>

   Crash safety: before step 4's rename the old log — a complete record
   of every commit — is still in force, and recovery ignores .tmp/.new
   leftovers; from step 4 on, the log's Checkpoint frame names seq N
   and the matching image is durable at <ckpt>.new or <ckpt> (step 3
   happened-before step 4), so recovery always finds it.  A crash can
   therefore yield the pre-checkpoint world or the post-checkpoint
   world, never a hybrid — which is exactly the old-or-new guarantee
   VACUUM inherits by committing through a checkpoint. *)

(* The image path for a WAL at [wal_path]. *)
let path_for wal_path = wal_path ^ ".ckpt"

(* Serialize [img] for checkpoint [seq] to <path>.tmp and rename it to
   <path>.new.  [tick] is the fault-injection hook: it fires once
   *mid-record* (so a crash leaves a torn image, which recovery never
   reads — only .ckpt/.new are consulted) and once before the rename. *)
let write ~tick ~path ~seq (img : Image.t) =
  Image.write ~tick ~tmp:(path ^ ".tmp") Image.checkpoint ~path:(path ^ ".new") (seq, img)

(* Promote the durably written image to its live name — the final step
   of the protocol, after the WAL swap made it authoritative. *)
let promote ~tick ~path =
  tick ();
  if Sys.file_exists (path ^ ".new") then Sys.rename (path ^ ".new") path

(* Parse one candidate file.  [None] for anything not a complete,
   checksum-valid image — a torn or bit-flipped file never yields a
   state. *)
let load file =
  match Image.read Image.checkpoint ~path:file with
  | ck -> Some ck
  | exception Sql_error.Error _ -> None

(* The image matching WAL checkpoint frame [seq]: the live file or, in
   the window between the WAL swap and the final promote, the .new
   file.  The protocol guarantees one of them exists with this seq. *)
let load_for ~wal_path ~seq : Image.t option =
  let path = path_for wal_path in
  let matching file =
    match load file with
    | Some (s, img) when s = seq -> Some img
    | _ -> None
  in
  match matching path with
  | Some img -> Some img
  | None -> matching (path ^ ".new")

(* Post-recovery cleanup: delete the write-in-progress temp file, and
   either finish an interrupted promote (.new matches the recovered
   frame) or discard a stale .new from a checkpoint that never reached
   its WAL swap. *)
let finish ~wal_path ~seq =
  let path = path_for wal_path in
  if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp");
  if Sys.file_exists (path ^ ".new") then begin
    let keep =
      match (seq, load (path ^ ".new")) with
      | Some s, Some (s', _) -> s' = s
      | _ -> false
    in
    if keep then Sys.rename (path ^ ".new") path else Sys.remove (path ^ ".new")
  end
