(* The current-state database: the committed page images, kept on a
   checksummed page store (Disk, device "db").

   As in the paper's evaluation ("we assume the current state database is
   memory resident"), current-state pages live in memory; reads are
   counted as cheap memory fetches.  All mutation goes through Txn, which
   calls [install] at commit; the [pre_commit_hook] is the interposition
   point where Retro captures copy-on-write pre-states.

   Committed images carry a CRC32 taken at install time, verified by the
   integrity checker ([verify_checksums]) rather than on every read —
   the current state is memory resident, so per-read verification would
   only model cost the paper's setup does not have.  The pager therefore
   reads with [Disk.get], never [Disk.read].  An id that was reserved but
   never installed holds an empty block with CRC 0.

   The optional [wal] sink is how Txn.commit and Retro.declare reach the
   write-ahead log without a dependency cycle (Wal lives above Pager and
   installs closures here). *)

type commit_event = {
  pid : int;
  before : Bytes.t option; (* committed image being overwritten; None for a brand-new page id *)
}

(* Closures into the write-ahead log, installed by Wal.attach.  Commit
   logs after-images + freed ids; declare logs a snapshot boundary;
   barrier is the durability point (group commit decides whether it
   flushes). *)
type wal_sink = {
  wal_commit : writes:(int * Bytes.t) list -> freed:int list -> unit;
  wal_declare : db_pages:int -> ts:float -> unit;
  wal_barrier : unit -> unit;
}

type t = {
  store : Disk.t;
  mutable free_list : int list;
  mutable pre_commit_hook : commit_event list -> unit;
  mutable wal : wal_sink option;
  (* Committed page images installed so far: a reader that saw a count
     knows, while it is unchanged, that no committed page changed. *)
  mutable installs : int;
  (* Readers-writer lock for cross-session access: whole read statements
     hold it in read mode, commit bodies (install + COW archiving) and
     snapshot declarations in write mode, so a reader never observes a
     half-installed commit.  See DESIGN.md §15. *)
  lock : Rwlock.t;
}

(* A read context: how a storage structure (heap, B+tree) resolves a page
   id to bytes.  Instantiated by committed reads, transaction-local reads
   and Retro snapshot reads. *)
type read = int -> Bytes.t

let create () =
  { store = Disk.create ~name:"db" ();
    free_list = [];
    pre_commit_hook = (fun _ -> ());
    wal = None;
    installs = 0;
    lock = Rwlock.create () }

(* Run [f] as a reader / writer over this database's committed state.
   Read sections nest (the lock is reader-preferring); the engine wraps
   read statements, Txn.commit wraps the install sequence. *)
let with_read_lock t f = Rwlock.with_read t.lock f
let with_write_lock t f = Rwlock.with_write t.lock f

let n_pages t = Disk.length t.store

(* Committed image of a page.  Callers must treat the result as
   read-only; Txn copies before mutating. *)
let read_committed t pid =
  let b = Disk.get t.store pid in
  Stats.record_db_page_read ();
  if Bytes.length b = 0 then
    invalid_arg (Printf.sprintf "Pager.read_committed: free page %d" pid);
  b

(* Committed image without counters or raising: the WAL replay path uses
   this to reconstruct before-images (a recycled id's before-image at
   replay time is exactly its committed content). *)
let peek_committed t pid =
  if pid < 0 || pid >= n_pages t then None
  else
    let b = Disk.get t.store pid in
    if Bytes.length b = 0 then None else Some b

(* Reserve a page id for a transaction.  Returns the id and the previous
   committed image if the id is recycled (needed for COW: older snapshots
   may still reference the recycled page). *)
let reserve t =
  match t.free_list with
  | pid :: rest ->
    t.free_list <- rest;
    (pid, peek_committed t pid)
  | [] ->
    let pid = n_pages t in
    Disk.store t.store pid Bytes.empty ~crc:0;
    Obs.Scope.incr Stats.c_pages_allocated;
    (pid, None)

let install t pid (bytes : Bytes.t) =
  Disk.store t.store pid bytes ~crc:(Crc32.bytes bytes);
  t.installs <- t.installs + 1;
  Obs.Scope.incr Stats.c_db_page_writes

(* Put an id on the free list: a page freed at commit, or a reserved id
   that was never committed (transaction abort). *)
let release t pid = t.free_list <- pid :: t.free_list

let read t : read = read_committed t

(* Page ids whose committed image no longer matches its install-time
   checksum (the integrity checker reports these).  A never-installed id
   (empty, CRC 0) and a freed-but-unrecycled page (its last committed
   image) both match. *)
let verify_checksums t = Disk.verify_all t.store

(* Test hook: flip one bit of a committed page without updating its
   CRC. *)
let corrupt_page t pid ~bit =
  if peek_committed t pid = None then
    invalid_arg (Printf.sprintf "Pager.corrupt_page: free page %d" pid);
  Disk.corrupt_block t.store pid ~bit

(* Portable image of the committed state: each page with its stored
   CRC, so a page that failed its checksum before the copy still fails
   it after a restore. *)
type image = {
  img_pages : (Bytes.t * int) option array;
  img_free : int list;
}

let dump t =
  { img_pages =
      Array.map
        (fun (b, crc) -> if Bytes.length b = 0 then None else Some (b, crc))
        (Disk.dump_raw t.store);
    img_free = t.free_list }

let restore img =
  let t = create () in
  Array.iteri
    (fun i p ->
      let b, crc = Option.value p ~default:(Bytes.empty, 0) in
      Disk.store t.store i (Bytes.copy b) ~crc)
    img.img_pages;
  t.free_list <- img.img_free;
  t
