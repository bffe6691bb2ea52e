(* The current-state database: an array of committed page images.

   As in the paper's evaluation ("we assume the current state database is
   memory resident"), current-state pages live in memory; reads are
   counted as cheap memory fetches.  All mutation goes through Txn, which
   calls [install] at commit; the [pre_commit_hook] is the interposition
   point where Retro captures copy-on-write pre-states.

   Committed images carry a CRC32 taken at install time, verified by the
   integrity checker ([verify_checksums]) rather than on every read —
   the current state is memory resident, so per-read verification would
   only model cost the paper's setup does not have.

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
  mutable pages : Bytes.t option array;
  mutable crcs : int array;
  mutable n_pages : int;
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
  { pages = Array.make 64 None;
    crcs = Array.make 64 0;
    n_pages = 0;
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

let n_pages t = t.n_pages

let grow t wanted =
  let cap = Array.length t.pages in
  if wanted >= cap then begin
    let cap' = max (cap * 2) (wanted + 1) in
    let pages = Array.make cap' None in
    Array.blit t.pages 0 pages 0 cap;
    t.pages <- pages;
    let crcs = Array.make cap' 0 in
    Array.blit t.crcs 0 crcs 0 cap;
    t.crcs <- crcs
  end

(* Committed image of a page.  Callers must treat the result as
   read-only; Txn copies before mutating. *)
let read_committed t pid =
  if pid < 0 || pid >= t.n_pages then
    invalid_arg (Printf.sprintf "Pager.read_committed: page %d/%d" pid t.n_pages);
  Stats.record_db_page_read ();
  match t.pages.(pid) with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Pager.read_committed: free page %d" pid)

let committed_exists t pid =
  pid >= 0 && pid < t.n_pages && t.pages.(pid) <> None

(* Committed image without counters or raising: the WAL replay path uses
   this to reconstruct before-images (a recycled id's before-image at
   replay time is exactly its committed content). *)
let peek_committed t pid =
  if pid < 0 || pid >= t.n_pages then None else t.pages.(pid)

(* Reserve a page id for a transaction.  Returns the id and the previous
   committed image if the id is recycled (needed for COW: older snapshots
   may still reference the recycled page). *)
let reserve t =
  match t.free_list with
  | pid :: rest ->
    t.free_list <- rest;
    (pid, t.pages.(pid))
  | [] ->
    let pid = t.n_pages in
    grow t pid;
    t.n_pages <- t.n_pages + 1;
    Obs.Scope.incr Stats.c_pages_allocated;
    (pid, None)

(* Return a reserved id that was never committed (transaction abort). *)
let unreserve t pid = t.free_list <- pid :: t.free_list

let install t pid (bytes : Bytes.t) =
  grow t pid;
  if pid >= t.n_pages then t.n_pages <- pid + 1;
  t.pages.(pid) <- Some bytes;
  t.crcs.(pid) <- Crc32.bytes bytes;
  t.installs <- t.installs + 1;
  Obs.Scope.incr Stats.c_db_page_writes

let release t pid = t.free_list <- pid :: t.free_list

let read : t -> read = fun t pid -> read_committed t pid

(* Page ids whose committed image no longer matches its install-time
   checksum (the integrity checker reports these).  Free slots are
   skipped; a freed-but-unrecycled page still holds its last committed
   image, which still matches. *)
let verify_checksums t =
  let bad = ref [] in
  for pid = t.n_pages - 1 downto 0 do
    match t.pages.(pid) with
    | Some b -> if Crc32.bytes b <> t.crcs.(pid) then bad := pid :: !bad
    | None -> ()
  done;
  !bad

(* Test hook: flip one bit of a committed page without updating its
   CRC. *)
let corrupt_page t pid ~bit =
  match peek_committed t pid with
  | None -> invalid_arg (Printf.sprintf "Pager.corrupt_page: free page %d" pid)
  | Some b ->
    if Bytes.length b = 0 then invalid_arg "Pager.corrupt_page: empty page";
    let off = bit / 8 mod Bytes.length b in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (bit mod 8))))

(* Portable image of the committed state: each page with its stored
   CRC, so a page that failed its checksum before the copy still fails
   it after a restore. *)
type image = {
  img_pages : (Bytes.t * int) option array;
  img_free : int list;
}

let dump t =
  { img_pages =
      Array.init t.n_pages (fun i ->
          Option.map (fun b -> (Bytes.copy b, t.crcs.(i))) t.pages.(i));
    img_free = t.free_list }

let restore img =
  let t = create () in
  let n = Array.length img.img_pages in
  grow t (max 0 (n - 1));
  Array.iteri
    (fun i p ->
      Option.iter
        (fun (b, crc) ->
          t.pages.(i) <- Some (Bytes.copy b);
          t.crcs.(i) <- crc)
        p)
    img.img_pages;
  t.n_pages <- n;
  t.free_list <- img.img_free;
  t
