(* Transactions with page-level before-images.

   A transaction overlays private copies of the pages it writes; readers
   of the committed state (including Retro snapshot queries, which run as
   read-only transactions in the paper's MVCC scheme) never observe
   uncommitted writes.  At commit the before-images are handed to the
   pager's pre-commit hook — the point where Retro archives COW
   pre-states — and the after-images are installed. *)

type state = Active | Committed | Aborted

type entry = {
  before : Bytes.t option; (* committed image at first write; None = fresh page id *)
  after : Bytes.t;         (* private mutable working copy *)
}

type t = {
  pager : Pager.t;
  writes : (int, entry) Hashtbl.t;
  mutable reserved : int list; (* page ids reserved by this txn *)
  mutable freed : int list;    (* page ids to release at commit *)
  mutable state : state;
}

let begin_txn pager =
  { pager; writes = Hashtbl.create 16; reserved = []; freed = []; state = Active }

let check_active t =
  if t.state <> Active then invalid_arg "Txn: transaction is not active"

(* Transaction-local read: own writes first, then committed state. *)
let read t pid =
  match Hashtbl.find_opt t.writes pid with
  | Some e -> e.after
  | None -> Pager.read_committed t.pager pid

let read_ctx t : Pager.read = fun pid -> read t pid

(* Mutable image of [pid]; the first touch copies the committed image and
   records it as the before-image. *)
let write t pid =
  check_active t;
  match Hashtbl.find_opt t.writes pid with
  | Some e -> e.after
  | None ->
    let before = Pager.read_committed t.pager pid in
    let after = Bytes.copy before in
    Hashtbl.add t.writes pid { before = Some before; after };
    after

(* Allocate a page inside the transaction.  If the pager recycles an id,
   the old committed image becomes the before-image so that COW can
   preserve it for older snapshots. *)
let alloc t kind =
  check_active t;
  let pid, old = Pager.reserve t.pager in
  t.reserved <- pid :: t.reserved;
  let after = Page.create kind in
  Hashtbl.add t.writes pid { before = old; after };
  pid

let free t pid =
  check_active t;
  t.freed <- pid :: t.freed

(* Commit ordering: pre-commit hook (Retro archives COW pre-states),
   then the WAL record + barrier, then install.  A hook that raises
   leaves nothing logged or installed; a crash inside the WAL append
   models process death, where the in-memory archive appends die with
   the process.  The same [entries] list feeds the hook and the WAL, so
   the logged write order equals the runtime event order — which is what
   makes WAL replay reproduce Retro state deterministically. *)
let commit t =
  check_active t;
  (* The whole commit body runs as the pager's writer: concurrent read
     statements (which hold the lock in read mode) either see the state
     before every install or after all of them, never a torn commit. *)
  Pager.with_write_lock t.pager (fun () ->
      let entries = Hashtbl.fold (fun pid (e : entry) acc -> (pid, e) :: acc) t.writes [] in
      let events = List.map (fun (pid, (e : entry)) -> { Pager.pid; before = e.before }) entries in
      t.pager.Pager.pre_commit_hook events;
      (match t.pager.Pager.wal with
       | Some w when entries <> [] || t.freed <> [] ->
         w.Pager.wal_commit
           ~writes:(List.map (fun (pid, (e : entry)) -> (pid, e.after)) entries)
           ~freed:t.freed;
         w.Pager.wal_barrier ()
       | _ -> ());
      List.iter (fun (pid, (e : entry)) -> Pager.install t.pager pid e.after) entries;
      List.iter (fun pid -> Pager.release t.pager pid) t.freed);
  t.state <- Committed;
  Obs.Scope.incr Stats.c_txn_commits

let abort t =
  check_active t;
  List.iter (fun pid -> Pager.release t.pager pid) t.reserved;
  t.state <- Aborted;
  Obs.Scope.incr Stats.c_txn_aborts

let is_active t = t.state = Active

let aborted t = t.state = Aborted

(* Run [f] in a fresh transaction, committing on success and aborting if
   [f] raises. *)
let with_txn pager f =
  let t = begin_txn pager in
  match f t with
  | v ->
    commit t;
    v
  | exception e ->
    if is_active t then abort t;
    raise e
