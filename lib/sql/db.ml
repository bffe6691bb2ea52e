(* Database handle: a per-session view over a shared database core.

   The [core] owns everything that is a property of the database itself
   — the pager (optionally with a Retro snapshot system attached), the
   WAL, registered functions, the one explicit transaction, the
   current-state catalog cache and the schema generation counter.  A
   [t] is a session over that core: it owns the prepared-plan cache and
   its hit/miss counters, the observability knobs (EXPLAIN ANALYZE
   state, slow-query threshold), the metric scope statements charge,
   and a private heap-handle cache.  [session] derives a fresh session
   from any handle; [create] returns the database's root session.

   Cross-session plan invalidation rides on the shared generation
   counter: DDL through any session bumps [core.generation], and every
   session's cached plans carry the generation they were built under,
   so they re-plan on next use no matter which session compiled them.

   A handle created with [snapshots:false] is a non-snapshottable
   database; RQL stores SnapIds and result tables in such a database, as
   the paper describes (§3). *)

module R = Storage.Record

let error = Sql_error.error

type fn = R.value array -> R.value

type core = {
  c_pager : Storage.Pager.t;
  c_retro : Retro.t option;
  mutable c_wal : Storage.Wal.t option;       (* durability log (open_wal) *)
  c_funcs : (string, fn) Hashtbl.t;
  mutable c_txn : Storage.Txn.t option;       (* explicit BEGIN..COMMIT *)
  (* Catalog cache tagged with the epoch it was loaded under; a commit
     or schema change from any session advances the epoch, so a slow
     concurrent loader cannot install a stale catalog afterwards. *)
  mutable c_catalog_cache : (int * Catalog.t) option;
  mutable c_catalog_epoch : int;
  mutable c_generation : int;                 (* plan-cache schema generation *)
  mutable c_ckpt_seq : int;                   (* last completed checkpoint seq *)
  mutable c_ckpt_threshold : int;             (* auto-checkpoint WAL bytes; 0 = off *)
  mutable c_maint : bool;                     (* a VACUUM/CHECKPOINT is running *)
  (* Guards the mutable core fields above plus the session registry;
     never held across page I/O or statement execution. *)
  c_lock : Mutex.t;
  mutable c_next_session : int;
  mutable c_sessions : session_info list;
}

and t = {
  core : core;
  (* The shared structures, re-exposed as handle fields: they are
     immutable properties of the core, and nearly every consumer
     reaches them as [db.Db.pager] / [db.Db.retro]. *)
  pager : Storage.Pager.t;
  retro : Retro.t option;
  session_id : int;
  mutable prepared_count : int;               (* statements prepared here *)
  (* Prepared-plan cache, keyed by statement text.  [core.c_generation]
     counts schema changes; a cached plan whose generation differs is
     stale. *)
  plan_cache : (string, Plan.cached) Hashtbl.t;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_invalidations : int;
  heap_handles : (int, Storage.Heap.t) Hashtbl.t; (* first page -> handle *)
  (* Observability knobs.  [analyze] turns on per-operator plan
     instrumentation for executions through this handle (EXPLAIN
     ANALYZE / analyzed RQL runs flip it for the duration);
     [slow_query_s] is the slow-query log threshold (None = off);
     [last_analysis] holds the most recent instrumented run. *)
  mutable analyze : bool;
  mutable slow_query_s : float option;
  mutable last_analysis : Plan.analysis option;
  (* Plan-IR optimizer gate (PRAGMA optimize=off flips it).  Cached
     plans are optimized, so toggling also resets [plan_cache]. *)
  mutable optimize : bool;
  (* Delta-driven RQL iterations over this handle's snapshots (PRAGMA
     incremental=off runs every iteration on the ordinary executor, the
     naive loop the incremental one is checked against). *)
  mutable incremental : bool;
  (* The metric scope charged for work done through this handle; the
     engine activates it around every statement.  Defaults to the root
     scope (process-wide accounting, exactly the pre-scope behavior);
     a per-connection session installs a child scope here. *)
  mutable scope : Obs.Scope.t;
}

and session_info = { si_id : int; si_handle : t }

(* Every c_lock section goes through this guard (the lint gate's
   lock-discipline rule keys on the [Fun.protect] spelling). *)
let locked_core (core : core) f =
  Mutex.lock core.c_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock core.c_lock) f

let make_session core =
  locked_core core @@ fun () ->
  let id = core.c_next_session in
  core.c_next_session <- id + 1;
  let db =
    { core;
      pager = core.c_pager;
      retro = core.c_retro;
      session_id = id;
      prepared_count = 0;
      plan_cache = Hashtbl.create 32;
      plan_hits = 0;
      plan_misses = 0;
      plan_invalidations = 0;
      heap_handles = Hashtbl.create 16;
      analyze = false;
      slow_query_s = None;
      last_analysis = None;
      optimize = true;
      incremental = true;
      scope = Obs.Scope.root }
  in
  core.c_sessions <- { si_id = id; si_handle = db } :: core.c_sessions;
  db

(* Assemble a handle from restored parts (Backup). *)
let of_parts ~pager ~retro =
  let core =
    { c_pager = pager;
      c_retro = retro;
      c_wal = None;
      c_funcs = Hashtbl.create 16;
      c_txn = None;
      c_catalog_cache = None;
      c_catalog_epoch = 0;
      c_generation = 0;
      c_ckpt_seq = 0;
      c_ckpt_threshold = 0;
      c_maint = false;
      c_lock = Mutex.create ();
      c_next_session = 1;
      c_sessions = [] }
  in
  make_session core

(* Derive a fresh session over the same core: shared pages, snapshots,
   functions and schema generation; private plan cache, scope and
   observability state.  Derived sessions charge a child scope named
   after their id, so sys_scopes / sys_sessions attribute per-connection
   load; the root session keeps the root scope (process-wide totals,
   exactly the single-handle behavior). *)
let session t =
  let s = make_session t.core in
  s.scope <- Obs.Scope.create (Printf.sprintf "session:%d" s.session_id);
  s

let session_id t = t.session_id
let note_prepared t = t.prepared_count <- t.prepared_count + 1

(* Live sessions of this handle's core, oldest first (sys_sessions). *)
let sessions t =
  let ss = locked_core t.core (fun () -> List.rev t.core.c_sessions) in
  List.map (fun si -> si.si_handle) ss

(* Forget a derived session (a disconnected client); its plan cache and
   counters drop out of sys_sessions, and its metric scope is dropped
   (its totals fold into the parent's "(dropped)" bucket; the root keeps
   them).  Idempotent. *)
let close_session t =
  locked_core t.core (fun () ->
      t.core.c_sessions <-
        List.filter (fun si -> si.si_id <> t.session_id) t.core.c_sessions);
  if not (Obs.Scope.is_root t.scope) then Obs.Scope.drop t.scope

(* Run [f] on a fresh session over [t]'s core, closed on every exit. *)
let with_session t f =
  let s = session t in
  Fun.protect ~finally:(fun () -> close_session s) (fun () -> f s)

let generation t = t.core.c_generation

let create ?(snapshots = true) () =
  let pager = Storage.Pager.create () in
  let retro = if snapshots then Some (Retro.attach pager) else None in
  let db = of_parts ~pager ~retro in
  Storage.Txn.with_txn pager (fun txn -> Catalog.bootstrap txn);
  db

let retro_exn t =
  match t.retro with
  | Some r -> r
  | None -> error "this database has no snapshot system attached"

(* --- durability (WAL-backed databases) ----------------------------------- *)

type recovery = {
  rec_report : Storage.Wal.report;
  rec_snapshots : int;   (* snapshots recovered *)
  rec_damaged : int list; (* snapshots referencing corrupt archive blocks *)
}

(* Open a WAL-backed snapshottable database at [path].

   Fresh (missing or empty) path: create the log first, then bootstrap
   the catalog *through* it, so the log is a complete record from page
   zero and recovery is pure replay.

   Existing path: scan the log (truncating a torn/corrupt tail to the
   last complete commit).  If the log opens with a Checkpoint frame,
   restore the matching durable image (pager + Retro archive, stored
   CRCs kept; see Ckpt) and replay only the frames after it; otherwise
   rebuild by replaying the full commit sequence — which re-drives
   Retro's COW archiver and reproduces the Pagelog/Maplog
   byte-for-byte.  Either way, scrub the archive afterwards so damaged
   snapshots are known before the first AS OF read.  Returns the
   recovery report; [None] when the database is fresh.

   @raise Storage.Wal.Error when [path] exists but is not a WAL, or
   when its Checkpoint frame has no matching valid image. *)
let open_wal ?(group_commit = 1) ~path () : t * recovery option =
  let exists = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
  if not exists then begin
    let pager = Storage.Pager.create () in
    let retro = Retro.attach pager in
    let wal = Storage.Wal.create ~group_commit ~path () in
    Storage.Wal.attach wal pager;
    let db = of_parts ~pager ~retro:(Some retro) in
    db.core.c_wal <- Some wal;
    Storage.Txn.with_txn pager (fun txn -> Catalog.bootstrap txn);
    (db, None)
  end
  else begin
    let records, report = Storage.Wal.recover ~path in
    let pager, retro, suffix =
      match report.Storage.Wal.rep_checkpoint with
      | None ->
        let pager = Storage.Pager.create () in
        (pager, Retro.attach pager, records)
      | Some seq -> (
        match Option.map Image.restore (Ckpt.load_for ~wal_path:path ~seq) with
        | Some (pager, Some retro) ->
          (* Replay only the frames after the last Checkpoint —
             everything before it is already in the image. *)
          let after =
            List.fold_left
              (fun acc r ->
                match r with Storage.Wal.Checkpoint _ -> [] | r -> r :: acc)
              [] records
            |> List.rev
          in
          (pager, retro, after)
        | Some (_, None) | None ->
          raise
            (Storage.Wal.Error
               (Printf.sprintf
                  "Wal %s: checkpoint %d has no matching image at %s" path seq
                  (Ckpt.path_for path))))
    in
    (* pager.wal is still None here: replay must not re-log itself *)
    Storage.Wal.replay ~pager
      ~declare:(fun ~db_pages ~ts -> ignore (Retro.declare_at retro ~db_pages ~ts))
      suffix;
    Obs.Scope.incr Storage.Stats.c_recoveries;
    (* Finish an interrupted image promote / drop stale temp files. *)
    Ckpt.finish ~wal_path:path ~seq:report.Storage.Wal.rep_checkpoint;
    let damaged = List.sort_uniq compare (List.map fst (Retro.scrub retro)) in
    let wal = Storage.Wal.open_append ~group_commit ~path () in
    Storage.Wal.attach wal pager;
    let db = of_parts ~pager ~retro:(Some retro) in
    db.core.c_wal <- Some wal;
    db.core.c_ckpt_seq <-
      Option.value report.Storage.Wal.rep_checkpoint ~default:0;
    (* If no commit survived (the catalog-bootstrap commit itself was
       lost to an unflushed batch or a damaged tail), the valid prefix
       describes an empty database: bootstrap again, through the log. *)
    if Storage.Pager.n_pages pager = 0 then
      Storage.Txn.with_txn pager (fun txn -> Catalog.bootstrap txn);
    ( db,
      Some
        { rec_report = report;
          rec_snapshots = Retro.snapshot_count retro;
          rec_damaged = damaged } )
  end

let wal t = t.core.c_wal
let wal_status t = Option.map Storage.Wal.status t.core.c_wal

(* Flush + fsync any pending WAL tail (e.g. group-commit remainder). *)
let sync_wal t = Option.iter Storage.Wal.sync t.core.c_wal

let close_wal t =
  Option.iter Storage.Wal.close t.core.c_wal;
  t.core.c_wal <- None

let in_txn t =
  match t.core.c_txn with Some txn -> Storage.Txn.is_active txn | None -> false

(* --- archive lifecycle (CHECKPOINT / VACUUM SNAPSHOTS) ------------------- *)

(* Auto-checkpoint trigger: WAL frame bytes since the last checkpoint
   that cause a commit to checkpoint afterwards (0 = disabled;
   PRAGMA checkpoint_threshold). *)
let checkpoint_threshold t = t.core.c_ckpt_threshold

let set_checkpoint_threshold t n =
  if n < 0 then error "checkpoint_threshold must be >= 0";
  t.core.c_ckpt_threshold <- n

let checkpoint_seq t = t.core.c_ckpt_seq

(* One maintenance operation (vacuum or checkpoint) at a time, database-
   wide: the second errors instead of blocking, mirroring the explicit-
   transaction discipline (detected, never deadlocked). *)
let with_maintenance t name f =
  let core = t.core in
  locked_core core (fun () ->
      if core.c_maint then
        error "%s: another maintenance operation is in progress" name;
      core.c_maint <- true);
  Fun.protect
    ~finally:(fun () -> locked_core core (fun () -> core.c_maint <- false))
    f

(* The checkpoint protocol (see Ckpt for the crash-safety argument):
   sync the log, write the image beside it, swap in a truncated log —
   the commit point — then promote the image.  Caller holds the pager's
   writer lock and the maintenance flag.  Returns (seq, WAL bytes
   dropped). *)
let checkpoint_locked t wal =
  let retro = retro_exn t in
  let tick () = Storage.Wal.injection_point wal in
  Storage.Wal.sync wal;
  let seq = t.core.c_ckpt_seq + 1 in
  let path = Ckpt.path_for (Storage.Wal.path wal) in
  Ckpt.write ~tick ~path ~seq (Image.capture t.pager (Some retro));
  let dropped = Storage.Wal.truncate_to_checkpoint wal ~seq in
  Ckpt.promote ~tick ~path;
  t.core.c_ckpt_seq <- seq;
  Obs.Scope.incr Storage.Stats.c_checkpoints;
  (seq, dropped)

(* CHECKPOINT: materialize every logged commit into a durable image and
   truncate the WAL behind it.  Errors without a WAL (nothing to
   truncate) and inside an explicit transaction (the image must hold
   committed state only). *)
let checkpoint t =
  match t.core.c_wal with
  | None -> error "CHECKPOINT: this database has no write-ahead log"
  | Some wal ->
    if in_txn t then error "CHECKPOINT: cannot run inside a transaction";
    with_maintenance t "CHECKPOINT" (fun () ->
        Storage.Pager.with_write_lock t.pager (fun () ->
            checkpoint_locked t wal))

(* VACUUM SNAPSHOTS: drop every snapshot before [keep_from], rewrite the
   Pagelog down to the live blocks (Retro.vacuum), and — when WAL-backed
   — commit the compacted archive through a checkpoint, whose WAL swap
   is the durable commit point: a crash recovers the old archive or the
   new one, never a hybrid.  Runs as a pager writer, so it waits for
   in-flight AS OF readers and blocks new ones until installed. *)
let vacuum_snapshots t ~keep_from =
  let retro = retro_exn t in
  if in_txn t then error "VACUUM SNAPSHOTS: cannot run inside a transaction";
  with_maintenance t "VACUUM SNAPSHOTS" (fun () ->
      Storage.Pager.with_write_lock t.pager (fun () ->
          let tick =
            match t.core.c_wal with
            | Some wal -> fun () -> Storage.Wal.injection_point wal
            | None -> fun () -> ()
          in
          let res = Retro.vacuum ~tick retro ~keep_from in
          (match t.core.c_wal with
          | Some wal when res.Retro.vr_snapshots > 0 ->
            ignore (checkpoint_locked t wal)
          | _ -> ());
          res))

(* Post-commit hook: checkpoint when the log has outgrown the threshold.
   Skips silently when an explicit maintenance operation already owns
   the flag. *)
let maybe_auto_checkpoint t =
  match t.core.c_wal with
  | Some wal
    when t.core.c_ckpt_threshold > 0
         && (not (in_txn t))
         && Storage.Wal.bytes_since_checkpoint wal >= t.core.c_ckpt_threshold ->
    let claimed =
      locked_core t.core (fun () ->
          if t.core.c_maint then false
          else begin
            t.core.c_maint <- true;
            true
          end)
    in
    if claimed then
      Fun.protect
        ~finally:(fun () ->
          locked_core t.core (fun () -> t.core.c_maint <- false))
        (fun () ->
          Storage.Pager.with_write_lock t.pager (fun () ->
              ignore (checkpoint_locked t wal)))
  | _ -> ()

(* Install the scope statements through this handle charge (root by
   default); the engine wraps every execution in it. *)
let set_scope t scope = t.scope <- scope
let scope t = t.scope

(* Function registry is core-wide: a UDF registered through any session
   is visible to all of them (RQL registers its loop-body UDFs once and
   evaluates through derived sessions).  Registration is expected at
   setup time — it is not synchronized against concurrent lookups. *)
let register_fn t name fn =
  Hashtbl.replace t.core.c_funcs (String.lowercase_ascii name) fn

(* A handle-registered function (as opposed to a pure builtin).  UDFs
   run arbitrary code — the RQL mechanisms registered on the meta
   database write tables — so the engine must not classify a SELECT
   calling one as a pure reader. *)
let is_udf t name = Hashtbl.mem t.core.c_funcs (String.lowercase_ascii name)

let lookup_fn t name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.core.c_funcs name with
  | Some f -> Some f
  | None -> Func.find name

let fn_ctx t : Expr.fn_ctx = { Expr.lookup_fn = (fun name -> lookup_fn t name) }

(* Read context for the current state: the open transaction's view if
   one is active, otherwise the committed state. *)
let read_current t : Storage.Pager.read =
  match t.core.c_txn with
  | Some txn when Storage.Txn.is_active txn -> Storage.Txn.read_ctx txn
  | _ -> Storage.Pager.read t.pager

let invalidate_catalog t =
  locked_core t.core (fun () ->
      t.core.c_catalog_cache <- None;
      t.core.c_catalog_epoch <- t.core.c_catalog_epoch + 1)

(* The schema changed (DDL or rollback of possible DDL): drop the
   catalog cache and advance the plan-cache generation so every cached
   plan — in every session — re-plans on next use. *)
let schema_changed t =
  locked_core t.core (fun () ->
      t.core.c_catalog_cache <- None;
      t.core.c_catalog_epoch <- t.core.c_catalog_epoch + 1;
      t.core.c_generation <- t.core.c_generation + 1)

let catalog t =
  match t.core.c_txn with
  | Some txn when Storage.Txn.is_active txn ->
    (* Inside a transaction the catalog may contain uncommitted DDL;
       don't cache. *)
    Catalog.load (Storage.Txn.read_ctx txn)
  | _ -> (
    let core = t.core in
    let cached, epoch =
      locked_core core (fun () -> (core.c_catalog_cache, core.c_catalog_epoch))
    in
    match cached with
    | Some (e, c) when e = epoch -> c
    | _ ->
      let c = Catalog.load (Storage.Pager.read t.pager) in
      (* Only install if nothing invalidated the catalog while we were
         loading it — otherwise we would cache a stale schema. *)
      locked_core core (fun () ->
          if core.c_catalog_epoch = epoch then core.c_catalog_cache <- Some (epoch, c));
      c)

(* Cached heap handle (keeps insert hints warm across statements);
   session-private, so concurrent readers never share insert hints. *)
let heap_handle t first_page =
  match Hashtbl.find_opt t.heap_handles first_page with
  | Some h -> h
  | None ->
    let h = Storage.Heap.open_existing first_page in
    Hashtbl.add t.heap_handles first_page h;
    h

let drop_heap_handle t first_page = Hashtbl.remove t.heap_handles first_page

(* Run [f] in the open transaction, or wrap it in an autocommit
   transaction if none is open. *)
let with_write_txn t f =
  match t.core.c_txn with
  | Some txn when Storage.Txn.is_active txn -> f txn
  | _ -> Storage.Txn.with_txn t.pager f

(* The explicit transaction slot is a property of the database, not the
   session: a second BEGIN — from this session or any other — errors
   rather than blocks (one writer at a time, detected, never deadlocked). *)
let begin_txn t =
  (match t.core.c_txn with
  | Some txn when Storage.Txn.is_active txn -> error "transaction already open"
  | _ -> ());
  t.core.c_txn <- Some (Storage.Txn.begin_txn t.pager)

(* Commit; with [snapshot] also declares a Retro snapshot reflecting the
   committed state and returns its id. *)
let commit t ~snapshot =
  let sid =
    match t.core.c_txn with
    | Some txn when Storage.Txn.is_active txn ->
      Storage.Txn.commit txn;
      t.core.c_txn <- None;
      if snapshot then Some (Retro.declare (retro_exn t)) else None
    | _ ->
      (* COMMIT WITH SNAPSHOT outside BEGIN declares a snapshot of the
         current committed state. *)
      if snapshot then Some (Retro.declare (retro_exn t))
      else error "no transaction is open"
  in
  invalidate_catalog t;
  maybe_auto_checkpoint t;
  sid

let rollback t =
  (match t.core.c_txn with
  | Some txn when Storage.Txn.is_active txn ->
    Storage.Txn.abort txn;
    t.core.c_txn <- None
  | _ -> error "no transaction is open");
  schema_changed t
