(* Retro: page-level copy-on-write snapshots for the storage manager
   (paper §4; Shaull et al. [21-23]).

   Retro interposes on transaction commit: the first time a page is
   modified after a snapshot declaration, its pre-state is copied out to
   the Pagelog and a mapping is appended to the Maplog.  A pre-state
   archived at epoch e is shared by every snapshot declared since the
   page's previous archiving — the Maplog suffix scan recovers exactly
   this sharing.  Snapshot queries fetch mapped pages from the Pagelog
   (through the snapshot page cache) and unmapped pages from the current
   database, which is how recent snapshots become cheap to read. *)

(* The Pagelog, the log-structured archive of copied-out pre-states
   (paper §4), is a checksummed page store on the simulated SSD. *)
module Pagelog = Storage.Disk

(* The Pagelog's device name, which fault injectors and corruption
   reports carry. *)
let archive_device = "pagelog"

(* Re-export the submodules: [retro.ml] is the library root, so they are
   only reachable through it. *)
module Maplog = Maplog
module Spt = Spt

type t = {
  (* [pagelog] is mutable for exactly one writer: [vacuum] installs the
     compacted replacement device under the pager's writer lock. *)
  mutable pagelog : Pagelog.t;
  maplog : Maplog.t;
  pager : Storage.Pager.t;
  mutable saved_epoch : int array; (* per page: last epoch whose pre-state is archived *)
  snap_cache : Bytes.t Storage.Lru.t; (* keyed by pagelog offset *)
  mutable clock : unit -> float; (* timestamp source for SnapIds entries *)
  mutable last_spt : (int * int) option;
      (* (snap_id, maplog length) of the most recently built SPT; a
         record only — build_spt never reuses it — so introspection can
         report whether a snapshot's SPT is current without perturbing
         the measured build costs. *)
  damaged : (int, unit) Hashtbl.t;
      (* snapshots known to reference a corrupt Pagelog block; their AS
         OF reads fail typed, everything else keeps working *)
  (* Guards the shared read-side mutable state: the snapshot page cache
     (Lru.find reorders its recency list even on hits) and the damaged
     set.  Never held across Pagelog reads — the simulated device may
     sleep there (Cost_model.real_read_latency). *)
  rt_mu : Mutex.t;
}

exception Snapshot_damaged of { snap_id : int; pl_off : int; reason : string }
(** An [AS OF] read hit a corrupt or unreadable archived page.  The
    failure is scoped: only snapshots whose SPT references the bad
    block raise; current-state queries and other snapshots are
    unaffected. *)

let default_cache_pages = 1 lsl 16

let saved_epoch t pid = if pid < Array.length t.saved_epoch then t.saved_epoch.(pid) else 0

let set_saved_epoch t pid e =
  if pid >= Array.length t.saved_epoch then begin
    let a = Array.make (max (2 * Array.length t.saved_epoch) (pid + 1)) 0 in
    Array.blit t.saved_epoch 0 a 0 (Array.length t.saved_epoch);
    t.saved_epoch <- a
  end;
  t.saved_epoch.(pid) <- e

let current_epoch t = Maplog.snapshot_count t.maplog

(* The commit interposition: archive pre-states for pages modified for
   the first time since the latest snapshot declaration. *)
let on_commit t (events : Storage.Pager.commit_event list) =
  let epoch = current_epoch t in
  if epoch > 0 then
    List.iter
      (fun (ev : Storage.Pager.commit_event) ->
        match ev.before with
        | None -> () (* page id did not exist in any snapshot *)
        | Some before ->
          if saved_epoch t ev.pid < epoch then begin
            let off = Pagelog.append t.pagelog before in
            Maplog.append t.maplog { Maplog.pid = ev.pid; pl_off = off };
            set_saved_epoch t ev.pid epoch;
            Obs.Scope.incr Storage.Stats.c_cow_archived
          end)
      events

(* A Retro instance over [pager] holding the given archive, interposing
   on commit. *)
let make pager ~pagelog ~maplog ~saved_epoch =
  let t =
    { pagelog;
      maplog;
      pager;
      saved_epoch;
      snap_cache = Storage.Lru.create default_cache_pages;
      clock = Unix.gettimeofday;
      last_spt = None;
      damaged = Hashtbl.create 4;
      rt_mu = Mutex.create () }
  in
  pager.Storage.Pager.pre_commit_hook <- on_commit t;
  t

(* Attach a Retro instance with an empty archive to a pager. *)
let attach pager =
  make pager ~pagelog:(Pagelog.create ~name:archive_device ()) ~maplog:(Maplog.create ())
    ~saved_epoch:(Array.make 256 0)

(* Declare a snapshot reflecting the current committed state (called by
   COMMIT WITH SNAPSHOT just after the transaction installs).  Returns
   the new snapshot identifier.  When a WAL is attached, the boundary is
   logged and made durable — the archive appends themselves are not
   logged, because replaying the commit/declare sequence reproduces
   them. *)
let declare t =
  (* A declaration moves the maplog boundary concurrent SPT builds scan
     against: run it as the pager's writer, like a commit body. *)
  Storage.Pager.with_write_lock t.pager (fun () ->
      let snap_id =
        Maplog.declare t.maplog ~db_pages:(Storage.Pager.n_pages t.pager) ~ts:(t.clock ())
      in
      (match t.pager.Storage.Pager.wal with
       | Some w ->
         let b = Maplog.boundary t.maplog snap_id in
         w.Storage.Pager.wal_declare ~db_pages:b.Maplog.db_pages ~ts:b.Maplog.ts;
         w.Storage.Pager.wal_barrier ()
       | None -> ());
      snap_id)

(* Replay path: re-declare a snapshot with its WAL-logged boundary
   values.  Never logged (the record being replayed IS the log);
   [db_pages] comes from the record rather than the replayed pager,
   whose n_pages can legitimately differ (aborted reservations grow it
   without ever reaching the log). *)
let declare_at t ~db_pages ~ts = Maplog.declare t.maplog ~db_pages ~ts

(* Every rt_mu section goes through this guard: the lock is released on
   any exit path, and the lint gate's lock-discipline rule keys on the
   [Fun.protect] spelling.  Keep the guarded closure free of Pagelog
   reads — the simulated device may sleep there. *)
let locked_rt t f =
  Mutex.lock t.rt_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.rt_mu) f

let snapshot_count t = Maplog.snapshot_count t.maplog

(* Lowest snapshot id still readable; ids below it were vacuumed.
   Snapshot ids never renumber, so [first_live]..[snapshot_count] is
   exactly the readable range. *)
let first_live t = Maplog.first_live t.maplog

let live_snapshot_count t = Maplog.snapshot_count t.maplog - Maplog.first_live t.maplog + 1

let is_vacuumed t snap_id =
  snap_id >= 1 && snap_id <= Maplog.snapshot_count t.maplog
  && snap_id < Maplog.first_live t.maplog

let snapshot_ts t snap_id = (Maplog.boundary t.maplog snap_id).Maplog.ts

(* Declaration timestamp that also works for vacuumed snapshots (their
   boundary slots keep it); sys_snapshots reads this. *)
let snapshot_ts_raw t snap_id = (Maplog.raw_boundary t.maplog snap_id).Maplog.ts

(* Every call builds: each snapshot's SPT is built once per RQL
   iteration, the cost the paper attributes.  Wrapped in a trace span:
   SPT construction is one of the paper's attributed cost components,
   and the span lets EXPLAIN PROFILE and trace dumps show it nested
   under the statement / RQL iteration. *)
let build_spt t snap_id =
  Obs.Trace.with_span ~name:"spt_build"
    ~attrs:[ ("snap_id", Obs.Trace.Int snap_id) ]
    (fun () ->
      let scanned0 = Obs.Scope.get Storage.Stats.c_maplog_scanned in
      let spt = Spt.build t.maplog snap_id in
      Obs.Trace.set_attrs
        [ ("maplog_scanned",
           Obs.Trace.Int (Obs.Scope.get Storage.Stats.c_maplog_scanned - scanned0)) ];
      t.last_spt <- Some (snap_id, Maplog.length t.maplog);
      spt)

(* The pages whose images may differ between snapshots [a] and [b]
   (either order): every page with a Maplog entry between the two
   declarations' boundaries — exactly the pages whose SPT entries
   differ, since SPT(s) maps a page to its first entry at or after s's
   boundary.  A page outside the set reads the same bytes in both
   snapshots.  Pages allocated after the older declaration appear only
   if they were also archived in between; callers treat a page the
   older snapshot did not have as changed.  Both snapshots must be live;
   cost is one pass over the entries in between. *)
let changed_pages t a b =
  let lo = min a b and hi = max a b in
  let p0 = (Maplog.boundary t.maplog lo).Maplog.pos in
  let p1 = (Maplog.boundary t.maplog hi).Maplog.pos in
  let set = Hashtbl.create (max 16 (p1 - p0)) in
  for i = p0 to p1 - 1 do
    Hashtbl.replace set (Maplog.entry t.maplog i).Maplog.pid ()
  done;
  set

(* Whether the most recently built SPT belongs to [snap_id] and is still
   current (no mappings appended since the build).  Reported by
   sys_snapshots. *)
let spt_cached t snap_id =
  match t.last_spt with
  | Some (sid, len) -> sid = snap_id && len = Maplog.length t.maplog
  | None -> false

(* Toggle the Skippy skip index on the Maplog (on by default); the
   ablation benchmark compares SPT-build costs with and without it. *)
let set_skippy t on = Maplog.set_skippy t.maplog on

(* --- damage tracking ----------------------------------------------------- *)

let mark_damaged t snap_id = locked_rt t (fun () -> Hashtbl.replace t.damaged snap_id ())

let is_damaged t snap_id = locked_rt t (fun () -> Hashtbl.mem t.damaged snap_id)

(* Fetch page [pid] as of the snapshot described by [spt].  A corrupt
   archived block fails only this snapshot (typed, and recorded as
   damaged) — never a silently-wrong page. *)
let read_page t (spt : Spt.t) pid =
  if not (Spt.in_snapshot spt pid) then
    invalid_arg
      (Printf.sprintf "Retro.read_page: page %d beyond snapshot %d (db_pages=%d)" pid
         (Spt.snap_id spt) (Spt.db_pages spt));
  match Spt.find spt pid with
  | Some off -> (
    (* Lru.find reorders the recency list even on a hit: lock around
       cache probes and inserts, but never across the Pagelog read —
       that is where the simulated device may sleep, and concurrent
       readers overlapping those sleeps is the whole point. *)
    let hit = locked_rt t (fun () -> Storage.Lru.find t.snap_cache off) in
    match hit with
    | Some page ->
      Obs.Scope.incr Storage.Stats.c_snap_cache_hits;
      page
    | None ->
      Obs.Scope.incr Storage.Stats.c_snap_cache_misses;
      (match Pagelog.read t.pagelog off with
       | page ->
         locked_rt t (fun () -> Storage.Lru.add t.snap_cache off page);
         page
       | exception Storage.Disk.Corruption { block; detail; _ } ->
         Obs.Scope.incr Storage.Stats.c_checksum_failures;
         mark_damaged t (Spt.snap_id spt);
         raise
           (Snapshot_damaged
              { snap_id = Spt.snap_id spt; pl_off = block; reason = detail })
       | exception Storage.Disk.Read_error { block; _ } ->
         raise
           (Snapshot_damaged
              { snap_id = Spt.snap_id spt; pl_off = block; reason = "read error" })))
  | None ->
    (* Shared with the current database: served from memory. *)
    Storage.Pager.read_committed t.pager pid

let read_ctx t spt : Storage.Pager.read = fun pid -> read_page t spt pid

(* Empty the snapshot page cache: the paper's experiments assume the
   cache is cold at the start of each RQL query. *)
let clear_cache t = locked_rt t (fun () -> Storage.Lru.clear t.snap_cache)

let set_cache_pages t n = locked_rt t (fun () -> Storage.Lru.set_capacity t.snap_cache n)

(* Per-instance snapshot-cache statistics; also refreshes the
   corresponding gauges in the metrics registry so Prometheus scrapes
   and sys_metrics see current occupancy. *)
let g_cache_capacity = Obs.Metrics.gauge "retro.snap_cache.capacity"
let g_cache_occupancy = Obs.Metrics.gauge "retro.snap_cache.occupancy"
let g_cache_evictions = Obs.Metrics.gauge "retro.snap_cache.evictions"

let cache_stats t =
  let s = locked_rt t (fun () -> Storage.Lru.stat_record t.snap_cache) in
  Obs.Metrics.Gauge.set g_cache_capacity (float_of_int s.Storage.Lru.s_capacity);
  Obs.Metrics.Gauge.set g_cache_occupancy (float_of_int s.Storage.Lru.s_occupancy);
  Obs.Metrics.Gauge.set g_cache_evictions (float_of_int s.Storage.Lru.s_evictions);
  s

let pagelog_size_bytes t = Pagelog.size_bytes t.pagelog
let maplog_length t = Maplog.length t.maplog

(* --- archive health analysis (ANALYZE ARCHIVE, sys_snapshots) ----------- *)

(* Per-snapshot view of the archive: its Maplog boundary, the size of
   its SPT, and the delta (pages archived during its epoch, i.e. between
   its declaration and the next one). *)
type snapshot_info = {
  si_id : int;
  si_ts : float;
  si_boundary : int;      (* maplog position at declaration *)
  si_db_pages : int;      (* database size (pages) at declaration *)
  si_pages_mapped : int;  (* |SPT|: distinct mapped pages in the suffix *)
  si_delta_entries : int; (* mappings appended during this snapshot's epoch *)
  si_delta_pages : int;   (* distinct pages among them *)
  si_delta_bytes : int;   (* pre-state bytes archived during the epoch *)
}

type analysis = {
  an_snapshots : snapshot_info array; (* live (non-vacuumed) snapshots, oldest first *)
  an_maplog_entries : int;
  an_pagelog_pages : int;
  an_pagelog_bytes : int;
  an_db_pages : int;
  an_distinct_pages : int;            (* pages with at least one archived pre-state *)
  an_chain_max : int;                 (* longest page version chain *)
  an_chain_mean : float;              (* mean chain length over archived pages *)
  an_space_amplification : float;     (* archived copies per distinct archived page *)
  an_skippy_enabled : bool;
  an_skippy_l1 : int;                 (* memoized L1 segment digests *)
  an_skippy_l2 : int;
  an_skippy_entries : int;            (* total digest entries held *)
}

(* Mappings appended during snapshot [sid]'s epoch: the entries between
   its boundary and the next declaration's (or the log's end for the
   newest snapshot).  [on_commit] archives a page at most once per epoch
   ([saved_epoch]), so this is also the number of distinct pages the
   epoch archived — "a snapshot's delta" everywhere it is reported.
   [sid] must be live.  O(1). *)
let delta_entries t sid =
  let p0 = (Maplog.boundary t.maplog sid).Maplog.pos in
  let p1 =
    if sid = Maplog.snapshot_count t.maplog then Maplog.length t.maplog
    else (Maplog.boundary t.maplog (sid + 1)).Maplog.pos
  in
  p1 - p0

(* Pages archived twice within one epoch, as (snap_id, pid) pairs in log
   order: breaches of the at-most-once-per-epoch invariant
   [delta_entries] relies on.  Empty on a healthy archive; PRAGMA
   integrity_check reports each pair.  One pass over the log. *)
let epoch_duplicates t =
  let last_epoch : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let dups = ref [] in
  for s = Maplog.first_live t.maplog to Maplog.snapshot_count t.maplog do
    let p0 = (Maplog.boundary t.maplog s).Maplog.pos in
    for i = p0 to p0 + delta_entries t s - 1 do
      let pid = (Maplog.entry t.maplog i).Maplog.pid in
      if Hashtbl.find_opt last_epoch pid = Some s then dups := (s, pid) :: !dups
      else Hashtbl.replace last_epoch pid s
    done
  done;
  List.rev !dups

(* Scan the Maplog twice — once forward for version chains, once
   backward for SPT sizes — and aggregate the archive's health picture.
   Costs O(entries + (distinct pages + snapshots) * log pages):
   per-snapshot deltas are [delta_entries], and SPT sizes come from a
   Fenwick tree over page ids.  Independent of the Pagelog contents, so
   it never touches the simulated SSD. *)
let analyze t =
  let n = Maplog.length t.maplog in
  let count = Maplog.snapshot_count t.maplog in
  let fl = Maplog.first_live t.maplog in
  (* page version-chain lengths over the whole log *)
  let chains : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    let e = Maplog.entry t.maplog i in
    Hashtbl.replace chains e.Maplog.pid
      (1 + Option.value (Hashtbl.find_opt chains e.Maplog.pid) ~default:0)
  done;
  let distinct = Hashtbl.length chains in
  let chain_max = Hashtbl.fold (fun _ c acc -> max c acc) chains 0 in
  let chain_mean = if distinct = 0 then 0. else float_of_int n /. float_of_int distinct in
  let max_pid = Hashtbl.fold (fun pid _ acc -> max pid acc) chains (-1) in
  (* per-snapshot SPT sizes: walk the log backwards; a pid's first
     sighting adds 1 at [pid] in a Fenwick tree, so at each boundary the
     prefix sum below [db_pages] counts the suffix's distinct pages the
     snapshot had *)
  let fenwick = Array.make (max_pid + 2) 0 in (* 1-based: slot pid + 1 *)
  let rec add i =
    if i < Array.length fenwick then begin
      fenwick.(i) <- fenwick.(i) + 1;
      add (i + (i land -i))
    end
  in
  (* pages with ids below [i] seen so far *)
  let rec below i acc = if i <= 0 then acc else below (i - (i land -i)) (acc + fenwick.(i)) in
  let seen = Array.make (max_pid + 1) false in
  let pages_mapped = Array.make (count + 1) 0 in
  let idx = ref (n - 1) in
  for s = count downto fl do
    let b = Maplog.boundary t.maplog s in
    while !idx >= b.Maplog.pos do
      let pid = (Maplog.entry t.maplog !idx).Maplog.pid in
      if not seen.(pid) then begin
        seen.(pid) <- true;
        add (pid + 1)
      end;
      decr idx
    done;
    pages_mapped.(s) <- below (min b.Maplog.db_pages (max_pid + 1)) 0
  done;
  let snapshots =
    Array.init (count - fl + 1) (fun i ->
        let s = fl + i in
        let b = Maplog.boundary t.maplog s in
        let delta = delta_entries t s in
        { si_id = s;
          si_ts = b.Maplog.ts;
          si_boundary = b.Maplog.pos;
          si_db_pages = b.Maplog.db_pages;
          si_pages_mapped = pages_mapped.(s);
          si_delta_entries = delta;
          si_delta_pages = delta;
          si_delta_bytes = delta * Storage.Page.size })
  in
  let l1, l2, skippy_entries = Maplog.skippy_stats t.maplog in
  { an_snapshots = snapshots;
    an_maplog_entries = n;
    an_pagelog_pages = Pagelog.length t.pagelog;
    an_pagelog_bytes = Pagelog.size_bytes t.pagelog;
    an_db_pages = Storage.Pager.n_pages t.pager;
    an_distinct_pages = distinct;
    an_chain_max = chain_max;
    an_chain_mean = chain_mean;
    an_space_amplification =
      (if distinct = 0 then 0. else float_of_int n /. float_of_int distinct);
    an_skippy_enabled = Maplog.skippy_enabled t.maplog;
    an_skippy_l1 = l1;
    an_skippy_l2 = l2;
    an_skippy_entries = skippy_entries }

(* Human-readable ANALYZE ARCHIVE report. *)
let render_analysis (a : analysis) : string list =
  let mb b = float_of_int b /. 1e6 in
  [ Printf.sprintf "snapshots: %d" (Array.length a.an_snapshots);
    Printf.sprintf "maplog entries: %d" a.an_maplog_entries;
    Printf.sprintf "pagelog: %d pages, %d bytes (%.2f MB)" a.an_pagelog_pages
      a.an_pagelog_bytes (mb a.an_pagelog_bytes);
    Printf.sprintf "current database: %d pages (%.2f MB)" a.an_db_pages
      (mb (a.an_db_pages * Storage.Page.size));
    Printf.sprintf "archived pages: %d distinct, chain length mean %.2f max %d"
      a.an_distinct_pages a.an_chain_mean a.an_chain_max;
    Printf.sprintf "space amplification: %.2f archived copies per archived page"
      a.an_space_amplification;
    Printf.sprintf "skippy: %s, %d L1 + %d L2 segment digests, %d digest entries"
      (if a.an_skippy_enabled then "on" else "off")
      a.an_skippy_l1 a.an_skippy_l2 a.an_skippy_entries ]
  @ (Array.to_list a.an_snapshots
    |> List.map (fun si ->
           Printf.sprintf
             "snapshot %d: boundary=%d db_pages=%d spt=%d delta=%d pages (%.2f MB)"
             si.si_id si.si_boundary si.si_db_pages si.si_pages_mapped si.si_delta_pages
             (mb si.si_delta_bytes)))

(* --- archive scrub (corruption -> affected snapshots) ------------------- *)

(* Verify every Pagelog block and map each corrupt one to the snapshots
   whose SPT references it.  Returns (snap_id, pl_off) problems, sorted,
   and marks those snapshots damaged.

   A snapshot s references maplog entry j (mapping pid -> pl_off) iff j
   is the first occurrence of pid at or after s's boundary and pid
   existed at declaration: prev_occ(j) < boundary(s).pos <= j and
   pid < boundary(s).db_pages.  Computed with one forward pass for
   previous occurrences — deliberately not via Maplog.scan_from, which
   would distort the maplog_scanned counter the benchmarks attribute to
   SPT builds. *)
let scrub t =
  let bad = Pagelog.verify_all t.pagelog in
  if bad = [] then []
  else begin
    let bad_offs = Hashtbl.create 8 in
    List.iter (fun off -> Hashtbl.replace bad_offs off ()) bad;
    let n = Maplog.length t.maplog in
    let last_occ : (int, int) Hashtbl.t = Hashtbl.create 256 in
    (* (maplog index, pid, pl_off, previous occurrence of pid or -1) *)
    let bad_entries = ref [] in
    for j = 0 to n - 1 do
      let e = Maplog.entry t.maplog j in
      if Hashtbl.mem bad_offs e.Maplog.pl_off then
        bad_entries :=
          ( j,
            e.Maplog.pid,
            e.Maplog.pl_off,
            Option.value (Hashtbl.find_opt last_occ e.Maplog.pid) ~default:(-1) )
          :: !bad_entries;
      Hashtbl.replace last_occ e.Maplog.pid j
    done;
    let problems = ref [] in
    for s = Maplog.snapshot_count t.maplog downto Maplog.first_live t.maplog do
      let b = Maplog.boundary t.maplog s in
      List.iter
        (fun (j, pid, off, prev) ->
          if b.Maplog.pos <= j && prev < b.Maplog.pos && pid < b.Maplog.db_pages then begin
            mark_damaged t s;
            problems := (s, off) :: !problems
          end)
        !bad_entries
    done;
    List.sort_uniq compare !problems
  end

(* --- vacuum: drop a history prefix and compact the Pagelog --------------- *)

type vacuum_result = {
  vr_snapshots : int; (* snapshots dropped *)
  vr_blocks : int;    (* pagelog blocks reclaimed *)
  vr_bytes : int;     (* = vr_blocks * page size *)
}

(* Drop every snapshot below [keep_from] and compact the archive.
   Retention is prefix-only (a snapshot's pages may be shared with every
   older snapshot, so dropping from the middle cannot reclaim), and
   surviving snapshots keep their ids and their exact page images.

   The rewrite builds a fresh device on the side — raw block copies, so
   a latent checksum mismatch in a *surviving* snapshot stays detectable
   while mismatches confined to dropped snapshots are reclaimed — and
   only then installs it together with the compacted Maplog: a crash
   anywhere before the install point leaves the in-memory archive
   untouched, and durability of the installed state comes from the
   checkpoint the caller (Db.vacuum_snapshots) takes right after.

   [tick] is called once per copied block and once before the install —
   the crash matrix's mid-rewrite / pre-install injection points.

   Caller must hold the pager's writer lock: readers never observe a
   half-compacted archive. *)
let vacuum ?(tick = fun () -> ()) t ~keep_from =
  let count = Maplog.snapshot_count t.maplog in
  let fl = Maplog.first_live t.maplog in
  if keep_from < 1 || keep_from > count then
    invalid_arg (Printf.sprintf "Retro.vacuum: unknown snapshot %d" keep_from);
  if keep_from < fl then
    invalid_arg (Printf.sprintf "Retro.vacuum: snapshot %d has been vacuumed" keep_from);
  if keep_from = fl then { vr_snapshots = 0; vr_blocks = 0; vr_bytes = 0 }
  else begin
    let keep_pos = (Maplog.boundary t.maplog keep_from).Maplog.pos in
    let fresh = Pagelog.create ~name:archive_device () in
    Pagelog.set_fault fresh (Pagelog.fault t.pagelog);
    let remap : (int, int) Hashtbl.t = Hashtbl.create 1024 in
    let n = Maplog.length t.maplog in
    for i = keep_pos to n - 1 do
      tick ();
      let e = Maplog.entry t.maplog i in
      if not (Hashtbl.mem remap e.Maplog.pl_off) then begin
        let b, crc = Pagelog.raw_block t.pagelog e.Maplog.pl_off in
        let off = Pagelog.append_raw fresh b ~crc in
        Hashtbl.add remap e.Maplog.pl_off off
      end
    done;
    let reclaimed = Pagelog.length t.pagelog - Pagelog.length fresh in
    tick (); (* pre-install point: the old archive is still whole *)
    ignore (Maplog.compact t.maplog ~keep_from ~remap:(fun off -> Hashtbl.find remap off));
    t.pagelog <- fresh;
    t.last_spt <- None;
    locked_rt t (fun () ->
        Storage.Lru.clear t.snap_cache;
        let stale =
          Hashtbl.fold (fun s () acc -> if s < keep_from then s :: acc else acc) t.damaged []
        in
        List.iter (fun s -> Hashtbl.remove t.damaged s) stale);
    let dropped = keep_from - fl in
    Obs.Scope.add Storage.Stats.c_snapshots_vacuumed dropped;
    Obs.Scope.add Storage.Stats.c_blocks_reclaimed reclaimed;
    { vr_snapshots = dropped;
      vr_blocks = reclaimed;
      vr_bytes = reclaimed * Storage.Page.size }
  end

(* Test hooks on the archive device (Pagelog/Maplog are private to this
   library; fault-injection tests reach them through these). *)
let corrupt_archive_block t off ~bit = Pagelog.corrupt_block t.pagelog off ~bit
let set_archive_fault t f = Pagelog.set_fault t.pagelog f
let verify_archive t = Pagelog.verify_all t.pagelog

(* --- images ---------------------------------------------------------------- *)

(* Portable image of the whole snapshot system: the archive with every
   block's *stored* CRC, the mapping log and the per-page COW
   bookkeeping.  A latent archive corruption therefore survives any
   image round trip as a corruption the scrub re-finds, instead of being
   blessed by a recomputed checksum. *)
type image = {
  img_pagelog : (Bytes.t * int) array; (* (block bytes, stored CRC) *)
  img_maplog : Maplog.image;
  img_saved_epoch : int array;
}

let export t =
  { img_pagelog = Pagelog.dump_raw t.pagelog;
    img_maplog = Maplog.dump t.maplog;
    img_saved_epoch = Array.copy t.saved_epoch }

(* Attach a restored snapshot system to a (restored) pager. *)
let import pager img =
  make pager
    ~pagelog:(Pagelog.restore_raw ~name:archive_device img.img_pagelog)
    ~maplog:(Maplog.restore img.img_maplog)
    ~saved_epoch:(Array.copy img.img_saved_epoch)
