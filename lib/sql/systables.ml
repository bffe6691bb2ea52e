(* Read-only virtual system tables (the sys_ namespace).

   Each sys_ table materializes live engine state as rows on demand:
   the metrics registry, the trace ring, the snapshot archive, cache
   statistics and the physical size of every relation.  They carry no
   heap pages — the catalog entry handed to the planner uses the
   [virtual_heap] sentinel and the executor routes scans here instead
   of to Storage.Heap — so they are visible to the full query surface
   (joins, aggregates, RQL UDFs, AS OF retrospective queries) while remaining pure observers: reading them never
   perturbs the counters they report, beyond the statement accounting
   every query pays.

   Virtual tables always reflect the *current* process state; an AS OF
   environment resolves them identically (there is nothing historical
   to read — the archive itself is the history). *)

module R = Storage.Record

(* Sentinel heap id marking a catalog entry as virtual; no real table
   can have it (page ids are non-negative). *)
let virtual_heap = -1

type vtable = {
  vname : string;
  vcols : (string * string) array;      (* name, declared type *)
  vrows : Db.t -> R.row list;
}

(* --- row producers ----------------------------------------------------- *)

let metrics_rows _db =
  List.map
    (fun (name, m) ->
      match m with
      | Obs.Metrics.M_counter c ->
        [| R.Text name; R.Text "counter"; R.Int (Obs.Metrics.Counter.get c) |]
      | Obs.Metrics.M_gauge g ->
        [| R.Text name; R.Text "gauge"; R.Real (Obs.Metrics.Gauge.get g) |]
      | Obs.Metrics.M_histogram h ->
        [| R.Text name; R.Text "histogram"; R.Int (Obs.Metrics.Histogram.count h) |])
    (Obs.Metrics.sorted_items ())

let histogram_rows _db =
  List.filter_map
    (fun (name, m) ->
      match m with
      | Obs.Metrics.M_histogram h ->
        let module H = Obs.Metrics.Histogram in
        Some
          [| R.Text name; R.Int (H.count h); R.Real (H.mean h);
             R.Real (H.quantile h 0.5); R.Real (H.quantile h 0.95);
             R.Real (H.quantile h 0.99); R.Real (H.min_value h);
             R.Real (H.max_value h) |]
      | _ -> None)
    (Obs.Metrics.sorted_items ())

let span_rows _db =
  List.map
    (fun (sp : Obs.Trace.span) ->
      [| R.Int sp.Obs.Trace.seq; R.Int sp.Obs.Trace.id; R.Int sp.Obs.Trace.parent;
         R.Int sp.Obs.Trace.tid; R.Text sp.Obs.Trace.name;
         R.Real sp.Obs.Trace.ts_us; R.Real sp.Obs.Trace.dur_us |])
    (Obs.Trace.spans ())

let snapshot_rows db =
  match db.Db.retro with
  | None -> []
  | Some retro ->
    (* Vacuumed ids first (they never renumber, so the id column stays a
       stable key): archive columns zeroed, declaration time preserved.
       [reclaimable_bytes] on a retained row is the cumulative space a
       VACUUM SNAPSHOTS OLDER THAN (snap_id + 1) would free. *)
    let fl = Retro.first_live retro in
    let vacuumed =
      List.init (fl - 1) (fun i ->
          let s = i + 1 in
          [| R.Int s; R.Real (Retro.snapshot_ts_raw retro s); R.Int 0; R.Int 0;
             R.Int 0; R.Int 0; R.Int 0; R.Int 0; R.Int 0; R.Int 0;
             R.Text "vacuumed"; R.Int 0 |])
    in
    let a = Retro.analyze retro in
    let cum = ref 0 in
    let live =
      Array.to_list a.Retro.an_snapshots
      |> List.map (fun (si : Retro.snapshot_info) ->
             cum := !cum + si.Retro.si_delta_bytes;
             [| R.Int si.Retro.si_id; R.Real si.Retro.si_ts; R.Int si.Retro.si_boundary;
                R.Int si.Retro.si_db_pages; R.Int si.Retro.si_pages_mapped;
                R.Int si.Retro.si_delta_entries; R.Int si.Retro.si_delta_pages;
                R.Int si.Retro.si_delta_bytes;
                R.Int (if Retro.spt_cached retro si.Retro.si_id then 1 else 0);
                R.Int (if Retro.is_damaged retro si.Retro.si_id then 1 else 0);
                R.Text "retained"; R.Int !cum |])
    in
    vacuumed @ live

(* One row of archive-lifecycle state: live/vacuumed extent, physical
   footprint, checkpoint position and the WAL growth that feeds the
   auto-checkpoint trigger. *)
let archive_rows (db : Db.t) =
  match db.Db.retro with
  | None -> []
  | Some retro ->
    let wal_since =
      match Db.wal db with
      | Some w -> Storage.Wal.bytes_since_checkpoint w
      | None -> 0
    in
    [ [| R.Int (Retro.snapshot_count retro);
         R.Int (Retro.live_snapshot_count retro);
         R.Int (Retro.first_live retro);
         R.Int (Retro.Pagelog.length retro.Retro.pagelog);
         R.Int (Retro.Pagelog.size_bytes retro.Retro.pagelog);
         R.Int (Retro.maplog_length retro);
         R.Int (Db.checkpoint_seq db);
         R.Int (Db.checkpoint_threshold db);
         R.Int wal_since |] ]

let cache_rows db =
  match db.Db.retro with
  | None -> []
  | Some retro ->
    let s = Retro.cache_stats retro in
    [ [| R.Text "retro.snap_cache"; R.Int s.Storage.Lru.s_capacity;
         R.Int s.Storage.Lru.s_occupancy; R.Int s.Storage.Lru.s_hits;
         R.Int s.Storage.Lru.s_misses; R.Int s.Storage.Lru.s_evictions |] ]

(* Physical footprint of every cataloged relation, through the current
   read context (inside a transaction this sees uncommitted DDL). *)
let table_rows db =
  let read = Db.read_current db in
  let cat = Db.catalog db in
  let out = ref [] in
  Catalog.iter_tables cat ~f:(fun t ->
      let h = Storage.Heap.open_existing t.Catalog.theap in
      out :=
        [| R.Text t.Catalog.tname; R.Text "table"; R.Int t.Catalog.theap;
           R.Int (Storage.Heap.page_count read h); R.Int (Storage.Heap.count read h) |]
        :: !out);
  Catalog.iter_indexes cat ~f:(fun i ->
      let b = Storage.Btree.open_existing i.Catalog.iroot in
      out :=
        [| R.Text i.Catalog.iname; R.Text "index"; R.Int i.Catalog.iroot;
           R.Int (Storage.Btree.page_count read b); R.Int (Storage.Btree.count read b) |]
        :: !out);
  List.sort compare !out

(* Plan-cache statistics of this handle: one row.  [generation] is the
   schema-change counter cached plans are validated against. *)
let plan_rows (db : Db.t) =
  (* [delta_safe] counts cached plans the optimizer marked safe for
     incremental (delta) evaluation. *)
  let delta_safe =
    Hashtbl.fold
      (fun _ (c : Plan.cached) n ->
        match c.Plan.cp_plan.Plan.p_opt with
        | Some oi when oi.Plan.oi_delta_safe -> n + 1
        | _ -> n)
      db.Db.plan_cache 0
  in
  [ [| R.Int (Hashtbl.length db.Db.plan_cache); R.Int db.Db.plan_hits;
       R.Int db.Db.plan_misses; R.Int db.Db.plan_invalidations;
       R.Int (Db.generation db); R.Int delta_safe |] ]

(* Every live session over this handle's core, oldest first: its
   private plan cache and counters, its prepared-statement count and
   the scope its statements charge (mirrors sys_plans / sys_scopes). *)
let session_rows (db : Db.t) =
  List.map
    (fun s ->
      [| R.Int (Db.session_id s); R.Int s.Db.prepared_count;
         R.Int (Hashtbl.length s.Db.plan_cache); R.Int s.Db.plan_hits;
         R.Int s.Db.plan_misses; R.Int s.Db.plan_invalidations;
         R.Int (Obs.Scope.id s.Db.scope);
         R.Int (if s == db then 1 else 0) |])
    (Db.sessions db)

(* Per-fingerprint statement statistics (process-wide, like the metrics
   registry), most total time first. *)
let statement_rows _db =
  List.map
    (fun (st : Fingerprint.stat) ->
      [| R.Text st.Fingerprint.fp; R.Text st.Fingerprint.norm;
         R.Int st.Fingerprint.calls; R.Int st.Fingerprint.rows;
         R.Real st.Fingerprint.total_s;
         R.Real (st.Fingerprint.total_s /. float_of_int (max 1 st.Fingerprint.calls));
         R.Real st.Fingerprint.max_s; R.Int st.Fingerprint.plan_hits |])
    (Fingerprint.stats ())

(* The structured event log, one row per retained event; the full field
   set rides along as the event's JSON-line rendering. *)
let event_rows _db =
  List.map
    (fun (e : Obs.Eventlog.event) ->
      [| R.Int e.Obs.Eventlog.ev_seq; R.Real e.Obs.Eventlog.ev_ts;
         R.Text e.Obs.Eventlog.ev_kind; R.Int e.Obs.Eventlog.ev_scope;
         (if e.Obs.Eventlog.ev_run >= 0 then R.Int e.Obs.Eventlog.ev_run else R.Null);
         R.Text (Obs.Json.to_string (Obs.Eventlog.event_to_json e)) |])
    (Obs.Eventlog.events ())

(* The scope tree in long format: one row per (scope, metric), with a
   placeholder row for scopes that have charged nothing yet, so every
   scope is visible.  After a metrics reset the children reappear with
   zeroed values — the scope tree itself survives the reset. *)
let scope_rows _db =
  List.concat_map
    (fun s ->
      let head =
        [| R.Int (Obs.Scope.id s); R.Int (Obs.Scope.parent_id s);
           R.Text (Obs.Scope.scope_name s); R.Int (Obs.Scope.depth s);
           R.Int (if Obs.Scope.is_live s then 1 else 0) |]
      in
      let with_metric tail = Array.append head tail in
      match Obs.Scope.metric_items s with
      | [] -> [ with_metric [| R.Null; R.Null; R.Null |] ]
      | items ->
        List.map
          (fun (name, m) ->
            match m with
            | Obs.Metrics.M_counter c ->
              with_metric
                [| R.Text name; R.Text "counter"; R.Int (Obs.Metrics.Counter.get c) |]
            | Obs.Metrics.M_gauge g ->
              with_metric
                [| R.Text name; R.Text "gauge"; R.Real (Obs.Metrics.Gauge.get g) |]
            | Obs.Metrics.M_histogram h ->
              with_metric
                [| R.Text name; R.Text "histogram";
                   R.Int (Obs.Metrics.Histogram.count h) |])
          items)
    (Obs.Scope.scopes ())

(* The (scope, table, snapshot) page-read heat matrix.  Root rows
   (scope_id = 0) partition storage.page_reads exactly; child rows
   re-attribute subsets of the same reads to their scopes.  snapshot -1
   is the current state; table '-' is work outside any table scan
   (catalog, indexes, WAL replay). *)
let heat_rows _db =
  List.concat_map
    (fun s ->
      List.map
        (fun ((tbl, snap), db_reads, pagelog_reads) ->
          [| R.Int (Obs.Scope.id s); R.Text (Obs.Scope.scope_name s);
             R.Text (if tbl = "" then "-" else tbl); R.Int snap;
             R.Int db_reads; R.Int pagelog_reads;
             R.Int (db_reads + pagelog_reads) |])
        (Obs.Scope.heat_items s))
    (Obs.Scope.scopes ())

(* Live and recently finished RQL runs, oldest first (bounded
   retention). *)
let progress_rows _db =
  List.map
    (fun (p : Obs.Progress.t) ->
      [| R.Int p.Obs.Progress.pr_id; R.Text p.Obs.Progress.pr_mechanism;
         R.Text p.Obs.Progress.pr_detail; R.Int p.Obs.Progress.pr_scope;
         R.Text (Obs.Progress.status_to_string p.Obs.Progress.pr_status);
         R.Int p.Obs.Progress.pr_done; R.Int p.Obs.Progress.pr_total;
         R.Int p.Obs.Progress.pr_pages; R.Real p.Obs.Progress.pr_elapsed;
         R.Real p.Obs.Progress.pr_eta;
         R.Int (if p.Obs.Progress.pr_cancel then 1 else 0) |])
    (Obs.Progress.runs ())

(* Long format: one row per (sample, metric), so SQL can slice a single
   metric's trajectory with WHERE name = '...'. *)
let timeseries_rows _db =
  List.concat_map
    (fun (s : Obs.Timeseries.sample) ->
      List.map
        (fun (name, v) ->
          [| R.Int s.Obs.Timeseries.seq; R.Real s.Obs.Timeseries.ts; R.Text name; R.Real v |])
        s.Obs.Timeseries.values)
    (Obs.Timeseries.samples ())

(* --- registry ---------------------------------------------------------- *)

let all : vtable list =
  [ { vname = "sys_metrics";
      vcols = [| ("name", "TEXT"); ("kind", "TEXT"); ("value", "REAL") |];
      vrows = metrics_rows };
    { vname = "sys_histograms";
      vcols =
        [| ("name", "TEXT"); ("count", "INTEGER"); ("mean", "REAL"); ("p50", "REAL");
           ("p95", "REAL"); ("p99", "REAL"); ("min", "REAL"); ("max", "REAL") |];
      vrows = histogram_rows };
    { vname = "sys_spans";
      vcols =
        [| ("seq", "INTEGER"); ("id", "INTEGER"); ("parent", "INTEGER");
           ("tid", "INTEGER"); ("name", "TEXT"); ("ts_us", "REAL"); ("dur_us", "REAL") |];
      vrows = span_rows };
    { vname = "sys_snapshots";
      vcols =
        [| ("snap_id", "INTEGER"); ("declared_ts", "REAL"); ("maplog_boundary", "INTEGER");
           ("db_pages", "INTEGER"); ("pages_mapped", "INTEGER");
           ("delta_entries", "INTEGER"); ("delta_pages", "INTEGER");
           ("delta_bytes", "INTEGER"); ("spt_cached", "INTEGER");
           ("damaged", "INTEGER"); ("status", "TEXT");
           ("reclaimable_bytes", "INTEGER") |];
      vrows = snapshot_rows };
    { vname = "sys_archive";
      vcols =
        [| ("snapshots_declared", "INTEGER"); ("snapshots_live", "INTEGER");
           ("first_live", "INTEGER"); ("pagelog_blocks", "INTEGER");
           ("pagelog_bytes", "INTEGER"); ("maplog_entries", "INTEGER");
           ("checkpoint_seq", "INTEGER"); ("checkpoint_threshold", "INTEGER");
           ("wal_since_checkpoint", "INTEGER") |];
      vrows = archive_rows };
    { vname = "sys_cache";
      vcols =
        [| ("name", "TEXT"); ("capacity", "INTEGER"); ("occupancy", "INTEGER");
           ("hits", "INTEGER"); ("misses", "INTEGER"); ("evictions", "INTEGER") |];
      vrows = cache_rows };
    { vname = "sys_tables";
      vcols =
        [| ("name", "TEXT"); ("kind", "TEXT"); ("root", "INTEGER");
           ("pages", "INTEGER"); ("rows", "INTEGER") |];
      vrows = table_rows };
    { vname = "sys_plans";
      vcols =
        [| ("size", "INTEGER"); ("hits", "INTEGER"); ("misses", "INTEGER");
           ("invalidations", "INTEGER"); ("generation", "INTEGER");
           ("delta_safe", "INTEGER") |];
      vrows = plan_rows };
    { vname = "sys_sessions";
      vcols =
        [| ("session_id", "INTEGER"); ("prepared", "INTEGER"); ("plans", "INTEGER");
           ("hits", "INTEGER"); ("misses", "INTEGER"); ("invalidations", "INTEGER");
           ("scope_id", "INTEGER"); ("current", "INTEGER") |];
      vrows = session_rows };
    { vname = "sys_statements";
      vcols =
        [| ("fingerprint", "TEXT"); ("query", "TEXT"); ("calls", "INTEGER");
           ("rows", "INTEGER"); ("total_s", "REAL"); ("mean_s", "REAL");
           ("max_s", "REAL"); ("plan_hits", "INTEGER") |];
      vrows = statement_rows };
    { vname = "sys_events";
      vcols =
        [| ("seq", "INTEGER"); ("ts", "REAL"); ("kind", "TEXT");
           ("scope_id", "INTEGER"); ("rql_run", "INTEGER"); ("event", "TEXT") |];
      vrows = event_rows };
    { vname = "sys_scopes";
      vcols =
        [| ("scope_id", "INTEGER"); ("parent", "INTEGER"); ("name", "TEXT");
           ("depth", "INTEGER"); ("live", "INTEGER"); ("metric", "TEXT");
           ("kind", "TEXT"); ("value", "REAL") |];
      vrows = scope_rows };
    { vname = "sys_heat";
      vcols =
        [| ("scope_id", "INTEGER"); ("scope", "TEXT"); ("table_name", "TEXT");
           ("snapshot", "INTEGER"); ("db_reads", "INTEGER");
           ("pagelog_reads", "INTEGER"); ("reads", "INTEGER") |];
      vrows = heat_rows };
    { vname = "sys_progress";
      vcols =
        [| ("run_id", "INTEGER"); ("mechanism", "TEXT"); ("detail", "TEXT");
           ("scope_id", "INTEGER"); ("status", "TEXT");
           ("iterations_done", "INTEGER"); ("iterations_total", "INTEGER");
           ("pages_read", "INTEGER"); ("elapsed_s", "REAL"); ("eta_s", "REAL");
           ("cancel_requested", "INTEGER") |];
      vrows = progress_rows };
    { vname = "sys_timeseries";
      vcols = [| ("seq", "INTEGER"); ("ts", "REAL"); ("name", "TEXT"); ("value", "REAL") |];
      vrows = timeseries_rows } ]

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun vt -> vt.vname = name) all

let names () = List.map (fun vt -> vt.vname) all

let is_virtual_name name = find name <> None

(* The whole sys_ prefix is reserved, so that tables added here later
   cannot collide with user tables created under older versions. *)
let is_reserved_name name =
  let l = String.lowercase_ascii name in
  String.length l >= 4 && String.sub l 0 4 = "sys_"

(* The planner-facing catalog entry: same shape as a real table, with
   the sentinel heap.  Virtual tables never have indexes, so every
   index-based access path naturally passes them by. *)
let table_of (vt : vtable) : Catalog.table =
  { Catalog.tname = vt.vname; tcols = vt.vcols; theap = virtual_heap }

let lookup name = Option.map table_of (find name)

(* Rows for a virtual catalog entry (the executor's scan dispatcher). *)
let rows db (tbl : Catalog.table) : R.row list =
  match find tbl.Catalog.tname with
  | Some vt -> vt.vrows db
  | None ->
    invalid_arg (Printf.sprintf "Systables.rows: %s is not a system table" tbl.Catalog.tname)
