(* Public SQL engine API: parse and execute statements against a
   database handle, in the style of the sqlite3 C API the paper builds
   on.  [exec_rows] is the analogue of sqlite3_exec: it invokes a
   callback for every result row.  RQL mechanisms process
   snapshot-query output the same way, through [prepared_stream]. *)

module R = Storage.Record
open Ast

exception Error = Sql_error.Error

(* A dispatch invariant was violated — a bug in the engine, not a user
   error; carries the statement kind that reached the wrong handler. *)
exception Internal_error of string

let error = Sql_error.error

type db = Db.t

type result = {
  columns : string array;
  rows : R.row list;
  rows_affected : int;
  snapshot : int option; (* id returned by COMMIT WITH SNAPSHOT *)
}

let empty_result = { columns = [||]; rows = []; rows_affected = 0; snapshot = None }

let create = Db.create
let register_fn = Db.register_fn

(* --- DDL ------------------------------------------------------------- *)

let sanitize_cols cols =
  let seen = Hashtbl.create 8 in
  List.mapi
    (fun i (name, ty) ->
      let name = if name = "" then Printf.sprintf "column_%d" (i + 1) else name in
      let key = String.lowercase_ascii name in
      let name =
        if Hashtbl.mem seen key then Printf.sprintf "%s_%d" name (i + 1) else name
      in
      Hashtbl.replace seen (String.lowercase_ascii name) ();
      (name, ty))
    cols

let check_not_reserved name =
  if Systables.is_reserved_name name then
    error "%s: the sys_ prefix is reserved for system tables" name

let check_not_virtual name =
  if Systables.is_virtual_name name then error "%s is a read-only system table" name

let create_table db ~name ~cols ~if_not_exists =
  check_not_reserved name;
  let cat = Db.catalog db in
  match Catalog.find_table cat name with
  | Some _ ->
    if if_not_exists then None
    else error "table %s already exists" name
  | None ->
    if cols = [] then error "table %s must have at least one column" name;
    let tbl =
      Db.with_write_txn db (fun txn ->
          let heap = Storage.Heap.create txn in
          let tbl =
            { Catalog.tname = name;
              tcols = Array.of_list (sanitize_cols cols);
              theap = Storage.Heap.first_page heap }
          in
          Catalog.add_table txn tbl;
          tbl)
    in
    Db.schema_changed db;
    Some tbl

(* The one index build: create index [name] on [table]'s [columns] in
   one write transaction and fill it from [entries txn tbl ~want ~key],
   every row's [(key row, rid)], where a row need hold only the columns
   [want] marks; then one sort (cheap when the rows come nearly in key
   order) and one bottom-up build. *)
let build_index db ~name ~table ~columns ~if_not_exists entries =
  let cat = Db.catalog db in
  match Catalog.find_index cat name with
  | Some _ -> if if_not_exists then () else error "index %s already exists" name
  | None ->
    let tbl =
      match Catalog.find_table cat table with
      | Some t -> t
      | None -> error "no such table: %s" table
    in
    let pos = Array.of_list (List.map (Planner.col_pos tbl) columns) in
    let want = Array.make (Array.length tbl.Catalog.tcols) false in
    Array.iter (fun i -> want.(i) <- true) pos;
    Db.with_write_txn db (fun txn ->
        let bt = Storage.Btree.create txn in
        let idx =
          { Catalog.iname = name; itable = tbl.Catalog.tname; icols = columns;
            iroot = Storage.Btree.root bt }
        in
        Catalog.add_index txn idx;
        let entries = entries txn tbl ~want ~key:(Exec.fitting_key tbl pos) in
        Storage.Btree.sort entries;
        Storage.Btree.build txn bt entries);
    Db.schema_changed db

(* CREATE INDEX: the entries come from one scan of the table decoding
   only the key columns. *)
let create_index db ~name ~table ~columns ~if_not_exists =
  build_index db ~name ~table ~columns ~if_not_exists (fun txn tbl ~want ~key ->
      let entries = ref [] in
      Storage.Heap.iter_spans (Storage.Txn.read_ctx txn)
        (Storage.Heap.open_existing tbl.Catalog.theap) ~f:(fun rid p off len ->
          entries := (key (R.decode_cols want p ~off ~len), rid) :: !entries);
      Array.of_list (List.rev !entries))

let create_index_of_rows db ~name ~table ~columns rows =
  build_index db ~name ~table ~columns ~if_not_exists:false (fun _ _ ~want:_ ~key ->
      Array.map (fun (row, rid) -> (key row, rid)) rows)

let drop_table db ~name ~if_exists =
  let cat = Db.catalog db in
  match Catalog.find_table cat name with
  | None -> if if_exists then 0 else error "no such table: %s" name
  | Some tbl ->
    Db.with_write_txn db (fun txn ->
        List.iter
          (fun idx ->
            Storage.Btree.drop txn (Storage.Btree.open_existing idx.Catalog.iroot);
            ignore (Catalog.remove_index cat txn idx.Catalog.iname))
          (Catalog.indexes_of_table cat tbl.Catalog.tname);
        Storage.Heap.drop txn (Storage.Heap.open_existing tbl.Catalog.theap);
        ignore (Catalog.remove_table cat txn name));
    Db.drop_heap_handle db tbl.Catalog.theap;
    Db.schema_changed db;
    1

let drop_index db ~name ~if_exists =
  let cat = Db.catalog db in
  match Catalog.find_index cat name with
  | None -> if if_exists then 0 else error "no such index: %s" name
  | Some idx ->
    Db.with_write_txn db (fun txn ->
        Storage.Btree.drop txn (Storage.Btree.open_existing idx.Catalog.iroot);
        ignore (Catalog.remove_index cat txn name));
    Db.schema_changed db;
    1

(* --- statement dispatch ---------------------------------------------- *)

let c_statements = Obs.Scope.counter "sql.statements"
let h_parse = Obs.Scope.histogram "sql.parse_latency"
let h_stmt = Obs.Scope.histogram "sql.stmt_latency"
let c_plan_hits = Obs.Scope.counter "sql.plan_cache_hits"
let c_plan_misses = Obs.Scope.counter "sql.plan_cache_misses"
let c_plan_invalidations = Obs.Scope.counter "sql.plan_cache_invalidations"
let c_analyzer_errors = Obs.Scope.counter "sql.analyzer_errors"
let c_analyzer_warnings = Obs.Scope.counter "sql.analyzer_warnings"

(* --- static analysis gate --------------------------------------------- *)

let has_fn db name = Db.lookup_fn db name <> None

(* Run the static analyzer over a parsed statement.  [sql] — the
   statement text, when the caller has it — lets diagnostics carry
   source positions. *)
let analyze_stmt db ?sql ?(mode = Analyzer.Stmt) (s : stmt) : Diag.t list =
  Analyzer.analyze ?sql ~cat:(Db.catalog db) ~has_fn:(has_fn db) ~mode s

let count_and_raise (diags : Diag.t list) : unit =
  List.iter
    (fun d ->
      Obs.Scope.incr
        (if Diag.is_error d then c_analyzer_errors else c_analyzer_warnings))
    diags;
  match List.filter Diag.is_error diags with
  | [] -> ()
  | errs -> raise (Error (String.concat "; " (List.map Diag.to_string errs)))

(* The hard gate every execution path passes through: warnings are
   counted, errors are counted and raised before any planning or page
   access.  EXPLAIN LINT is exempt — its job is to report, not
   refuse. *)
let analyzer_gate db ?sql ?mode (s : stmt) : unit =
  match s with
  | Explain_lint _ -> ()
  | _ -> count_and_raise (analyze_stmt db ?sql ?mode s)

(* Keep a runaway statement generator (e.g. textual SQL with inlined
   constants) from growing the cache without bound. *)
let plan_cache_cap = 512

(* PRAGMA optimize: cached plans were built under the old setting, so a
   change drops them and the next use replans under the new one. *)
let set_optimize db on =
  if db.Db.optimize <> on then Hashtbl.reset db.Db.plan_cache;
  db.Db.optimize <- on

(* Optimizer diagnostics (W2xx) for lint paths: the warnings of planning
   the select against the current catalog.  Planning failures are the
   analyzer's department, not lint's, so any error here just yields no
   extra diagnostics. *)
let opt_diags db (s : stmt) : Diag.t list =
  match s with
  | Select sel | Explain sel | Explain_analyze sel | Explain_profile sel -> (
    match snd (Opt.plan db ~cat:(Db.catalog db) sel) with
    | ds -> ds
    | exception Error _ -> [])
  | _ -> []

(* Plan [sel] for execution against [env], through the per-handle plan
   cache when [key] (normally the statement text) is given.  A cache
   entry is valid while the handle's catalog generation is unchanged;
   DDL and rollback advance the generation, so stale plans re-plan on
   next use and are counted as invalidations.  Cached plans are
   optimized ones ([Opt.plan]). *)
let plan_for db ?key (env : Exec.env) (sel : select) : Plan.t =
  let build () = fst (Opt.plan db ~cat:env.Exec.cat sel) in
  match key with
  | None -> build ()
  | Some key -> (
    let store p =
      if Hashtbl.length db.Db.plan_cache >= plan_cache_cap then Hashtbl.reset db.Db.plan_cache;
      Hashtbl.replace db.Db.plan_cache key { Plan.cp_plan = p; cp_gen = Db.generation db };
      p
    in
    match Hashtbl.find_opt db.Db.plan_cache key with
    | Some c when c.Plan.cp_gen = Db.generation db ->
      Obs.Scope.incr c_plan_hits;
      db.Db.plan_hits <- db.Db.plan_hits + 1;
      c.Plan.cp_plan
    | Some _ ->
      Obs.Scope.incr c_plan_invalidations;
      db.Db.plan_invalidations <- db.Db.plan_invalidations + 1;
      store (build ())
    | None ->
      Obs.Scope.incr c_plan_misses;
      db.Db.plan_misses <- db.Db.plan_misses + 1;
      store (build ()))

(* Plan (or fetch the cached plan), bind [params], and stream.  The
   environment is resolved first — binding the AS OF expression alone —
   so the same compiled plan executes against the current state or any
   snapshot. *)
let run_select db ?key ?(params = [||]) ?incr (sel : select) :
    string array * ((R.row -> unit) -> unit) =
  let env =
    match sel.as_of with
    | None -> Exec.current_env db
    | Some e -> Exec.env_of_as_of db (Plan.bind_expr params e)
  in
  let plan = plan_for db ?key env sel in
  match incr with
  | Some inc when env.Exec.as_of <> None && Incr.eligible inc plan ->
    Incr.eval inc env ~cached:plan (Plan.bind params plan)
  | Some inc ->
    Incr.note_plain inc;
    Exec.stream_plan env (Plan.bind params plan)
  | None -> Exec.stream_plan env (Plan.bind params plan)

let collect (columns, run) =
  let rows = ref [] in
  run (fun r -> rows := r :: !rows);
  { empty_result with columns; rows = List.rev !rows }

(* Does this select call a handle-registered UDF anywhere (including
   subqueries)?  A UDF body is arbitrary code — the RQL mechanisms
   registered on the meta database create and commit tables — so such a
   select cannot hold the statement-level read lock: its inner commits
   take the same lock in write mode and would deadlock on the
   statement's own read hold. *)
let select_calls_udf db (sel : select) =
  let found = ref false in
  ignore
    (Expr.map_select
       (fun e ->
         (match e with
          | Call (n, _) when Db.is_udf db n -> found := true
          | _ -> ());
         e)
       sel);
  !found

(* Statements that never mutate committed pages run as readers of the
   pager's rwlock, so concurrent sessions can overlap them; mutating
   statements take the lock in write mode inside Txn.commit (holding a
   read lock across a whole write statement would self-deadlock at its
   own commit).  The lock is reader-preferring, so the nested read
   sections this classification produces (e.g. a prepared statement
   evaluated inside a read statement) are safe. *)
let stmt_takes_read_lock db = function
  | Select s | Explain_profile s | Explain_analyze s -> not (select_calls_udf db s)
  | Explain _ | Explain_lint _ | Analyze_archive | Pragma _ -> true
  (* A dry-run vacuum only reads the archive; a live one (and a
     checkpoint) takes the write lock itself inside Db. *)
  | Vacuum_snapshots { dry_run; _ } -> dry_run
  | Insert _ | Delete _ | Update _ | Create_table _ | Create_index _
  | Drop_table _ | Drop_index _ | Begin_txn | Commit _ | Rollback
  | Checkpoint -> false

(* Run [f] holding the pager's read lock when [read_lock] (the verdict
   of [stmt_takes_read_lock]) asks for it. *)
let locked db ~read_lock f =
  if read_lock then Storage.Pager.with_read_lock db.Db.pager f else f ()

let stmt_kind = function
  | Select _ -> "select"
  | Explain _ -> "explain"
  | Explain_profile _ -> "explain_profile"
  | Explain_analyze _ -> "explain_analyze"
  | Explain_lint _ -> "explain_lint"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Update _ -> "update"
  | Create_table _ -> "create_table"
  | Create_index _ -> "create_index"
  | Drop_table _ -> "drop_table"
  | Drop_index _ -> "drop_index"
  | Begin_txn -> "begin"
  | Commit _ -> "commit"
  | Rollback -> "rollback"
  | Analyze_archive -> "analyze_archive"
  | Vacuum_snapshots _ -> "vacuum_snapshots"
  | Checkpoint -> "checkpoint"
  | Pragma _ -> "pragma"

let parse_one sql =
  Exec_stats.time_into (fun dt -> Obs.Scope.observe h_parse dt) (fun () ->
      Parser.parse_one sql)

let parse_many sql =
  Exec_stats.time_into (fun dt -> Obs.Scope.observe h_parse dt) (fun () ->
      Parser.parse_many sql)

(* The table a DML statement writes, with the current-state environment
   it is read and written through. *)
let dml_target db table =
  check_not_virtual table;
  let env = Exec.current_env db in
  match Catalog.find_table env.Exec.cat table with
  | Some tbl -> (env, tbl)
  | None -> error "no such table: %s" table

(* Append [rows] to [tbl] in one write transaction.  Every row is
   measured before the first is stored, so a row that cannot be stored
   fails the statement with none of its rows written, also inside an
   explicit transaction. *)
let insert_rows db env tbl rows =
  let n =
    Db.with_write_txn db (fun txn ->
        let w = Exec.writer env tbl in
        let encoded = List.map (Exec.measure w) rows in
        List.iter (fun e -> ignore (Exec.insert_encoded txn w e)) encoded;
        List.length rows)
  in
  { empty_result with rows_affected = n }

let run_insert db (i : stmt) =
  match i with
  | Insert { table; columns; values; from_select } ->
    let env, tbl = dml_target db table in
    let ncols = Array.length tbl.Catalog.tcols in
    let positions =
      match columns with
      | None -> Array.init ncols (fun i -> i)
      | Some cols -> Array.of_list (List.map (Planner.col_pos tbl) cols)
    in
    let make_row (vals : R.value list) =
      if List.length vals <> Array.length positions then
        error "INSERT expects %d values, got %d" (Array.length positions) (List.length vals);
      let row = Array.make ncols R.Null in
      List.iteri (fun i v -> row.(positions.(i)) <- v) vals;
      row
    in
    let rows =
      match from_select with
      | None ->
        let fnctx = Db.fn_ctx db in
        List.map
          (fun exprs ->
            make_row
              (List.map (fun e -> Expr.eval_const fnctx (Exec.expand_sub env e)) exprs))
          values
      | Some sel ->
        let senv = Exec.env_of_select db sel in
        let _, rows = Exec.select_all senv sel in
        List.map (fun r -> make_row (Array.to_list r)) rows
    in
    insert_rows db env tbl rows
  | s -> raise (Internal_error ("run_insert dispatched on " ^ stmt_kind s))

(* Execute one statement.  With [sink], a SELECT pushes its rows to it
   instead of collecting them; the result then keeps only their count,
   as [rows_affected]. *)
let run_stmt_core db ?key ?params ?sink (s : stmt) : result =
  match s with
  | Select sel -> (
    let header, run = run_select db ?key ?params sel in
    match sink with
    | None -> collect (header, run)
    | Some f ->
      let n = ref 0 in
      run (fun row ->
          incr n;
          f header row);
      { empty_result with columns = header; rows_affected = !n })
  | Explain sel ->
    (* Render the real plan tree (the one execution would use), built
       fresh against the statement's environment. *)
    let env = Exec.env_of_select db sel in
    let plan = fst (Opt.plan db ~cat:env.Exec.cat sel) in
    { empty_result with
      columns = [| "detail" |];
      rows = List.map (fun n -> [| R.Text n |]) (Plan.render plan) }
  | Explain_analyze sel ->
    (* Execute the statement with operator instrumentation on, then
       render the plan tree annotated with the recorded actuals.  The
       plan is built fresh (not through the cache), so its slots start
       at zero and the actuals belong to exactly this execution. *)
    let env0 = Exec.env_of_select db sel in
    let plan = fst (Opt.plan db ~cat:env0.Exec.cat sel) in
    let was = db.Db.analyze in
    db.Db.analyze <- true;
    let env = { env0 with Exec.analyze = true } in
    let t0 = Unix.gettimeofday () in
    let n_rows =
      Fun.protect
        ~finally:(fun () -> db.Db.analyze <- was)
        (fun () ->
          let _, run = Exec.stream_plan env plan in
          let n = ref 0 in
          run (fun _ -> incr n);
          !n)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let az =
      { Plan.az_sql = (match key with Some k -> k | None -> "");
        az_rows = n_rows;
        az_elapsed_s = dt;
        az_snapshot = env.Exec.as_of;
        az_ops = Plan.actuals plan }
    in
    db.Db.last_analysis <- Some az;
    let lines =
      Printf.sprintf "%d row%s in %.3f ms%s" n_rows
        (if n_rows = 1 then "" else "s")
        (dt *. 1e3)
        (match env.Exec.as_of with
        | Some sid -> Printf.sprintf " (AS OF %d)" sid
        | None -> "")
      :: Plan.render_analyzed plan
    in
    { empty_result with
      columns = [| "detail" |];
      rows = List.map (fun l -> [| R.Text l |]) lines }
  | Explain_profile sel ->
    (* Run the statement with tracing forced on, in a metric scope of its
       own under the session's, then report the spans under its
       [statement] span and that scope's counters: other sessions' work
       shows in neither.  Planning goes through the plan cache, so
       repeated profiles show plan-cache hits like normal execution. *)
    let was = Obs.Trace.is_enabled () in
    Obs.Trace.set_enabled true;
    let m = Obs.Trace.mark () in
    let sc = Obs.Scope.create ~parent:db.Db.scope "explain_profile" in
    let stmt_span = ref (-1) in
    let t0 = Unix.gettimeofday () in
    let n_rows =
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled was; Obs.Scope.drop sc)
        (fun () ->
          Obs.Scope.with_scope sc (fun () ->
              Obs.Trace.with_span ~name:"statement" (fun () ->
                  stmt_span := Obs.Trace.current_parent ();
                  let _, run = run_select db ?key sel in
                  let n = ref 0 in
                  run (fun _ -> incr n);
                  !n)))
    in
    let dt = Unix.gettimeofday () -. t0 in
    let tree = Obs.Trace.render_tree (Obs.Trace.subtree !stmt_span (Obs.Trace.spans_since m)) in
    let counter = function Obs.Metrics.(k, M_counter c) when c.v <> 0 -> Some (k, c.v) | _ -> None in
    let deltas = List.filter_map counter (Obs.Scope.metric_items sc) in
    (* plan provenance always shows, even when a delta is zero *)
    let ensure name ds = if List.mem_assoc name ds then ds else ds @ [ (name, 0) ] in
    let deltas =
      List.sort compare (ensure "sql.plans_built" (ensure "sql.plan_cache_hits" deltas))
    in
    let lines =
      (Printf.sprintf "%d row%s in %.3f ms" n_rows (if n_rows = 1 then "" else "s") (dt *. 1e3)
      :: tree)
      @ ("-- counter deltas --"
        :: List.map (fun (k, v) -> Printf.sprintf "%-36s %+d" k v) deltas)
    in
    { empty_result with
      columns = [| "profile" |];
      rows = List.map (fun l -> [| R.Text l |]) lines }
  | Explain_lint inner ->
    (* Analyze and plan only — nothing executes.  Rendered as rows so
       every client (shell, exec, tests) consumes diagnostics like any
       other result set; zero rows means the statement is clean. *)
    let diags = analyze_stmt db ?sql:key inner @ opt_diags db inner in
    { empty_result with
      columns = [| "severity"; "code"; "pos"; "message" |];
      rows =
        List.map
          (fun (d : Diag.t) ->
            [| R.Text (Diag.severity_name d.Diag.severity);
               R.Text d.Diag.code;
               (match d.Diag.pos with
               | Some p -> R.Text (Lexer.pos_to_string p)
               | None -> R.Null);
               R.Text d.Diag.message |])
          diags }
  | Insert _ -> run_insert db s
  | Delete { table; where } ->
    let env, tbl = dml_target db table in
    let rows = Exec.matching_rows env tbl where in
    let n = Db.with_write_txn db (fun txn -> Exec.delete_rows txn (Exec.writer env tbl) rows) in
    { empty_result with rows_affected = n }
  | Update { table; sets; where } ->
    let env, tbl = dml_target db table in
    let rows = Exec.matching_rows env tbl where in
    let n = Db.with_write_txn db (fun txn -> Exec.update_rows env txn tbl sets rows) in
    { empty_result with rows_affected = n }
  | Create_table { table; cols; if_not_exists; as_select = None } ->
    ignore
      (create_table db ~name:table
         ~cols:(List.map (fun c -> (c.col_name, c.col_type)) cols)
         ~if_not_exists);
    empty_result
  | Create_table { table; if_not_exists; as_select = Some sel; _ } ->
    let senv = Exec.env_of_select db sel in
    let columns, rows = Exec.select_all senv sel in
    let cols = Array.to_list (Array.map (fun c -> (c, "")) columns) in
    (match create_table db ~name:table ~cols ~if_not_exists with
    | None -> empty_result
    | Some tbl -> insert_rows db (Exec.current_env db) tbl rows)
  | Create_index { index; table; columns; if_not_exists } ->
    create_index db ~name:index ~table ~columns ~if_not_exists;
    empty_result
  | Drop_table { table; if_exists } ->
    let n = drop_table db ~name:table ~if_exists in
    { empty_result with rows_affected = n }
  | Drop_index { index; if_exists } ->
    let n = drop_index db ~name:index ~if_exists in
    { empty_result with rows_affected = n }
  | Begin_txn ->
    Db.begin_txn db;
    empty_result
  | Commit { with_snapshot } ->
    let snapshot = Db.commit db ~snapshot:with_snapshot in
    { empty_result with snapshot }
  | Rollback ->
    Db.rollback db;
    empty_result
  | Analyze_archive ->
    (* Archive health report (also the producer behind sys_snapshots);
       rendered as rows so every client — shell, exec, RQL — can
       consume it like any other result set. *)
    let a = Retro.analyze (Db.retro_exn db) in
    { empty_result with
      columns = [| "analyze" |];
      rows = List.map (fun l -> [| R.Text l |]) (Retro.render_analysis a) }
  | Vacuum_snapshots { older_than; keeping_last; dry_run } ->
    let retro = Db.retro_exn db in
    let count = Retro.snapshot_count retro in
    if count = 0 then error "VACUUM SNAPSHOTS: no snapshots have been declared";
    let fl = Retro.first_live retro in
    let retention what e =
      match Expr.eval_const (Db.fn_ctx db) e with
      | R.Int n when n >= 1 -> n
      | _ -> error "VACUUM SNAPSHOTS %s must be a positive integer" what
    in
    (* Resolve retention to [keep_from], the oldest snapshot id kept.
       OLDER THAN n drops ids below n; KEEPING LAST n retains the n
       newest; bare VACUUM SNAPSHOTS keeps only the newest.  Already-
       vacuumed prefixes clamp to a no-op rather than erroring, so the
       statement is idempotent. *)
    let keep_from =
      match (older_than, keeping_last) with
      | Some e, _ ->
        let n = retention "OLDER THAN" e in
        if n > count then
          error "VACUUM SNAPSHOTS OLDER THAN %d: no such snapshot (newest is %d)"
            n count;
        max n fl
      | None, Some e ->
        let n = retention "KEEPING LAST" e in
        max (count - n + 1) fl
      | None, None -> count
    in
    if dry_run then begin
      (* Report only; per-candidate reclaimable space.  The estimate is
         exact: Pagelog blocks and Maplog entries are appended 1:1, so a
         snapshot's delta-entry count is precisely the blocks a live run
         reclaims for it. *)
      let rows =
        List.init (keep_from - fl) (fun i ->
            let sid = fl + i in
            let blocks = Retro.delta_entries retro sid in
            [| R.Int sid; R.Int blocks; R.Int (blocks * Storage.Page.size) |])
      in
      { empty_result with
        columns = [| "snapshot"; "blocks_reclaimable"; "bytes_reclaimable" |];
        rows }
    end
    else begin
      let res = Db.vacuum_snapshots db ~keep_from in
      { empty_result with
        columns = [| "snapshots_vacuumed"; "blocks_reclaimed"; "bytes_reclaimed" |];
        rows =
          [ [| R.Int res.Retro.vr_snapshots;
               R.Int res.Retro.vr_blocks;
               R.Int res.Retro.vr_bytes |] ] }
    end
  | Checkpoint ->
    let seq, dropped = Db.checkpoint db in
    { empty_result with
      columns = [| "checkpoint_seq"; "wal_truncated_bytes" |];
      rows = [ [| R.Int seq; R.Int dropped |] ] }
  | Pragma name -> (
    match String.lowercase_ascii name with
    | "integrity_check" ->
      (* One problem per row; a single "ok" row when healthy — so CI
         scripts can assert health in plain SQL. *)
      let problems = Integrity.check db in
      { empty_result with
        columns = [| "integrity_check" |];
        rows =
          (match problems with
          | [] -> [ [| R.Text "ok" |] ]
          | ps -> List.map (fun p -> [| R.Text p |]) ps) }
    | "optimize" ->
      { empty_result with
        columns = [| "optimize" |];
        rows = [ [| R.Text (if db.Db.optimize then "on" else "off") |] ] }
    | ("optimize=on" | "optimize=1" | "optimize=true" | "optimize=off" | "optimize=0"
      | "optimize=false") as kv ->
      (* Off also turns delta-driven RQL iterations off, whatever PRAGMA
         incremental says: the delta-safety verdict is the optimizer's,
         and an unoptimized plan carries none (DESIGN §16, §18). *)
      let on = match kv with
        | "optimize=on" | "optimize=1" | "optimize=true" -> true
        | _ -> false
      in
      set_optimize db on;
      { empty_result with
        columns = [| "optimize" |];
        rows = [ [| R.Text (if on then "on" else "off") |] ] }
    | "incremental" ->
      { empty_result with
        columns = [| "incremental" |];
        rows = [ [| R.Text (if db.Db.incremental then "on" else "off") |] ] }
    | ("incremental=on" | "incremental=1" | "incremental=true" | "incremental=off"
      | "incremental=0" | "incremental=false") as kv ->
      let on =
        match kv with "incremental=on" | "incremental=1" | "incremental=true" -> true | _ -> false
      in
      db.Db.incremental <- on;
      { empty_result with
        columns = [| "incremental" |];
        rows = [ [| R.Text (if on then "on" else "off") |] ] }
    | "checkpoint_threshold" ->
      { empty_result with
        columns = [| "checkpoint_threshold" |];
        rows = [ [| R.Int (Db.checkpoint_threshold db) |] ] }
    | s
      when String.length s > 21 && String.sub s 0 21 = "checkpoint_threshold=" -> (
      (* WAL bytes after which a commit triggers an auto-checkpoint;
         0 disables the trigger (the default). *)
      let v = String.sub s 21 (String.length s - 21) in
      match int_of_string_opt v with
      | Some n when n >= 0 ->
        Db.set_checkpoint_threshold db n;
        { empty_result with
          columns = [| "checkpoint_threshold" |];
          rows = [ [| R.Int n |] ] }
      | _ -> error "checkpoint_threshold must be a non-negative integer: %s" v)
    | other -> error "unknown pragma: %s" other)

(* --- per-statement observability -------------------------------------- *)

(* Rows a result stands for: returned rows for queries, affected rows
   for DML. *)
let result_rows (res : result) =
  if res.rows <> [] then List.length res.rows else res.rows_affected

(* Snapshot id of a statement's AS OF clause, when it is a constant
   (or parameter-bound) expression; None otherwise. *)
let as_of_sid db ?(params = [||]) (s : stmt) =
  match s with
  | Select sel | Explain_analyze sel -> (
    match sel.as_of with
    | None -> None
    | Some e -> (
      match Expr.eval_const (Db.fn_ctx db) (Plan.bind_expr params e) with
      | R.Int sid -> Some sid
      | _ | (exception Error _) -> None))
  | _ -> None

(* Post-execution accounting: fingerprint statistics for every keyed
   statement, and a structured slow-query event when the handle's
   threshold is set and exceeded.  Slow EXPLAIN ANALYZE statements
   carry a per-operator actuals summary (from [last_analysis]). *)
let observe_stmt db ?key ?(params = [||]) ~(s : stmt) ~plan_hit ~elapsed_s (res : result) =
  let rows = result_rows res in
  (match key with
  | Some sql -> Fingerprint.record ~sql ~rows ~elapsed_s ~plan_hit
  | None -> ());
  match db.Db.slow_query_s with
  | Some thr when elapsed_s >= thr ->
    let fields =
      [ ("statement", Obs.Json.Str (stmt_kind s));
        ("duration_ms", Obs.Json.Float (elapsed_s *. 1000.));
        ("rows", Obs.Json.Int rows) ]
      @ (match key with
        | Some sql ->
          let norm = Fingerprint.normalized_of sql in
          [ ("fingerprint", Obs.Json.Str (Fingerprint.fingerprint_of norm));
            ("query", Obs.Json.Str norm) ]
        | None -> [])
      @ (match as_of_sid db ~params s with
        | Some sid -> [ ("snapshot", Obs.Json.Int sid) ]
        | None -> [])
      @
      match (s, db.Db.last_analysis) with
      | Explain_analyze _, Some az ->
        [ ("ops", Obs.Json.List (List.map Plan.op_actual_to_json az.Plan.az_ops)) ]
      | _ -> []
    in
    Obs.Eventlog.log ~kind:"slow_query" fields
  | _ -> ()

(* The one statement wrapper: [exec], [exec_script], [exec_rows] and
   [exec_prepared] all run a statement through it, in this order: the
   handle's metric scope is made active (every counter increment, page
   read and slow-query event below is attributed to it); the analyzer
   gate raises on errors before any planning or page access (a prepared
   statement passed it when it was prepared: [~gated:true]); the
   statement is counted in [sql.statements] and a timeseries sample is
   ticked; its end-to-end latency goes to [sql.stmt_latency], inside a
   [sql.stmt] span when tracing is on; it runs under the read lock when
   [stmt_takes_read_lock] says so; and [observe_stmt] records it.  With
   [sink], a SELECT streams its rows to [sink]. *)
let run_stmt db ?key ?params ?sink ?(gated = false) (s : stmt) : result =
  Obs.Scope.with_scope db.Db.scope (fun () ->
      if not gated then analyzer_gate db ?sql:key s;
      Obs.Scope.incr c_statements;
      Obs.Timeseries.tick ();
      let hits0 = db.Db.plan_hits in
      let t0 = Unix.gettimeofday () in
      let res =
        Exec_stats.time_into
          (fun dt -> Obs.Scope.observe h_stmt dt)
          (fun () ->
            Obs.Trace.with_span ~name:"sql.stmt"
              ~attrs:[ ("kind", Obs.Trace.Str (stmt_kind s)) ]
              (fun () ->
                locked db ~read_lock:(stmt_takes_read_lock db s) (fun () ->
                    run_stmt_core db ?key ?params ?sink s)))
      in
      observe_stmt db ?key ?params ~s ~plan_hit:(db.Db.plan_hits > hits0)
        ~elapsed_s:(Unix.gettimeofday () -. t0)
        res;
      res)

(* Every statement failure already is [Error]; the two storage faults
   (payloads for the layers below) become the statement's error here. *)
let wrap_errors f =
  try f () with
  | Retro.Snapshot_damaged { snap_id; pl_off; reason } ->
    error
      "snapshot %d is damaged: archived page at pagelog offset %d unreadable (%s); current-state \
       queries and other snapshots are unaffected"
      snap_id pl_off reason
  | Storage.Disk.Corruption { device; block; detail } ->
    error "%s block %d is corrupt: %s" device block detail

(* Execute a single SQL statement.  SELECTs are planned through the
   plan cache keyed by the statement text. *)
let exec db sql : result = wrap_errors (fun () -> run_stmt db ~key:sql (parse_one sql))

(* Execute a script of semicolon-separated statements; returns the last
   statement's result.  A single-statement script keeps its text so
   diagnostics carry positions (a multi-statement script cannot: the
   per-statement offsets are lost in the split). *)
let exec_script db sql : result =
  wrap_errors (fun () ->
      match parse_many sql with
      | [ s ] -> run_stmt db ~key:sql s
      | stmts -> List.fold_left (fun _ s -> run_stmt db s) empty_result stmts)

(* sqlite3_exec analogue: stream result rows of a SELECT through [f].
   Non-SELECT statements execute normally and invoke [f] zero times. *)
let exec_rows db sql ~(f : string array -> R.row -> unit) : unit =
  wrap_errors (fun () -> ignore (run_stmt db ~key:sql ~sink:f (parse_one sql)))

(* --- prepared statements --------------------------------------------- *)

(* A prepared statement: parsed once, planned on first execution, and
   re-planned only when the schema generation moves.  Parameters ([?]
   placeholders, 0-based [Param] slots) are bound per execution with
   {!Plan.bind}, so one prepared statement can run against the current
   database or — when its AS OF is a parameter — any snapshot. *)
type prepared = {
  pr_db : db;
  pr_key : string; (* plan-cache key *)
  pr_sel : select;
}

(* Prepare passes the analyzer gate once; executions skip it.  [sql],
   the text [sel] was parsed from, lets diagnostics carry positions. *)
let prepare_sel db ?sql ~key (sel : select) : prepared =
  analyzer_gate db ?sql (Select sel);
  Db.note_prepared db;
  { pr_db = db; pr_key = key; pr_sel = sel }

let prepare_select db ~key sel = prepare_sel db ~key sel

let prepared_db (p : prepared) = p.pr_db

let prepare db sql : prepared =
  wrap_errors (fun () ->
      match parse_one sql with
      | Select sel -> prepare_sel db ~sql ~key:sql sel
      | _ -> error "only SELECT statements can be prepared")

(* Stream a prepared statement's rows.  Unlike every other entry point
   this does no statement accounting (no [sql.statements], latency,
   span or [sys_statements] record): its caller is the RQL snapshot
   loop, which accounts each evaluation as an iteration
   ([Rql.Iter_stats]) instead.  It still takes the read lock by
   [stmt_takes_read_lock]'s rule.  Both planning and the returned runner
   activate the handle's scope — the runner is invoked later, outside
   this call.  With [incr], a delta-safe AS OF statement runs through
   that incremental evaluator (the RQL snapshot loop passes one per
   run); {!Incr.last} then tells what the evaluation reused. *)
let prepared_stream ?(params = [||]) ?incr (p : prepared) :
    string array * ((R.row -> unit) -> unit) =
  wrap_errors (fun () ->
      let db = p.pr_db in
      let read_lock = stmt_takes_read_lock db (Select p.pr_sel) in
      let header, run =
        Obs.Scope.with_scope db.Db.scope (fun () ->
            locked db ~read_lock (fun () ->
                run_select db ~key:p.pr_key ~params ?incr p.pr_sel))
      in
      ( header,
        fun f ->
          Obs.Scope.with_scope db.Db.scope (fun () -> locked db ~read_lock (fun () -> run f)) ))

(* Execute a prepared statement with full statement accounting, like
   [exec] minus the parse. *)
let exec_prepared ?(params = [||]) (p : prepared) : result =
  wrap_errors (fun () ->
      run_stmt p.pr_db ~key:p.pr_key ~params ~gated:true (Select p.pr_sel))

(* Parse a single statement (timed into sql.parse_latency) without
   executing it; used by callers that prepare from a larger text. *)
let parse sql : stmt = wrap_errors (fun () -> parse_one sql)

(* --- static analysis entry points ------------------------------------- *)

(* Parse and analyze one statement without executing it: the shell's
   .lint; EXPLAIN LINT renders the same analysis as rows.  Does not
   touch the analyzer counters (only the execution gate does). *)
let analyze db sql : Diag.t list =
  wrap_errors (fun () ->
      match parse_one sql with
      | Explain_lint inner -> analyze_stmt db ~sql inner @ opt_diags db inner
      | s -> analyze_stmt db ~sql s @ opt_diags db s)

(* RQL front doors: validate a Qq / Qs before the loop touches any
   snapshot.  Errors raise with E-coded, positioned diagnostics and
   count into sql.analyzer_errors.  The parse here is analysis-only —
   the loop parses the statement again on its execution path — so it
   stays out of the sql.parse_latency histogram to keep that metric a
   count of executed-statement parses. *)
let analyze_qq db sql : unit =
  wrap_errors (fun () ->
      count_and_raise (analyze_stmt db ~sql ~mode:Analyzer.Qq (Parser.parse_one sql)))

let analyze_qs db sql : unit =
  wrap_errors (fun () ->
      count_and_raise
        (Analyzer.analyze_qs ~sql ~cat:(Db.catalog db) ~has_fn:(has_fn db)
           (Parser.parse_one sql)))

(* Convenience accessors used by tests and examples. *)
let query db sql : R.row list = (exec db sql).rows

let query_one db sql : R.row =
  match (exec db sql).rows with
  | [ r ] -> r
  | rows -> error "expected exactly one row, got %d" (List.length rows)

let scalar db sql : R.value =
  match query_one db sql with
  | [| v |] -> v
  | r -> error "expected a single column, got %d" (Array.length r)

let int_scalar db sql : int =
  match scalar db sql with
  | R.Int i -> i
  | v -> error "expected an integer, got %s" (R.value_to_string v)

(* --- observability accessors ------------------------------------------- *)

(* The most recent instrumented (EXPLAIN ANALYZE) run on this handle. *)
let last_analysis db : Plan.analysis option = db.Db.last_analysis

(* Slow-query log threshold in seconds; None disables slow logging. *)
let set_slow_query_threshold db thr = db.Db.slow_query_s <- thr
let slow_query_threshold db = db.Db.slow_query_s

(* Master switch for per-operator plan instrumentation on this handle.
   EXPLAIN ANALYZE and analyzed RQL runs flip it for their duration;
   leaving it on instruments every subsequent execution. *)
let set_analyze db on = db.Db.analyze <- on

(* The plan currently cached for [key], when present and fresh.  Gives
   structural access to accumulated operator actuals of prepared /
   repeated statements (an analyzed RQL run's [Iter_stats.run.ops] reads
   the actuals of its Qq plan here). *)
let cached_plan db ~key : Plan.t option =
  match Hashtbl.find_opt db.Db.plan_cache key with
  | Some c when c.Plan.cp_gen = Db.generation db -> Some c.Plan.cp_plan
  | _ -> None
