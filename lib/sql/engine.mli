(** Public SQL engine API, in the style of the sqlite3 C API the paper
    builds on: parse and execute statements against a database handle;
    {!exec_rows} is the analogue of [sqlite3_exec], invoking a callback
    per result row; the RQL loop streams a prepared Qq's rows the same
    way ({!prepared_stream}).

    The dialect covers the SQLite subset the paper's programs need plus
    Retro's extensions: SELECT with joins (incl. LEFT JOIN), GROUP
    BY/HAVING, ORDER BY/LIMIT/OFFSET, DISTINCT, UNION [ALL],
    (uncorrelated) subqueries, CAST, aggregate and scalar functions,
    DML, DDL, EXPLAIN (plus EXPLAIN PROFILE / ANALYZE / LINT),
    [SELECT AS OF sid] and [COMMIT WITH SNAPSHOT]. *)

(** Every statement failure: {!Sql_error.Error} under its public name. *)
exception Error of string

(** Raised when an internal dispatch invariant is violated (a bug in
    the engine, not a user error); carries the statement kind that
    reached the wrong handler. *)
exception Internal_error of string

type db = Db.t

type result = {
  columns : string array;   (** header (empty for non-SELECT) *)
  rows : Storage.Record.row list;
  rows_affected : int;
  snapshot : int option;    (** id returned by COMMIT WITH SNAPSHOT *)
}

val empty_result : result

(** Create a database.  [snapshots:false] yields a non-snapshottable
    database (no Retro attached), as RQL uses for SnapIds and result
    tables. *)
val create : ?snapshots:bool -> unit -> db

(** Register (or replace) a scalar function / UDF. *)
val register_fn : db -> string -> (Storage.Record.row -> Storage.Record.value) -> unit

(** {1 Statement execution}

    {!exec}, {!exec_script}, {!exec_rows} and {!exec_prepared} run a
    statement the same way: the analyzer gate, one count in
    [sql.statements], a [sql.stmt_latency] sample, a [sql.stmt] span,
    the read lock for statements that only read, and a
    [sys_statements] record. *)

(** Execute a single SQL statement.
    @raise Error on parse, resolution or execution failure. *)
val exec : db -> string -> result

(** Execute a semicolon-separated script; returns the last statement's
    result. *)
val exec_script : db -> string -> result

(** [sqlite3_exec] analogue: stream result rows of a SELECT through
    [f header row]; non-SELECT statements execute normally and invoke
    [f] zero times. *)
val exec_rows : db -> string -> f:(string array -> Storage.Record.row -> unit) -> unit

(** {1 Prepared statements}

    A prepared statement is parsed once; its physical plan is built on
    first execution and reused until DDL (or a rollback) advances the
    handle's schema generation, at which point it is transparently
    re-planned.  [?] placeholders in the SQL become positional
    parameters bound at execution time — including in the [AS OF]
    position, so one prepared statement can run against any snapshot. *)

type prepared

(** Parse and prepare a single SELECT statement.
    @raise Error on parse failure or for non-SELECT statements. *)
val prepare : db -> string -> prepared

(** Prepare an already-parsed SELECT under an explicit plan-cache
    [key] (used by the RQL layer, which parameterizes Qq before preparing). *)
val prepare_select : db -> key:string -> Ast.select -> prepared

(** The session a statement was prepared on (and executes through). *)
val prepared_db : prepared -> db

(** Execute with [params] bound to the [?] placeholders in order.
    @raise Error if a referenced parameter has no binding. *)
val exec_prepared : ?params:Storage.Record.value array -> prepared -> result

(** Streaming variant of {!exec_prepared}: returns the header and a
    row-push runner.  It does no per-statement accounting on purpose:
    the RQL snapshot loop, its caller, accounts each evaluation as an
    iteration.  With [incr], a
    delta-safe AS OF statement is evaluated incrementally from that
    evaluator's previous snapshot ({!Incr}); other statements run the
    ordinary executor and reset it. *)
val prepared_stream :
  ?params:Storage.Record.value array -> ?incr:Incr.t -> prepared ->
  string array * ((Storage.Record.row -> unit) -> unit)

(** Parse a single statement (timed into [sql.parse_latency]) without
    executing it. *)
val parse : string -> Ast.stmt

(** {1 Static analysis}

    Every execution path runs the static analyzer between parsing and
    planning: {!exec}, {!exec_script} and {!exec_rows} on each
    statement; {!prepare} and {!prepare_select} once per prepared
    statement, so {!exec_prepared} and {!prepared_stream} run analyzed
    statements; and (via {!analyze_qq} / {!analyze_qs}) all four RQL
    loop mechanisms.  Statements with E-coded
    diagnostics raise {!Error} before any page is touched; counts land
    in the [sql.analyzer_errors] / [sql.analyzer_warnings] metrics. *)

(** Parse and analyze one statement without executing it; returns the
    full diagnostic list, errors first.  [EXPLAIN LINT <stmt>] and the
    shell's [.lint] render the same analysis.
    @raise Error on lexer/parser failure. *)
val analyze : db -> string -> Diag.t list

(** Validate an RQL Qq before the first snapshot iteration:
    Qq-mode analysis ([current_snapshot()] is legal; non-SELECT is
    E022; unknown columns are E002).
    @raise Error on any E-coded diagnostic. *)
val analyze_qq : db -> string -> unit

(** Validate an RQL Qs: an ordinary SELECT that must project exactly
    one (integer-typed) snapshot-id column (E021/W105).
    @raise Error on any E-coded diagnostic. *)
val analyze_qs : db -> string -> unit

(** {1 Programmatic DDL} (used by the RQL layer) *)

(** Returns the created table, or [None] when it existed and
    [if_not_exists] was set. *)
val create_table :
  db -> name:string -> cols:(string * string) list -> if_not_exists:bool ->
  Catalog.table option

val create_index :
  db -> name:string -> table:string -> columns:string list -> if_not_exists:bool -> unit

(** {!create_index} filled from [rows], every row of the table with its
    rid (in any order, best nearly in key order), instead of a scan of
    the table: the same index, page for page.  The caller vouches that
    [rows] are the table's rows as its transaction would read them.
    @raise Error if the index exists or the table does not. *)
val create_index_of_rows :
  db -> name:string -> table:string -> columns:string list ->
  (Storage.Record.row * int) array -> unit

(** Returns the number of tables dropped (0 or 1). *)
val drop_table : db -> name:string -> if_exists:bool -> int

val drop_index : db -> name:string -> if_exists:bool -> int

(** {1 Convenience accessors} *)

val query : db -> string -> Storage.Record.row list

(** @raise Error unless exactly one row results. *)
val query_one : db -> string -> Storage.Record.row

(** @raise Error unless exactly one row with one column results. *)
val scalar : db -> string -> Storage.Record.value

(** @raise Error unless the scalar is an integer. *)
val int_scalar : db -> string -> int

(** {1 Query observability}

    [EXPLAIN ANALYZE <select>] executes the statement with every plan
    operator instrumented (rows produced, loops, inclusive elapsed
    time, page-read delta, probes) and renders the plan tree annotated
    with those actuals; the same data is stored on the handle for
    structural consumption.  Statement-level statistics aggregate per
    normalized-text fingerprint in the process-wide {!Fingerprint}
    registry, exposed as the [sys_statements] virtual table.  When a
    slow-query threshold is set, statements at or above it log a
    structured [slow_query] event to {!Obs.Eventlog}. *)

(** The most recent EXPLAIN ANALYZE result on this handle. *)
val last_analysis : db -> Plan.analysis option

(** Set / read the slow-query threshold in seconds ([None] = off). *)
val set_slow_query_threshold : db -> float option -> unit
val slow_query_threshold : db -> float option

(** Master switch for per-operator instrumentation on this handle.
    EXPLAIN ANALYZE and analyzed RQL runs manage it themselves; turning
    it on manually instruments every subsequent execution. *)
val set_analyze : db -> bool -> unit

(** PRAGMA optimize on this handle; a change drops its cached plans. *)
val set_optimize : db -> bool -> unit

(** The plan currently cached for [key], when present and fresh —
    structural access to the accumulated operator actuals of prepared /
    repeated statements (an analyzed RQL run's [Iter_stats.run.ops]
    reads the actuals of its Qq plan here). *)
val cached_plan : db -> key:string -> Plan.t option
