(* EXPLAIN ANALYZE / query-observability tests: exact per-operator row
   counts on seeded fixtures (scan, filter, join, aggregate), page-read
   deltas, AS OF agreeing with current-state on identical data, the
   zero-overhead guarantee when instrumentation is off, statement
   fingerprinting (sys_statements, including from inside an RQL Qq),
   the slow-query event log, and the per-mechanism RQL run report. *)

module R = Storage.Record
module E = Sqldb.Engine
module P = Sqldb.Plan
module F = Sqldb.Fingerprint
module IS = Rql.Iter_stats

let e db sql = ignore (E.exec db sql)

let analysis_of db sql =
  ignore (E.exec db ("EXPLAIN ANALYZE " ^ sql));
  match E.last_analysis db with
  | Some az -> az
  | None -> Alcotest.failf "no analysis recorded for %s" sql

(* The (kind, rows) of the single operator with [kind]. *)
let op_rows (az : P.analysis) kind =
  match List.filter (fun (a : P.op_actual) -> a.P.a_kind = kind) az.P.az_ops with
  | [ a ] -> a.P.a_rows
  | l -> Alcotest.failf "expected one %s operator, got %d" kind (List.length l)

let op_of (az : P.analysis) kind =
  match List.filter (fun (a : P.op_actual) -> a.P.a_kind = kind) az.P.az_ops with
  | [ a ] -> a
  | l -> Alcotest.failf "expected one %s operator, got %d" kind (List.length l)

(* t: 10 rows (a=i, b=i); u: 3 rows (a=j, c as given). *)
let fixture () =
  let db = E.create () in
  e db "CREATE TABLE t (a INTEGER, b INTEGER)";
  e db "CREATE TABLE u (a INTEGER, c INTEGER)";
  for i = 1 to 10 do
    e db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i)
  done;
  e db "INSERT INTO u VALUES (1, -100), (2, 0), (3, 0)";
  db

let actuals =
  [ Alcotest.test_case "scan: exact row counts" `Quick (fun () ->
        let db = fixture () in
        let az = analysis_of db "SELECT * FROM t" in
        Alcotest.(check int) "result rows" 10 az.P.az_rows;
        Alcotest.(check int) "scan rows" 10 (op_rows az "scan");
        Alcotest.(check int) "output rows" 10 (op_rows az "output");
        Alcotest.(check int) "scan loops" 1 (op_of az "scan").P.a_loops);
    Alcotest.test_case "join + residual filter: exact rows and probes" `Quick (fun () ->
        let db = fixture () in
        let az = analysis_of db "SELECT * FROM t, u WHERE t.a = u.a AND t.b + u.c > 0" in
        (* join on a matches 3 of 10 outer rows; the residual kills the
           (1, -100) pair, leaving 2 *)
        Alcotest.(check int) "scan rows" 10 (op_rows az "scan");
        Alcotest.(check int) "join rows" 3 (op_rows az "hash_join");
        Alcotest.(check int) "probes = outer rows" 10 (op_of az "hash_join").P.a_probes;
        Alcotest.(check int) "filter rows" 2 (op_rows az "filter");
        Alcotest.(check int) "output rows" 2 (op_rows az "output");
        Alcotest.(check int) "result rows" 2 az.P.az_rows);
    Alcotest.test_case "aggregate: one row per group" `Quick (fun () ->
        let db = fixture () in
        let az = analysis_of db "SELECT a % 2, COUNT(*) FROM t GROUP BY a % 2" in
        Alcotest.(check int) "scan rows" 10 (op_rows az "scan");
        Alcotest.(check int) "aggregate rows" 2 (op_rows az "aggregate");
        Alcotest.(check int) "result rows" 2 az.P.az_rows);
    Alcotest.test_case "scan page-read delta matches the heap footprint" `Quick (fun () ->
        let db = fixture () in
        let pages =
          match E.scalar db "SELECT pages FROM sys_tables WHERE name = 't'" with
          | R.Int n -> n
          | v -> Alcotest.failf "expected int, got %s" (R.value_to_string v)
        in
        let az = analysis_of db "SELECT * FROM t" in
        Alcotest.(check int) "scan pages" pages (op_of az "scan").P.a_pages);
    Alcotest.test_case "operator ids are stable and unique" `Quick (fun () ->
        let db = fixture () in
        let az1 = analysis_of db "SELECT t.a FROM t, u WHERE t.a = u.a" in
        let az2 = analysis_of db "SELECT t.a FROM t, u WHERE t.a = u.a" in
        let ids az = List.map (fun (a : P.op_actual) -> a.P.a_id) az.P.az_ops in
        Alcotest.(check (list int)) "same ids across runs" (ids az1) (ids az2);
        let sorted = List.sort_uniq compare (ids az1) in
        Alcotest.(check int) "ids unique" (List.length (ids az1)) (List.length sorted)) ]

let as_of =
  [ Alcotest.test_case "AS OF actuals agree with current-state on identical data" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let db = ctx.Rql.data in
        e db "CREATE TABLE t (a INTEGER, b INTEGER)";
        for i = 1 to 10 do
          e db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i)
        done;
        let sid = Rql.declare_snapshot ctx in
        let shape az =
          List.map (fun (a : P.op_actual) -> (a.P.a_kind, a.P.a_rows)) az.P.az_ops
        in
        let cur = analysis_of db "SELECT a, b FROM t WHERE b > 3" in
        let old = analysis_of db (Printf.sprintf "SELECT AS OF %d a, b FROM t WHERE b > 3" sid) in
        Alcotest.(check (list (pair string int))) "same per-op rows" (shape cur) (shape old);
        Alcotest.(check (option int)) "current has no snapshot" None cur.P.az_snapshot;
        Alcotest.(check (option int)) "AS OF records the snapshot" (Some sid) old.P.az_snapshot) ]

let off_path =
  [ Alcotest.test_case "instrumentation off leaves every slot untouched" `Quick (fun () ->
        let db = fixture () in
        let sql = "SELECT t.a FROM t, u WHERE t.a = u.a AND t.b > 0" in
        e db sql;
        e db sql;
        (* two executions through the plan cache, analyze off *)
        match E.cached_plan db ~key:sql with
        | None -> Alcotest.fail "statement plan not cached"
        | Some plan ->
          List.iter
            (fun (a : P.op_actual) ->
              Alcotest.(check int) (a.P.a_kind ^ " rows untouched") 0 a.P.a_rows;
              Alcotest.(check int) (a.P.a_kind ^ " loops untouched") 0 a.P.a_loops;
              Alcotest.(check int) (a.P.a_kind ^ " pages untouched") 0 a.P.a_pages;
              Alcotest.(check int) (a.P.a_kind ^ " probes untouched") 0 a.P.a_probes;
              Alcotest.(check (float 0.)) (a.P.a_kind ^ " time untouched") 0. a.P.a_elapsed_s)
            (P.actuals plan)) ]

let fingerprints =
  [ Alcotest.test_case "normalization folds literals, case and whitespace" `Quick (fun () ->
        Alcotest.(check string) "literals become ?"
          "select * from t where a = ? and b = ?"
          (F.normalize "SELECT * FROM T   WHERE a = 42 AND b = 'x'");
        Alcotest.(check string) "same statement, different constants"
          (F.normalize "select * from t where a = 1")
          (F.normalize "SELECT * FROM t WHERE a = 99"));
    Alcotest.test_case "sys_statements aggregates calls per fingerprint" `Quick (fun () ->
        F.reset ();
        let db = fixture () in
        e db "SELECT * FROM t WHERE a = 1";
        e db "SELECT * FROM t WHERE a = 2";
        e db "select * from T where a = 3";
        match F.find ~sql:"SELECT * FROM t WHERE a = 0" with
        | None -> Alcotest.fail "fingerprint not recorded"
        | Some st ->
          Alcotest.(check int) "three calls, one fingerprint" 3 st.F.calls;
          Alcotest.(check int) "rows accumulated" 3 st.F.rows;
          let calls =
            E.scalar db
              "SELECT calls FROM sys_statements WHERE query = \
               'select * from t where a = ?'"
          in
          (* the sys_statements SELECT itself is not yet recorded *)
          Alcotest.(check bool) "queryable via SQL" true (calls = R.Int 3));
    Alcotest.test_case "sys_statements is queryable inside an RQL Qq" `Quick (fun () ->
        F.reset ();
        let ctx = Rql.create () in
        e ctx.Rql.data "CREATE TABLE t (a INTEGER)";
        e ctx.Rql.data "INSERT INTO t VALUES (1)";
        ignore (Rql.declare_snapshot ctx);
        let run =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
            ~qq:"SELECT query, calls FROM sys_statements" ~table:"StmtStats"
        in
        Alcotest.(check bool) "Qq saw recorded statements" true
          (run.Rql.Iter_stats.result_rows > 0));
    Alcotest.test_case "a long normalization does not stall another domain's record" `Quick
      (fun () ->
        F.reset ();
        (* Normalizing is linear in the statement's length: at this depth
           it takes a few hundred milliseconds, well past the 50 ms after
           which the short statement is recorded. *)
        let depth = 250_000 in
        let deep = "SELECT " ^ String.make depth '(' ^ "1" ^ String.make depth ')' in
        let finished = Atomic.make 0 and started = Atomic.make false in
        let record sql =
          F.record ~sql ~rows:1 ~elapsed_s:0. ~plan_hit:false;
          Atomic.fetch_and_add finished 1
        in
        let d =
          Domain.spawn (fun () ->
              Atomic.set started true;
              record deep)
        in
        while not (Atomic.get started) do Domain.cpu_relax () done;
        Unix.sleepf 0.05;
        let short_rank = record "SELECT 1" in
        let deep_rank = Domain.join d in
        Alcotest.(check (pair int int)) "SELECT 1 finishes first" (0, 1) (short_rank, deep_rank)) ]

let slowlog =
  [ Alcotest.test_case "statements over the threshold log a structured event" `Quick
      (fun () ->
        Obs.Eventlog.clear ();
        let db = fixture () in
        E.set_slow_query_threshold db (Some 0.0);
        e db "SELECT * FROM t WHERE a = 7";
        E.set_slow_query_threshold db None;
        let slow =
          List.filter
            (fun (ev : Obs.Eventlog.event) -> ev.Obs.Eventlog.ev_kind = "slow_query")
            (Obs.Eventlog.events ())
        in
        Alcotest.(check bool) "at least one event" true (slow <> []);
        let ev = List.hd slow in
        let has k = List.mem_assoc k ev.Obs.Eventlog.ev_fields in
        Alcotest.(check bool) "duration field" true (has "duration_ms");
        Alcotest.(check bool) "fingerprint field" true (has "fingerprint");
        Alcotest.(check bool) "query field" true (has "query");
        (match List.assoc "query" ev.Obs.Eventlog.ev_fields with
        | Obs.Json.Str q ->
          Alcotest.(check string) "normalized text" "select * from t where a = ?" q
        | _ -> Alcotest.fail "query field is not a string"));
    Alcotest.test_case "no threshold, no events" `Quick (fun () ->
        Obs.Eventlog.clear ();
        let db = fixture () in
        e db "SELECT * FROM t";
        Alcotest.(check int) "event log empty" 0 (List.length (Obs.Eventlog.events ()))) ]

let run_report =
  [ Alcotest.test_case "analyzed RQL run accumulates actuals across iterations" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let db = ctx.Rql.data in
        e db "CREATE TABLE t (a INTEGER, b INTEGER)";
        for i = 1 to 10 do
          e db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i)
        done;
        ignore (Rql.declare_snapshot ctx);
        ignore (Rql.declare_snapshot ctx);
        (* identical data in both snapshots *)
        let run =
          Rql.collate_data ~analyze:true ctx ~qs:"SELECT snap_id FROM SnapIds"
            ~qq:"SELECT a FROM t" ~table:"Out"
        in
        Alcotest.(check string) "mechanism" "CollateData" run.IS.mechanism;
        Alcotest.(check int) "iterations" 2 (List.length run.IS.iterations);
        let scan =
          match List.filter (fun (a : P.op_actual) -> a.P.a_kind = "scan") run.IS.ops with
          | [ a ] -> a
          | l -> Alcotest.failf "expected one scan op, got %d" (List.length l)
        in
        Alcotest.(check int) "scan rows sum over iterations" 20 scan.P.a_rows;
        Alcotest.(check int) "scan loops = iterations" 2 scan.P.a_loops;
        Alcotest.(check bool) "instrumentation restored off" false db.Sqldb.Db.analyze);
    Alcotest.test_case "analyzed run emits a counter track when tracing is on" `Quick
      (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.Trace.set_enabled false)
          (fun () ->
            let ctx = Rql.create () in
            e ctx.Rql.data "CREATE TABLE t (a INTEGER)";
            e ctx.Rql.data "INSERT INTO t VALUES (1)";
            ignore (Rql.declare_snapshot ctx);
            ignore
              (Rql.collate_data ~analyze:true ctx ~qs:"SELECT snap_id FROM SnapIds"
                 ~qq:"SELECT a FROM t" ~table:"Out");
            let samples =
              List.filter
                (fun (c : Obs.Trace.counter_event) -> c.Obs.Trace.c_name = "rql.op_rows")
                (Obs.Trace.counter_events ())
            in
            Alcotest.(check int) "one sample per iteration" 1 (List.length samples);
            let values = (List.hd samples).Obs.Trace.c_values in
            Alcotest.(check bool) "per-operator series present" true
              (List.exists (fun (k, v) -> k = "op1 scan" && v = 1.) values))) ]

let () =
  Alcotest.run "explain_analyze"
    [ ("actuals", actuals);
      ("as_of", as_of);
      ("off_path", off_path);
      ("fingerprints", fingerprints);
      ("slowlog", slowlog);
      ("run_report", run_report) ]
