(* Prepared statements, the physical-plan cache and its invalidation,
   and plan reuse across the RQL snapshot loop (the plan-once /
   bind-many acceptance criteria). *)

module E = Sqldb.Engine
module R = Storage.Record
module M = Obs.Metrics

let c_hits = M.counter "sql.plan_cache_hits"
let c_inval = M.counter "sql.plan_cache_invalidations"
let c_built = M.counter "sql.plans_built"
let h_parse = M.histogram "sql.parse_latency"

let get = M.Counter.get
let parses () = M.Histogram.count h_parse

let exec db sql = ignore (E.exec db sql)

let texts rows = List.map (function [| R.Text s |] -> s | _ -> "?") rows

let fresh_emp () =
  let db = E.create ~snapshots:false () in
  exec db "CREATE TABLE emp (id INTEGER, name TEXT)";
  List.iteri
    (fun i n -> exec db (Printf.sprintf "INSERT INTO emp VALUES (%d, '%s')" (i + 1) n))
    [ "ann"; "bob"; "cat"; "dan"; "eve" ];
  db

let prepared_tests =
  [ Alcotest.test_case "prepare, bind and execute" `Quick (fun () ->
        let db = fresh_emp () in
        let p = E.prepare db "SELECT name FROM emp WHERE id = ?" in
        Alcotest.(check (list string)) "first" [ "bob" ]
          (texts (E.exec_prepared ~params:[| R.Int 2 |] p).E.rows);
        Alcotest.(check (list string)) "rebound" [ "dan" ]
          (texts (E.exec_prepared ~params:[| R.Int 4 |] p).E.rows));
    Alcotest.test_case "parameter in LIMIT" `Quick (fun () ->
        let db = fresh_emp () in
        let p = E.prepare db "SELECT name FROM emp ORDER BY id LIMIT ?" in
        Alcotest.(check (list string)) "two" [ "ann"; "bob" ]
          (texts (E.exec_prepared ~params:[| R.Int 2 |] p).E.rows);
        Alcotest.(check (list string)) "four" [ "ann"; "bob"; "cat"; "dan" ]
          (texts (E.exec_prepared ~params:[| R.Int 4 |] p).E.rows));
    Alcotest.test_case "missing binding raises" `Quick (fun () ->
        let db = fresh_emp () in
        let p = E.prepare db "SELECT name FROM emp WHERE id = ?" in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec_prepared p);
             false
           with E.Error _ -> true));
    Alcotest.test_case "only SELECT can be prepared" `Quick (fun () ->
        let db = fresh_emp () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.prepare db "DELETE FROM emp");
             false
           with E.Error _ -> true));
    Alcotest.test_case "AS OF parameter runs one plan against many snapshots" `Quick
      (fun () ->
        let db = E.create () in
        exec db "CREATE TABLE t (x INTEGER)";
        let sids =
          List.map
            (fun i ->
              exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i);
              Option.get (E.exec db "COMMIT WITH SNAPSHOT").E.snapshot)
            [ 1; 2; 3 ]
        in
        let p = E.prepare db "SELECT AS OF ? COUNT(*) FROM t" in
        let h0 = get c_hits and b0 = get c_built in
        List.iteri
          (fun i sid ->
            Alcotest.(check bool)
              (Printf.sprintf "count at snapshot %d" sid)
              true
              ((E.exec_prepared ~params:[| R.Int sid |] p).E.rows = [ [| R.Int (i + 1) |] ]))
          sids;
        Alcotest.(check int) "planned once" 1 (get c_built - b0);
        Alcotest.(check int) "two cache hits" 2 (get c_hits - h0)) ]

let cache_tests =
  [ Alcotest.test_case "repeated exec of the same text hits the cache" `Quick (fun () ->
        let db = fresh_emp () in
        let h0 = get c_hits and b0 = get c_built in
        exec db "SELECT name FROM emp WHERE id = 1";
        exec db "SELECT name FROM emp WHERE id = 1";
        exec db "SELECT name FROM emp WHERE id = 1";
        Alcotest.(check int) "one build" 1 (get c_built - b0);
        Alcotest.(check int) "two hits" 2 (get c_hits - h0));
    Alcotest.test_case "CREATE INDEX invalidates and upgrades the plan" `Quick (fun () ->
        let db = fresh_emp () in
        let p = E.prepare db "SELECT name FROM emp WHERE id = ?" in
        Alcotest.(check (list string)) "before" [ "cat" ]
          (texts (E.exec_prepared ~params:[| R.Int 3 |] p).E.rows);
        exec db "CREATE INDEX ie ON emp (id)";
        let i0 = get c_inval in
        Alcotest.(check (list string)) "after" [ "cat" ]
          (texts (E.exec_prepared ~params:[| R.Int 3 |] p).E.rows);
        Alcotest.(check int) "replanned" 1 (get c_inval - i0);
        (* the re-planned access path uses the new index *)
        Alcotest.(check bool) "explain names index" true
          (List.mem "SEARCH emp USING INDEX ie"
             (texts (E.exec db "EXPLAIN SELECT name FROM emp WHERE id = 3").E.rows)));
    Alcotest.test_case "DROP TABLE invalidates a prepared statement" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        exec db "CREATE TABLE s (a INTEGER, b INTEGER)";
        exec db "INSERT INTO s VALUES (1, 2)";
        let p = E.prepare db "SELECT * FROM s" in
        Alcotest.(check int) "two columns" 2
          (Array.length (E.exec_prepared p).E.columns);
        exec db "DROP TABLE s";
        Alcotest.(check bool) "gone" true
          (try
             ignore (E.exec_prepared p);
             false
           with E.Error _ -> true);
        (* re-created with a different shape: the statement re-plans *)
        exec db "CREATE TABLE s (a INTEGER)";
        exec db "INSERT INTO s VALUES (7)";
        Alcotest.(check bool) "new shape" true ((E.exec_prepared p).E.rows = [ [| R.Int 7 |] ]));
    Alcotest.test_case "sys_plans exposes per-handle cache state" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        exec db "SELECT 1";
        exec db "SELECT 1";
        (match (E.exec db "SELECT size, hits, misses, invalidations FROM sys_plans").E.rows with
        | [ [| R.Int size; R.Int hits; R.Int misses; R.Int inval |] ] ->
          Alcotest.(check bool) "size" true (size >= 2);
          Alcotest.(check int) "hits" 1 hits;
          Alcotest.(check bool) "misses counted" true (misses >= 2);
          Alcotest.(check int) "no invalidations" 0 inval
        | _ -> Alcotest.fail "unexpected sys_plans shape");
        exec db "CREATE TABLE g (x INTEGER)";
        match (E.exec db "SELECT generation FROM sys_plans").E.rows with
        | [ [| R.Int gen |] ] -> Alcotest.(check bool) "generation advanced" true (gen >= 1)
        | _ -> Alcotest.fail "unexpected sys_plans shape") ]

let qs_all = "SELECT snap_id FROM SnapIds"

let rql_tests =
  [ Alcotest.test_case "RQL plans Qq exactly once over N snapshots" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (Rql.exec_data ctx "CREATE TABLE t (x INTEGER)");
        for i = 1 to 5 do
          ignore (Rql.exec_data ctx (Printf.sprintf "INSERT INTO t VALUES (%d)" i));
          ignore (Rql.declare_snapshot ctx)
        done;
        let p0 = parses () and h0 = get c_hits and b0 = get c_built in
        let run =
          Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT x FROM t WHERE x >= 0" ~table:"Res"
        in
        Alcotest.(check int) "five iterations" 5 (List.length run.Rql.Iter_stats.iterations);
        Alcotest.(check int) "all rows collated" 15 run.Rql.Iter_stats.result_rows;
        (* two distinct statements were parsed: Qs and Qq *)
        Alcotest.(check int) "parsed twice" 2 (parses () - p0);
        (* two plans built (Qs, Qq); the other N-1 iterations hit the cache *)
        Alcotest.(check int) "planned twice" 2 (get c_built - b0);
        Alcotest.(check bool) "N-1 cache hits" true (get c_hits - h0 >= 4));
    Alcotest.test_case "mid-run DDL re-plans the Qq" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (Rql.exec_data ctx "CREATE TABLE t (x INTEGER)");
        for i = 1 to 4 do
          ignore (Rql.exec_data ctx (Printf.sprintf "INSERT INTO t VALUES (%d)" i));
          ignore (Rql.declare_snapshot ctx)
        done;
        let qq = "SELECT x FROM t WHERE x >= 0" in
        let collate cond =
          ignore
            (Rql.exec_meta ctx
               (Printf.sprintf
                  "SELECT CollateData(snap_id, '%s', 'R2') FROM SnapIds WHERE %s" qq cond))
        in
        collate "snap_id <= 2";
        (* DDL on the data database between iterations of the same run *)
        ignore (Rql.exec_data ctx "CREATE INDEX ix ON t (x)");
        let i0 = get c_inval in
        collate "snap_id > 2";
        Alcotest.(check bool) "invalidated" true (get c_inval - i0 >= 1);
        Alcotest.(check bool) "run completed correctly" true
          ((Rql.exec_meta ctx "SELECT COUNT(*) FROM R2").E.rows = [ [| R.Int 10 |] ])) ]

(* Cross-session invalidation: the schema generation lives on the
   shared core, so DDL through ANY session must re-plan statements
   cached (or prepared) by every other session. *)
let session_tests =
  [ Alcotest.test_case "DDL in one session invalidates another session's plan" `Quick
      (fun () ->
        let db = fresh_emp () in
        Sqldb.Db.with_session db (fun a ->
            Sqldb.Db.with_session db (fun b ->
                let sql = "SELECT name FROM emp WHERE id = 3" in
                exec a sql;
                exec a sql;
                let b0 = get c_built in
                (* DDL through session [b] bumps the shared generation *)
                exec b "CREATE INDEX ix_emp ON emp (id)";
                exec a sql;
                Alcotest.(check bool) "replanned in a" true (get c_built - b0 >= 1);
                Alcotest.(check (list string)) "still correct" [ "cat" ]
                  (texts (E.exec a sql).E.rows))));
    Alcotest.test_case "prepared statement survives DDL from a sibling session" `Quick
      (fun () ->
        let db = fresh_emp () in
        Sqldb.Db.with_session db (fun a ->
            Sqldb.Db.with_session db (fun b ->
                let p = E.prepare a "SELECT name FROM emp WHERE id = ?" in
                Alcotest.(check (list string)) "before" [ "bob" ]
                  (texts (E.exec_prepared ~params:[| R.Int 2 |] p).E.rows);
                exec b "CREATE INDEX ix2_emp ON emp (id)";
                exec b "INSERT INTO emp VALUES (6, 'fay')";
                Alcotest.(check (list string)) "transparently replanned" [ "fay" ]
                  (texts (E.exec_prepared ~params:[| R.Int 6 |] p).E.rows))));
    Alcotest.test_case "sessions keep independent hit/miss accounting" `Quick (fun () ->
        let db = fresh_emp () in
        Sqldb.Db.with_session db (fun a ->
            Sqldb.Db.with_session db (fun b ->
                let sql = "SELECT COUNT(*) FROM emp" in
                exec a sql;
                exec a sql;
                exec a sql;
                (* b never ran the statement: its private cache is cold *)
                let b0 = get c_built in
                exec b sql;
                Alcotest.(check bool) "b plans its own copy" true (get c_built - b0 >= 1)))) ]

(* --- column projection ---------------------------------------------------- *)

let plan_of db sql =
  match Sqldb.Parser.parse_one sql with
  | Sqldb.Ast.Select sel ->
    Sqldb.Planner.plan ~cat:(Sqldb.Db.catalog db) ~fnctx:(Sqldb.Db.fn_ctx db) sel
  | _ -> Alcotest.fail "not a SELECT"

let masks db sql = Sqldb.Plan.projections (plan_of db sql).Sqldb.Plan.p_core

let wide_db () =
  let db = E.create ~snapshots:false () in
  exec db "CREATE TABLE w (a INTEGER, b TEXT, c TEXT, d REAL, e TEXT)";
  exec db "CREATE TABLE u (a INTEGER, f TEXT)";
  exec db "BEGIN";
  for i = 1 to 3000 do
    exec db
      (Printf.sprintf "INSERT INTO w VALUES (%d, 'name-%d', '%s', %d.5, 'a comment of some length %d')"
         i i (if i mod 3 = 0 then "O" else "F") i i)
  done;
  for i = 1 to 30 do
    exec db (Printf.sprintf "INSERT INTO u VALUES (%d, 'u%d')" (i * 7) i)
  done;
  exec db "COMMIT";
  db

let mask = Alcotest.(list (array bool))

let projection_tests =
  [ Alcotest.test_case "a scan decodes only the columns the query reads" `Quick (fun () ->
        let db = wide_db () in
        Alcotest.check mask "filter column" [ [| false; false; true |] ]
          (masks db "SELECT COUNT(*) FROM w WHERE c = 'O'");
        Alcotest.check mask "no column" [ [||] ] (masks db "SELECT COUNT(*) FROM w");
        Alcotest.check mask "every column" [ Array.make 5 true ] (masks db "SELECT * FROM w");
        Alcotest.check mask "group, aggregate, order"
          [ [| true; false; false; true |] ]
          (masks db "SELECT a % 3, AVG(d) FROM w GROUP BY a % 3 ORDER BY 1");
        Alcotest.check mask "join: each side its own columns"
          [ [| true; true |]; [| true; true |] ]
          (masks db "SELECT w.b, u.f FROM w, u WHERE w.a = u.a");
        Alcotest.check mask "group and having columns need not be selected"
          [ [| false; false; true; true |] ]
          (masks db "SELECT COUNT(*) FROM w GROUP BY c HAVING MAX(d) > 0"));
    Alcotest.test_case "projected scans return the same answers" `Quick (fun () ->
        let db = wide_db () in
        let int sql = E.int_scalar db sql in
        Alcotest.(check int) "count" 1000 (int "SELECT COUNT(*) FROM w WHERE c = 'O'");
        Alcotest.(check int) "join" 30 (int "SELECT COUNT(*) FROM w, u WHERE w.a = u.a");
        Alcotest.(check int) "left join keeps unmatched" 3000
          (int "SELECT COUNT(*) FROM w LEFT JOIN u ON w.a = u.a");
        Alcotest.(check int) "subquery column" 10
          (int "SELECT COUNT(*) FROM w WHERE a IN (SELECT a FROM u WHERE a < 75)");
        (* every expression position that reads a column the output does not *)
        let ints sql =
          List.map (function [| R.Int i |] -> i | _ -> -1) (E.exec db sql).E.rows
        in
        Alcotest.(check (list int)) "group by only" [ 1000; 2000 ]
          (List.sort compare (ints "SELECT COUNT(*) FROM w GROUP BY c"));
        Alcotest.(check (list int)) "having only" [ 1000 ]
          (ints "SELECT COUNT(*) FROM w GROUP BY c HAVING MIN(a) = 3");
        Alcotest.(check (list int)) "order by only" [ 3000 ]
          (ints "SELECT a FROM w ORDER BY d DESC LIMIT 1");
        Alcotest.(check (list int)) "aggregate argument" [ 4501500 ] (ints "SELECT SUM(a) FROM w");
        Alcotest.(check (list int)) "join filter on the inner side" [ 20 ]
          (ints "SELECT COUNT(*) FROM u, w WHERE u.a = w.a AND w.c = 'F'");
        Alcotest.(check (list int)) "left join residual" [ 3 ]
          (ints "SELECT COUNT(*) FROM u LEFT JOIN w ON u.a = w.a WHERE w.e LIKE '%comment%7'");
        Alcotest.(check (list string)) "row values" [ "name-21|O|u3" ]
          (List.map
             (fun r -> String.concat "|" (Array.to_list (Array.map R.value_to_string r)))
             (E.exec db "SELECT w.b, w.c, u.f FROM w, u WHERE w.a = u.a AND u.a = 21").E.rows));
    Alcotest.test_case "a one-column scan allocates a fraction of a full one" `Quick (fun () ->
        (* the allocation gate: minor words per scanned row, which do not
           vary between runs of the same build *)
        let db = wide_db () in
        let words sql =
          exec db sql;
          let w0 = Gc.minor_words () in
          exec db sql;
          (Gc.minor_words () -. w0) /. 3000.
        in
        let one = words "SELECT COUNT(*) FROM w WHERE c = 'O'" in
        let all = words "SELECT COUNT(*) FROM w WHERE c || b || e || d || a <> ''" in
        Alcotest.(check bool) (Printf.sprintf "one column: %.1f words/row" one) true (one < 12.);
        Alcotest.(check bool) (Printf.sprintf "five columns: %.1f words/row" all) true
          (all > 3. *. one)) ]

let () =
  Alcotest.run "plan"
    [ ("prepared", prepared_tests);
      ("cache", cache_tests);
      ("rql", rql_tests);
      ("sessions", session_tests);
      ("columns", projection_tests) ]
