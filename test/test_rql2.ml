(* Second RQL suite: iteration-statistics invariants, snapshot-set
   ordering semantics, the all-cold baseline, AVG's incremental
   behaviour in the SQL-UDF form, AggregateDataInTable's one row per
   group and its map of T's rows, multi-column interval keys, and
   non-snapshot isolation of the meta database. *)

module R = Storage.Record
module E = Sqldb.Engine
module IS = Rql.Iter_stats

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows
let q ctx sql = rows_of (E.exec ctx.Rql.meta sql)

(* A small history with churn on a two-column table. *)
let history () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE ev (u TEXT, g TEXT, v INTEGER)";
  e "INSERT INTO ev VALUES ('u1','g1',10), ('u2','g1',20), ('u3','g2',30)";
  ignore (Rql.declare_snapshot ctx);
  e "UPDATE ev SET v = v + 1 WHERE u = 'u1'";
  e "DELETE FROM ev WHERE u = 'u3'";
  ignore (Rql.declare_snapshot ctx);
  e "INSERT INTO ev VALUES ('u3','g2',99), ('u4','g2',5)";
  ignore (Rql.declare_snapshot ctx);
  ctx

let qs_all = "SELECT snap_id FROM SnapIds"

let stats_invariants =
  [ Alcotest.test_case "iteration components are non-negative and counted" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u, v FROM ev" ~table:"T" in
        List.iter
          (fun (it : IS.iteration) ->
            Alcotest.(check bool) "io >= 0" true (it.IS.io_s >= 0.);
            Alcotest.(check bool) "spt >= 0" true (it.IS.spt_build_s >= 0.);
            Alcotest.(check bool) "query >= 0" true (it.IS.query_eval_s >= 0.);
            Alcotest.(check bool) "udf >= 0" true (it.IS.udf_s >= 0.);
            Alcotest.(check int) "collate inserts = rows" it.IS.udf_rows it.IS.udf_inserts;
            Alcotest.(check bool) "total = components" true
              (Float.abs (IS.iteration_total it
                          -. (it.IS.io_s +. it.IS.spt_build_s +. it.IS.index_build_s
                              +. it.IS.query_eval_s +. it.IS.udf_s))
               < 1e-9))
          run.IS.iterations;
        Alcotest.(check int) "result rows = total inserts"
          (List.fold_left (fun a it -> a + it.IS.udf_inserts) 0 run.IS.iterations)
          run.IS.result_rows);
    Alcotest.test_case "total_s sums iterations plus finalize" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T" in
        let sum =
          List.fold_left (fun a it -> a +. IS.iteration_total it) run.IS.finalize_s
            run.IS.iterations
        in
        Alcotest.(check bool) "equal" true (Float.abs (sum -. IS.total_s run) < 1e-9));
    Alcotest.test_case "breakdown_of aggregates components" `Quick (fun () ->
        let ctx = history () in
        let run = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T" in
        let b = IS.breakdown_of run.IS.iterations in
        Alcotest.(check bool) "matches total" true
          (Float.abs (IS.breakdown_total b +. run.IS.finalize_s -. IS.total_s run) < 1e-9)) ]

let ordering =
  [ Alcotest.test_case "Qs in descending order still collates everything" `Quick (fun () ->
        let ctx = history () in
        let asc = Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"A" in
        let desc =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds ORDER BY snap_id DESC"
            ~qq:"SELECT u FROM ev" ~table:"D"
        in
        Alcotest.(check int) "same rows" asc.IS.result_rows desc.IS.result_rows;
        Alcotest.(check (list int)) "iterated descending" [ 3; 2; 1 ]
          (List.map (fun it -> it.IS.snap_id) desc.IS.iterations));
    Alcotest.test_case "aggregation order does not change monoid results" `Quick (fun () ->
        let ctx = history () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"A"
             ~aggs:[ ("c", "max") ]);
        ignore
          (Rql.aggregate_data_in_table ctx
             ~qs:"SELECT snap_id FROM SnapIds ORDER BY snap_id DESC"
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"D"
             ~aggs:[ ("c", "max") ]);
        Alcotest.(check (list row)) "commutative"
          (q ctx "SELECT g, c FROM A ORDER BY g")
          (q ctx "SELECT g, c FROM D ORDER BY g")) ]

let all_cold =
  [ Alcotest.test_case "all-cold run costs at least the shared run" `Quick (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:8 ()
        in
        let qq = "SELECT COUNT(*) AS c FROM orders" in
        let shared =
          Rql.aggregate_data_in_variable ctx ~qs:qs_all ~qq ~table:"S" ~fn:"avg"
        in
        let cold =
          Rql.aggregate_data_in_variable ~all_cold:true ctx ~qs:qs_all ~qq ~table:"C" ~fn:"avg"
        in
        let reads run = List.fold_left (fun a it -> a + it.IS.pagelog_reads) 0 run.IS.iterations in
        Alcotest.(check bool)
          (Printf.sprintf "cold %d >= shared %d" (reads cold) (reads shared))
          true
          (reads cold >= reads shared);
        (* identical results either way *)
        Alcotest.(check (list row)) "same answer" (q ctx "SELECT * FROM S")
          (q ctx "SELECT * FROM C")) ]

let avg_udf =
  [ Alcotest.test_case "SQL-form AggVar avg is correct without an end-of-run signal" `Quick
      (fun () ->
        let ctx = history () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT AggregateDataInVariable(snap_id, 'SELECT COUNT(*) AS c FROM ev', 'T', \
              'avg') FROM SnapIds");
        (* counts are 3, 2, 4 -> avg 3.0 *)
        Alcotest.(check (list row)) "avg" [ [ R.Real 3.0 ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggTable avg visible value stays current per iteration" `Quick
      (fun () ->
        let ctx = history () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"T"
             ~aggs:[ ("c", "avg") ]);
        (* g1: 2,2,2 -> 2.0; g2: 1,(absent),2 -> 1.5 *)
        Alcotest.(check (list row)) "avgs"
          [ [ R.Text "g1"; R.Real 2.0 ]; [ R.Text "g2"; R.Real 1.5 ] ]
          (q ctx "SELECT g, c FROM T ORDER BY g")) ]

let single_row =
  [ Alcotest.test_case "AggTable without grouping columns folds into one row" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (name TEXT)";
        e
          ("INSERT INTO t VALUES "
          ^ String.concat ", " (List.init 300 (fun i -> Printf.sprintf "('n%03d')" i)));
        ignore (Rql.declare_snapshot ctx);
        let long = String.make 3000 'z' in
        e "BEGIN";
        e (Printf.sprintf "INSERT INTO t VALUES ('%s')" long);
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO t VALUES ('a')";
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all ~qq:"SELECT name AS m FROM t" ~table:"T"
             ~aggs:[ ("m", "MAX") ]);
        (* every Qq row is in the one group: the first iteration folds
           its 300 rows into one row, as MAX over CollateData's rows
           would; alone on its page, the row takes the 3000-byte maximum
           in place *)
        Alcotest.(check (list row)) "rows and maximum"
          [ [ R.Int 1; R.Text long ] ]
          (q ctx "SELECT COUNT(*), MAX(m) FROM T"));
    Alcotest.test_case "AggTable follows a group's row when it moves" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        let text c n = "'" ^ String.make n c ^ "'" in
        e "CREATE TABLE t (g TEXT, m TEXT)";
        (* four rows of 900 bytes fill one page of T *)
        e
          (Printf.sprintf "INSERT INTO t VALUES ('g1', %s), ('g2', %s), ('g3', %s), ('g4', %s)"
             (text 'a' 900) (text 'a' 900) (text 'a' 900) (text 'a' 900));
        ignore (Rql.declare_snapshot ctx);
        (* g1's running MAX outgrows the page: its row moves *)
        e "BEGIN";
        e (Printf.sprintf "UPDATE t SET m = %s WHERE g = 'g1'" (text 'b' 1500));
        ignore (Rql.declare_snapshot ctx);
        (* and grows again, in its new place *)
        e "BEGIN";
        e (Printf.sprintf "UPDATE t SET m = %s WHERE g = 'g1'" (text 'c' 1600));
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all ~qq:"SELECT g, m FROM t" ~table:"T"
             ~aggs:[ ("m", "MAX") ]);
        Alcotest.(check (list row)) "one row per group"
          [ [ R.Text "g1"; R.Int 1600 ]; [ R.Text "g2"; R.Int 900 ]; [ R.Text "g3"; R.Int 900 ];
            [ R.Text "g4"; R.Int 900 ] ]
          (q ctx "SELECT g, length(m) FROM T ORDER BY g");
        (* T__rql_key finds the moved row *)
        Alcotest.(check (list row)) "through the index" [ [ R.Int 1600 ] ]
          (q ctx "SELECT length(m) FROM T WHERE g = 'g1'");
        Alcotest.(check (list string)) "meta db integrity" []
          (Sqldb.Integrity.check ctx.Rql.meta)) ]

(* --- the map of T's rows cannot go stale --------------------------------- *)

let set_incremental ctx on =
  ignore (E.exec ctx.Rql.data (if on then "PRAGMA incremental=on" else "PRAGMA incremental=off"))

(* What the loop body did in each iteration. *)
let work (its : IS.iteration list) =
  List.map (fun (it : IS.iteration) -> (it.IS.udf_rows, it.IS.udf_inserts, it.IS.udf_updates)) its

(* Run [case] into result table T1 with PRAGMA incremental off, then
   into T2 with it on; both runs must do the same work in every
   iteration. *)
let both ctx case =
  set_incremental ctx false;
  let naive = case ~label:"naive" ~table:"T1" in
  set_incremental ctx true;
  Alcotest.(check (list (triple int int int))) "rows, inserts, updates" (work naive)
    (work (case ~label:"incremental" ~table:"T2"))

(* The SQL-form run that wrote [table], retired. *)
let sql_run ctx table =
  match Rql.take_run ctx ~table with
  | Some run -> run.IS.iterations
  | None -> Alcotest.fail "no SQL-form run"

let render rows = List.map (fun r -> String.concat "," (List.map R.value_to_string r)) rows

(* T in heap chain order. *)
let t_rows ctx table = render (q ctx ("SELECT * FROM " ^ table))

(* s (k, v) holds (1, 10) and (2, 20) in snapshot 1; (3, 30) joins in
   snapshot 2, and k = 1's v is 11 in snapshot 3. *)
let s_history () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE s (k INTEGER, v INTEGER)";
  e "INSERT INTO s VALUES (1, 10), (2, 20)";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "INSERT INTO s VALUES (3, 30)";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "UPDATE s SET v = 11 WHERE k = 1";
  ignore (Rql.declare_snapshot ctx);
  ctx

let mentions msg word =
  let n = String.length word in
  let rec go i = i + n <= String.length msg && (String.sub msg i n = word || go (i + 1)) in
  go 0

(* An SQL-form AggregateDataInVariable run of SUM(v)'s SUM into
   [table]: snapshot 1, then [between] on the meta database, then
   snapshots 2 and 3. *)
let agg_var_around ctx ~table between =
  let m sql = ignore (E.exec ctx.Rql.meta sql) in
  let run where =
    m
      (Printf.sprintf
         "SELECT AggregateDataInVariable(snap_id, 'SELECT SUM(v) FROM s', '%s', 'sum') FROM \
          SnapIds WHERE %s"
         table where)
  in
  run "snap_id <= 1";
  List.iter (fun sql -> m (Printf.sprintf sql table)) between;
  run "snap_id >= 2";
  sql_run ctx table

let stale_map =
  [ Alcotest.test_case "AggTable: T edited between two statements of one SQL-form run" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (u INTEGER, v INTEGER)";
        e "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)";
        for _ = 1 to 4 do
          ignore (Rql.declare_snapshot ctx)
        done;
        both ctx (fun ~label ~table ->
            let m sql = ignore (E.exec ctx.Rql.meta sql) in
            let run where =
              m
                (Printf.sprintf
                   "SELECT AggregateDataInTable(snap_id, 'SELECT u, v FROM t', '%s', '(v,sum)') \
                    FROM SnapIds WHERE %s"
                   table where)
            in
            run "snap_id <= 2";
            m (Printf.sprintf "UPDATE %s SET v = 100 WHERE u = 1" table);
            m (Printf.sprintf "DELETE FROM %s WHERE u = 2" table);
            m (Printf.sprintf "INSERT INTO %s VALUES (3, 1000)" table);
            run "snap_id >= 3";
            (* the run continues from what T holds: u = 1 from the edited
               100, u = 2 in a new row, and u = 3 in the inserted row,
               which took u = 2's slot and so has the lower rid, the one
               T__rql_key lists first *)
            Alcotest.(check (list string)) (label ^ ": T in heap order")
              [ "1,102"; "3,1006"; "3,6"; "4,16"; "2,4" ]
              (t_rows ctx table);
            let its = sql_run ctx table in
            Alcotest.(check int) "one run" 4 (List.length its);
            its));
    Alcotest.test_case "AggTable: T edited in an open transaction before a statement" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (u INTEGER, v INTEGER)";
        e "INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)";
        for _ = 1 to 4 do
          ignore (Rql.declare_snapshot ctx)
        done;
        both ctx (fun ~label ~table ->
            let m sql = ignore (E.exec ctx.Rql.meta sql) in
            let run where =
              m
                (Printf.sprintf
                   "SELECT AggregateDataInTable(snap_id, 'SELECT u, v FROM t', '%s', '(v,sum)') \
                    FROM SnapIds WHERE %s"
                   table where)
            in
            run "snap_id <= 2";
            (* uncommitted edits of a stored aggregate and of a grouping
               column, which the next statement must see *)
            m "BEGIN";
            m (Printf.sprintf "UPDATE %s SET v = 100 WHERE u = 1" table);
            m (Printf.sprintf "UPDATE %s SET u = 5 WHERE u = 2" table);
            run "snap_id >= 3";
            m "COMMIT";
            Alcotest.(check (list string)) (label ^ ": T in heap order")
              [ "1,102"; "5,4"; "3,12"; "4,16"; "2,4" ]
              (t_rows ctx table);
            Alcotest.(check (list string)) (label ^ ": through the index") [ "4" ]
              (render (q ctx (Printf.sprintf "SELECT v FROM %s WHERE u = 5" table)));
            Alcotest.(check (list string)) (label ^ ": meta db integrity") []
              (Sqldb.Integrity.check ctx.Rql.meta);
            sql_run ctx table));
    Alcotest.test_case "AggTable: an iteration that fails, then a continuing statement" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE w (u INTEGER, s TEXT)";
        e "INSERT INTO w VALUES (1, 'a'), (2, 'b'), (3, 'c')";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "UPDATE w SET s = 'bb' WHERE u = 2";
        ignore (Rql.declare_snapshot ctx);
        (* u = 1's MAX changes, then u = 4's doubled text does not fit in
           a page of T *)
        e "BEGIN";
        e "UPDATE w SET s = 'z' WHERE u = 1";
        e (Printf.sprintf "INSERT INTO w VALUES (4, '%s')" (String.make 2500 'x'));
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "DELETE FROM w WHERE u = 4";
        e "INSERT INTO w VALUES (5, 'e')";
        ignore (Rql.declare_snapshot ctx);
        both ctx (fun ~label ~table ->
            let run where =
              E.exec ctx.Rql.meta
                (Printf.sprintf
                   "SELECT AggregateDataInTable(snap_id, 'SELECT u, s || s AS ss FROM w', '%s', \
                    '(ss,max)') FROM SnapIds WHERE %s"
                   table where)
            in
            ignore (run "snap_id <= 2");
            (match run "snap_id = 3" with
            | _ -> Alcotest.fail "snapshot 3 should fail"
            | exception E.Error _ -> ());
            (* snapshot 3's write transaction aborts, u = 1's 'zz' with
               it: snapshot 4 folds 'zz' into the 'aa' T still holds *)
            ignore (run "snap_id >= 4");
            Alcotest.(check (list string)) (label ^ ": T in heap order")
              [ "1,zz"; "2,bbbb"; "3,cc"; "5,ee" ]
              (t_rows ctx table);
            sql_run ctx table));
    Alcotest.test_case "AggTable: a row that moves past a second row of its group" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        let text c n = "'" ^ String.make n c ^ "'" in
        e "CREATE TABLE t (g TEXT, m TEXT)";
        (* four rows of 900 bytes nearly fill one page of T *)
        e
          (Printf.sprintf "INSERT INTO t VALUES ('g1', %s), ('g2', %s), ('g3', %s), ('g4', %s)"
             (text 'a' 900) (text 'a' 900) (text 'a' 900) (text 'a' 900));
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e (Printf.sprintf "UPDATE t SET m = %s WHERE g = 'g1'" (text 'b' 1500));
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e (Printf.sprintf "UPDATE t SET m = %s WHERE g = 'g1'" (text 'c' 1600));
        ignore (Rql.declare_snapshot ctx);
        both ctx (fun ~label ~table ->
            let m sql = ignore (E.exec ctx.Rql.meta sql) in
            let run where =
              m
                (Printf.sprintf
                   "SELECT AggregateDataInTable(snap_id, 'SELECT g, m FROM t', '%s', '(m,max)') \
                    FROM SnapIds WHERE %s"
                   table where)
            in
            run "snap_id = 1";
            m (Printf.sprintf "INSERT INTO %s VALUES ('g1', 'd')" table);
            (* snapshot 2's 'bbb...' moves g1's first row past the
               inserted 'd', which T__rql_key then lists first: snapshot
               3's 'ccc...' folds into 'd' and leaves it as it is *)
            run "snap_id >= 2";
            Alcotest.(check (list string)) (label ^ ": T in heap order")
              [ "g2,900,a"; "g3,900,a"; "g4,900,a"; "g1,1,d"; "g1,1500,b" ]
              (render (q ctx ("SELECT g, length(m), substr(m, 1, 1) FROM " ^ table)));
            sql_run ctx table));
    Alcotest.test_case "AggTable: an index the user creates on T between two statements" `Quick
      (fun () ->
        let ctx = s_history () in
        both ctx (fun ~label ~table ->
            let m sql = ignore (E.exec ctx.Rql.meta sql) in
            let run where =
              m
                (Printf.sprintf
                   "SELECT AggregateDataInTable(snap_id, 'SELECT k, v FROM s', '%s', '(v,sum)') \
                    FROM SnapIds WHERE %s"
                   table where)
            in
            run "snap_id <= 1";
            m (Printf.sprintf "CREATE INDEX %s_v ON %s (v)" table table);
            run "snap_id >= 2";
            (* the run's later writes keep the new index current *)
            Alcotest.(check (list string)) (label ^ ": T in heap order") [ "1,31"; "2,60"; "3,60" ]
              (t_rows ctx table);
            Alcotest.(check (list string)) (label ^ ": through the new index") [ "2"; "3" ]
              (render (q ctx (Printf.sprintf "SELECT k FROM %s WHERE v = 60" table)));
            Alcotest.(check (list string)) (label ^ ": meta db integrity") []
              (Sqldb.Integrity.check ctx.Rql.meta);
            sql_run ctx table));
    Alcotest.test_case "Collate: T dropped or re-created between two statements" `Quick
      (fun () ->
        let ctx = s_history () in
        let m sql = ignore (E.exec ctx.Rql.meta sql) in
        let run where =
          m
            (Printf.sprintf
               "SELECT CollateData(snap_id, 'SELECT k, v FROM s', 'C1') FROM SnapIds WHERE %s"
               where)
        in
        let fails what =
          match run "snap_id >= 2" with
          | () -> Alcotest.failf "%s: the run went on" what
          | exception Rql.Error msg ->
            Alcotest.(check bool) (what ^ ": the error names C1") true (mentions msg "C1")
        in
        run "snap_id <= 1";
        (* Z may take the pages C1 freed: the run must not write there *)
        m "DROP TABLE C1";
        m "CREATE TABLE Z (a INTEGER, b TEXT)";
        m "INSERT INTO Z VALUES (1, 'zzz')";
        fails "C1 dropped";
        Alcotest.(check (list string)) "Z as written" [ "1,zzz" ] (t_rows ctx "Z");
        Alcotest.(check (list string)) "meta db integrity" [] (Sqldb.Integrity.check ctx.Rql.meta);
        m "CREATE TABLE C1 (k INTEGER, v INTEGER, w INTEGER)";
        fails "C1 re-created with three columns";
        (* a C1 of the run's shape: the run goes on into it *)
        m "DROP TABLE C1";
        m "CREATE TABLE C1 (k INTEGER, v INTEGER)";
        run "snap_id >= 2";
        Alcotest.(check (list string)) "the new C1" [ "1,10"; "2,20"; "3,30"; "1,11"; "2,20"; "3,30" ]
          (t_rows ctx "C1");
        Alcotest.(check (list string)) "meta db integrity after" []
          (Sqldb.Integrity.check ctx.Rql.meta));
    Alcotest.test_case "AggVar: T's row deleted between two statements" `Quick (fun () ->
        let ctx = s_history () in
        both ctx (fun ~label ~table ->
            let its = agg_var_around ctx ~table [ "DELETE FROM %s" ] in
            Alcotest.(check (list string)) (label ^ ": T") [ "151" ] (t_rows ctx table);
            its));
    Alcotest.test_case "AggVar: T's row deleted and two rows inserted between two statements"
      `Quick (fun () ->
        let ctx = s_history () in
        both ctx (fun ~label ~table ->
            let its =
              agg_var_around ctx ~table [ "DELETE FROM %s"; "INSERT INTO %s VALUES (997), (998)" ]
            in
            (* 997 takes the deleted row's slot, the lowest rid: the run
               writes its value there *)
            Alcotest.(check (list string)) (label ^ ": T in heap order") [ "151"; "998" ]
              (t_rows ctx table);
            its)) ]

let intervals =
  [ Alcotest.test_case "multi-column interval keys" `Quick (fun () ->
        let ctx = history () in
        ignore
          (Rql.collate_data_into_intervals ctx ~qs:qs_all ~qq:"SELECT u, g FROM ev"
             ~table:"T");
        (* u3 is deleted before snapshot 2 and reinserted before 3 *)
        Alcotest.(check (list row)) "lifetimes"
          [ [ R.Text "u1"; R.Text "g1"; R.Int 1; R.Int 3 ];
            [ R.Text "u2"; R.Text "g1"; R.Int 1; R.Int 3 ];
            [ R.Text "u3"; R.Text "g2"; R.Int 1; R.Int 1 ];
            [ R.Text "u3"; R.Text "g2"; R.Int 3; R.Int 3 ];
            [ R.Text "u4"; R.Text "g2"; R.Int 3; R.Int 3 ] ]
          (q ctx "SELECT * FROM T ORDER BY u, start_snapshot"));
    Alcotest.test_case "sparse Qs yields per-selected-snapshot contiguity" `Quick (fun () ->
        (* with snapshots {1,3}, u3 disappears at 2 but is present in
           both selected snapshots: the interval spans them because
           contiguity is relative to the iterated set (prev iteration),
           matching the paper's operational definition *)
        let ctx = history () in
        ignore
          (Rql.collate_data_into_intervals ctx
             ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id <> 2"
             ~qq:"SELECT u FROM ev WHERE u = 'u3'" ~table:"T");
        Alcotest.(check (list row)) "one interval over the selected set"
          [ [ R.Text "u3"; R.Int 1; R.Int 3 ] ]
          (q ctx "SELECT * FROM T")) ]

(* --- __rql_key from the first iteration's rows ---------------------------

   The first iteration of AggregateDataInTable and
   CollateDataIntoIntervals builds T's key index from the rows it stored
   and their rids, without reading T.  Right after that iteration the
   index must be the one CREATE INDEX builds over the same T: the same
   pages byte for byte once every page id in them (a leaf's next link,
   an interior node's children) is replaced by the page's position in a
   breadth-first walk, since the two trees sit on different pages. *)

module Pg = Storage.Page

let index_pages ctx name =
  let meta = ctx.Rql.meta in
  let root =
    match Sqldb.Catalog.find_index (Sqldb.Db.catalog meta) name with
    | Some ix -> ix.Sqldb.Catalog.iroot
    | None -> Alcotest.failf "no index %s" name
  in
  let read = Sqldb.Db.read_current meta in
  let pos = Hashtbl.create 16 and queue = Queue.create () and pages = ref [] in
  let visit pid =
    if not (Hashtbl.mem pos pid) then begin
      Hashtbl.replace pos pid (Hashtbl.length pos);
      Queue.add pid queue
    end
  in
  (* a separator's child is its entry's last value, an INTEGER: the
     record's last 8 bytes *)
  let child p i = Pg.slot_off p i + Pg.slot_len p i - 8 in
  visit root;
  while not (Queue.is_empty queue) do
    let p = read (Queue.pop queue) in
    pages := p :: !pages;
    if Pg.kind p = Pg.Btree_interior then begin
      visit (Pg.aux p);
      for i = 0 to Pg.nslots p - 1 do
        visit (R.int_at p (child p i - 1))
      done
    end
  done;
  let at pid = if pid < 0 then pid else Hashtbl.find pos pid in
  List.rev_map
    (fun p ->
      let c = Bytes.copy p in
      Pg.set_next c (at (Pg.next p));
      if Pg.kind p = Pg.Btree_interior then begin
        Pg.set_aux c (at (Pg.aux p));
        for i = 0 to Pg.nslots p - 1 do
          Bytes.set_int64_le c (child p i) (Int64.of_int (at (R.int_at p (child p i - 1))))
        done
      end;
      c)
    !pages

let same_index ~label ctx a b =
  let pa = index_pages ctx a and pb = index_pages ctx b in
  Alcotest.(check int) (label ^ ": pages") (List.length pb) (List.length pa);
  Alcotest.(check bool) (label ^ ": page bytes") true (List.for_all2 Bytes.equal pa pb)

let meta_ok ~label ctx =
  Alcotest.(check (list string))
    (label ^ ": meta integrity") [] (Sqldb.Integrity.check ctx.Rql.meta)

(* Run [kind] over every snapshot one iteration at a time; after the
   first, [check] T. *)
let first_then_rest ctx ~kind ~qq ~table check =
  let rs = Rql.make_run ctx ~kind ~qq ~table () in
  match Rql.snapshot_set ctx qs_all with
  | [] -> Alcotest.fail "no snapshots"
  | sid :: rest ->
    Rql.step rs ~sid;
    check ();
    List.iter (fun sid -> Rql.step rs ~sid) rest;
    ignore (Rql.finish rs)

(* The first iteration's __rql_key against CREATE INDEX on [cols]. *)
let rql_key_is_create_index ~label ctx ~table ~cols () =
  ignore (E.exec ctx.Rql.meta (Printf.sprintf "CREATE INDEX %s_chk ON %s (%s)" table table cols));
  same_index ~label ctx (table ^ "__rql_key") (table ^ "_chk");
  meta_ok ~label ctx

(* s(k, t): texts of widths 0 to 600, a repeated key, and churn between
   the three snapshots. *)
let widths_history () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE s (k INTEGER, t TEXT)";
  for k = 1 to 400 do
    e (Printf.sprintf "INSERT INTO s VALUES (%d, '%s')" (k * 7919 mod 401)
         (String.make (k * 37 mod 601) (Char.chr (97 + (k mod 26)))))
  done;
  e "INSERT INTO s SELECT k, t FROM s WHERE k < 40";
  ignore (Rql.declare_snapshot ctx);
  ignore (E.exec ctx.Rql.data "BEGIN");
  e "DELETE FROM s WHERE k % 5 = 0";
  e "INSERT INTO s VALUES (1000, 'new'), (3, 'three')";
  ignore (Rql.declare_snapshot ctx);
  ignore (E.exec ctx.Rql.data "BEGIN");
  e "UPDATE s SET t = 'changed' WHERE k % 7 = 0";
  ignore (Rql.declare_snapshot ctx);
  ctx

let index_from_rows =
  [ Alcotest.test_case "intervals over rows of several widths" `Quick (fun () ->
        let ctx = widths_history () in
        first_then_rest ctx ~kind:Rql.Intervals ~qq:"SELECT k, t FROM s" ~table:"W"
          (rql_key_is_create_index ~label:"intervals" ctx ~table:"W" ~cols:"k, t");
        meta_ok ~label:"intervals, last iteration" ctx);
    Alcotest.test_case "AggregateDataInTable with a TEXT MAX that moves its row" `Quick
      (fun () ->
        (* 300 groups fill T's first pages; the snapshot's last row grows
           group 1's MAX to 1 500 bytes, which no longer fits on T's
           first page: the row moves within the first iteration *)
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE a (g INTEGER, v TEXT)";
        for g = 1 to 300 do
          e (Printf.sprintf "INSERT INTO a VALUES (%d, 'v%020d')" g g)
        done;
        e (Printf.sprintf "INSERT INTO a VALUES (1, '%s')" (String.make 1500 'z'));
        ignore (Rql.declare_snapshot ctx);
        ignore (E.exec ctx.Rql.data "BEGIN");
        e "UPDATE a SET v = 'w' || v WHERE g % 3 = 0";
        ignore (Rql.declare_snapshot ctx);
        first_then_rest ctx
          ~kind:(Rql.Agg_table [ ("v", Rql.Monoid.Max) ])
          ~qq:"SELECT g, v FROM a" ~table:"A"
          (fun () ->
            let tbl =
              match Sqldb.Catalog.find_table (Sqldb.Db.catalog ctx.Rql.meta) "A" with
              | Some t -> t
              | None -> Alcotest.fail "no result table"
            in
            let first = tbl.Sqldb.Catalog.theap in
            Alcotest.(check (option string)) "group 1's first slot is dead: its row moved" None
              (Storage.Heap.get (Sqldb.Db.read_current ctx.Rql.meta)
                 (Storage.Heap.open_existing first)
                 (Storage.Heap.rid_of ~pid:first ~slot:0));
            rql_key_is_create_index ~label:"aggregate" ctx ~table:"A" ~cols:"g" ());
        Alcotest.(check (list row)) "group 1's MAX"
          [ [ R.Text (String.make 1500 'z') ] ]
          (q ctx "SELECT v FROM A WHERE g = 1");
        meta_ok ~label:"aggregate, last iteration" ctx);
    Alcotest.test_case "CollateData with TEXT values: the index build's two sources" `Quick
      (fun () ->
        (* CollateData builds no key index; CREATE INDEX over its T (a
           scan) and the same index built from T's rows and rids must
           be one index *)
        let ctx = widths_history () in
        first_then_rest ctx ~kind:Rql.Collate ~qq:"SELECT t, k FROM s" ~table:"C" (fun () ->
            let meta = ctx.Rql.meta in
            let tbl =
              match Sqldb.Catalog.find_table (Sqldb.Db.catalog meta) "C" with
              | Some t -> t
              | None -> Alcotest.fail "no result table"
            in
            let rows = ref [] in
            Storage.Heap.iter (Sqldb.Db.read_current meta)
              (Storage.Heap.open_existing tbl.Sqldb.Catalog.theap) ~f:(fun rid data ->
                rows := (R.decode_row data, rid) :: !rows);
            ignore (E.exec meta "CREATE INDEX C_scan ON C (t, k)");
            E.create_index_of_rows meta ~name:"C_rows" ~table:"C" ~columns:[ "t"; "k" ]
              (Array.of_list !rows);
            same_index ~label:"collate" ctx "C_rows" "C_scan";
            meta_ok ~label:"collate" ctx);
        meta_ok ~label:"collate, last iteration" ctx) ]

let isolation =
  [ Alcotest.test_case "meta database rows are not snapshotted" `Quick (fun () ->
        let ctx = history () in
        ignore (Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T");
        (* data db snapshots know nothing about T *)
        Alcotest.(check bool) "T not in data db" true
          (try
             ignore (E.exec ctx.Rql.data "SELECT * FROM T");
             false
           with E.Error _ -> true);
        Alcotest.(check bool) "meta db refuses AS OF" true
          (try
             ignore (E.exec ctx.Rql.meta "SELECT AS OF 1 * FROM SnapIds");
             false
           with E.Error _ -> true));
    Alcotest.test_case "mechanism runs do not disturb data-db snapshots" `Quick (fun () ->
        let ctx = history () in
        let before = q ctx "SELECT snap_id FROM SnapIds" in
        ignore (Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT u FROM ev" ~table:"T");
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT g, COUNT(*) AS c FROM ev GROUP BY g" ~table:"T2"
             ~aggs:[ ("c", "sum") ]);
        Alcotest.(check (list row)) "snapids unchanged" before
          (q ctx "SELECT snap_id FROM SnapIds");
        Alcotest.(check int) "snapshot count unchanged" 3
          (Retro.snapshot_count (Sqldb.Db.retro_exn ctx.Rql.data));
        Alcotest.(check (list string)) "data db integrity" []
          (Sqldb.Integrity.check ctx.Rql.data);
        Alcotest.(check (list string)) "meta db integrity" []
          (Sqldb.Integrity.check ctx.Rql.meta)) ]

let () =
  Alcotest.run "rql2"
    [ ("stats-invariants", stats_invariants);
      ("ordering", ordering);
      ("all-cold", all_cold);
      ("avg-udf", avg_udf);
      ("single-row", single_row);
      ("stale-map", stale_map);
      ("intervals", intervals);
      ("index-from-rows", index_from_rows);
      ("isolation", isolation) ]
