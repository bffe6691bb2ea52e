(* RQL mechanism tests: the paper's §2 examples, the SQL-UDF form,
   snapshot-set selection via Qs, result-table management, stats, and
   the central equivalence properties:

   - AggregateDataInVariable(fn)  ==  SQL fn over CollateData output
   - AggregateDataInTable(c,fn)   ==  SQL GROUP BY fn over CollateData
   - CollateDataIntoIntervals     ==  interval reconstruction of CollateData *)

module R = Storage.Record
module E = Sqldb.Engine

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows

let q ctx sql = rows_of (E.exec ctx.Rql.meta sql)

(* The LoggedIn history from the paper's Figures 1-3. *)
let logged_in_ctx () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)";
  e
    "INSERT INTO LoggedIn VALUES ('UserA','2008-11-09 13:23:44','USA'), ('UserB','2008-11-09 \
     15:45:21','UK'), ('UserC','2008-11-09 15:45:21','USA')";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "DELETE FROM LoggedIn WHERE l_userid = 'UserA'";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "INSERT INTO LoggedIn (l_userid, l_time, l_country) VALUES ('UserD','2008-11-11 10:08:04','UK')";
  ignore (Rql.declare_snapshot ctx);
  ctx

let qs_all = "SELECT snap_id FROM SnapIds"

let mechanisms =
  [ Alcotest.test_case "CollateData collects per-snapshot rows" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        let run =
          Rql.collate_data ctx ~qs:qs_all
            ~qq:"SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn"
            ~table:"Result"
        in
        Alcotest.(check int) "iterations" 3 (List.length run.Rql.Iter_stats.iterations);
        Alcotest.(check int) "rows" 8 run.Rql.Iter_stats.result_rows;
        Alcotest.(check (list row)) "snapshot 2 content"
          [ [ R.Text "UserB" ]; [ R.Text "UserC" ] ]
          (q ctx "SELECT l_userid FROM Result WHERE sid = 2 ORDER BY l_userid"));
    Alcotest.test_case "AggregateDataInVariable sum counts snapshots" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_variable ctx ~qs:qs_all
             ~qq:"SELECT DISTINCT 1 AS one FROM LoggedIn WHERE l_userid = 'UserB'"
             ~table:"T" ~fn:"sum");
        Alcotest.(check (list row)) "UserB in 3 snapshots" [ [ R.Int 3 ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggregateDataInVariable min finds first occurrence" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_variable ctx ~qs:qs_all
             ~qq:"SELECT DISTINCT current_snapshot() AS sid FROM LoggedIn WHERE l_userid = 'UserD'"
             ~table:"T" ~fn:"min");
        Alcotest.(check (list row)) "first in snapshot 3" [ [ R.Int 3 ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggregateDataInVariable avg" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_variable ctx ~qs:qs_all
             ~qq:"SELECT COUNT(*) AS c FROM LoggedIn" ~table:"T" ~fn:"avg");
        (* 3, 2, 3 logged in across the snapshots *)
        Alcotest.(check (list row)) "avg" [ [ R.Real (8. /. 3.) ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggregateDataInVariable rejects multi-row Qq" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rql.aggregate_data_in_variable ctx ~qs:qs_all
                  ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T" ~fn:"min");
             false
           with Rql.Error _ -> true));
    Alcotest.test_case "AggregateDataInTable first login per user (paper)" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT DISTINCT l_userid, l_time FROM LoggedIn" ~table:"T"
             ~aggs:[ ("l_time", "min") ]);
        Alcotest.(check (list row)) "first times"
          [ [ R.Text "UserA"; R.Text "2008-11-09 13:23:44" ];
            [ R.Text "UserB"; R.Text "2008-11-09 15:45:21" ];
            [ R.Text "UserC"; R.Text "2008-11-09 15:45:21" ];
            [ R.Text "UserD"; R.Text "2008-11-11 10:08:04" ] ]
          (q ctx "SELECT l_userid, l_time FROM T ORDER BY l_userid"));
    Alcotest.test_case "AggregateDataInTable max concurrent logins (paper)" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country" ~table:"T"
             ~aggs:[ ("c", "max") ]);
        Alcotest.(check (list row)) "per-country max"
          [ [ R.Text "UK"; R.Int 2 ]; [ R.Text "USA"; R.Int 2 ] ]
          (q ctx "SELECT l_country, c FROM T ORDER BY l_country"));
    Alcotest.test_case "AggregateDataInTable with avg keeps hidden state" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country" ~table:"T"
             ~aggs:[ ("c", "avg") ]);
        (* USA: 2,1,1 -> 4/3; UK: 1,1,2 -> 4/3 *)
        Alcotest.(check (list row)) "avg per country"
          [ [ R.Text "UK"; R.Real (4. /. 3.) ]; [ R.Text "USA"; R.Real (4. /. 3.) ] ]
          (q ctx "SELECT l_country, c FROM T ORDER BY l_country"));
    Alcotest.test_case "AggregateDataInTable with no grouping columns" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all
             ~qq:"SELECT COUNT(*) AS c FROM LoggedIn" ~table:"T" ~aggs:[ ("c", "max") ]);
        Alcotest.(check (list row)) "global max" [ [ R.Int 3 ] ] (q ctx "SELECT c FROM T"));
    Alcotest.test_case "AggregateDataInTable sum turned REAL by a zero is written back" `Quick
      (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE s (k INTEGER, v)";
        e "INSERT INTO s VALUES (1, 5)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "UPDATE s SET v = 0.0";
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.aggregate_data_in_table ctx ~qs:qs_all ~qq:"SELECT k, v FROM s" ~table:"T"
             ~aggs:[ ("v", "sum") ]);
        (* SQL's SUM(v) over 5 and 0.0 is REAL 5.0, not INTEGER 5 *)
        Alcotest.(check string) "encoded" (R.encode_row [| R.Real 5. |])
          (match q ctx "SELECT v FROM T" with
          | [ [ v ] ] -> R.encode_row [| v |]
          | _ -> "not one row"));
    Alcotest.test_case "CollateDataIntoIntervals lifetimes (paper)" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (Rql.collate_data_into_intervals ctx ~qs:qs_all
             ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T");
        Alcotest.(check (list row)) "intervals"
          [ [ R.Text "UserA"; R.Int 1; R.Int 1 ];
            [ R.Text "UserB"; R.Int 1; R.Int 3 ];
            [ R.Text "UserC"; R.Int 1; R.Int 3 ];
            [ R.Text "UserD"; R.Int 3; R.Int 3 ] ]
          (q ctx "SELECT * FROM T ORDER BY l_userid"));
    Alcotest.test_case "intervals split when a record disappears and returns" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (u TEXT)";
        e "INSERT INTO t VALUES ('x')";
        ignore (Rql.declare_snapshot ctx);
        e "DELETE FROM t";
        ignore (Rql.declare_snapshot ctx);
        e "INSERT INTO t VALUES ('x')";
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.collate_data_into_intervals ctx ~qs:qs_all ~qq:"SELECT u FROM t" ~table:"T");
        Alcotest.(check (list row)) "two intervals"
          [ [ R.Text "x"; R.Int 1; R.Int 1 ]; [ R.Text "x"; R.Int 3; R.Int 3 ] ]
          (q ctx "SELECT * FROM T ORDER BY start_snapshot"));
    Alcotest.test_case "Qs can restrict and skip snapshots" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        let run =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1"
            ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T"
        in
        Alcotest.(check (list int)) "snapshots 1 and 3" [ 1; 3 ]
          (List.map (fun it -> it.Rql.Iter_stats.snap_id) run.Rql.Iter_stats.iterations));
    Alcotest.test_case "empty snapshot set rejected" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id > 99"
                  ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T");
             false
           with Rql.Error _ -> true));
    Alcotest.test_case "result table is recreated by a new run" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        let run1 =
          Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T"
        in
        let run2 =
          Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T"
        in
        Alcotest.(check int) "same size" run1.Rql.Iter_stats.result_rows
          run2.Rql.Iter_stats.result_rows);
    Alcotest.test_case "first iteration is cold, others hot" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        let run =
          Rql.collate_data ctx ~qs:qs_all ~qq:"SELECT l_userid FROM LoggedIn" ~table:"T"
        in
        match run.Rql.Iter_stats.iterations with
        | first :: rest ->
          Alcotest.(check bool) "cold" true first.Rql.Iter_stats.cold;
          List.iter
            (fun it -> Alcotest.(check bool) "hot" false it.Rql.Iter_stats.cold)
            rest
        | [] -> Alcotest.fail "no iterations");
    Alcotest.test_case "snapshot names recorded in SnapIds" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (E.exec ctx.Rql.data "CREATE TABLE t (x INTEGER)");
        ignore (Rql.declare_snapshot ~name:"before-audit" ctx);
        Alcotest.(check (list row)) "named"
          [ [ R.Int 1; R.Text "before-audit" ] ]
          (q ctx "SELECT snap_id, snap_name FROM SnapIds")) ]

let udf_form =
  [ Alcotest.test_case "CollateData via SQL UDF" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT CollateData(snap_id, 'SELECT DISTINCT l_userid, current_snapshot() AS \
              sid FROM LoggedIn', 'T') FROM SnapIds");
        Alcotest.(check int) "rows" 8 (List.length (q ctx "SELECT * FROM T"));
        match Rql.take_run ctx ~table:"T" with
        | Some run -> Alcotest.(check int) "iterations" 3 (List.length run.Rql.Iter_stats.iterations)
        | None -> Alcotest.fail "run not recorded");
    Alcotest.test_case "AggregateDataInVariable via SQL UDF" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT AggregateDataInVariable(snap_id, 'SELECT DISTINCT current_snapshot() AS \
              sid FROM LoggedIn WHERE l_userid = ''UserB'' ', 'T', 'min') FROM SnapIds");
        Alcotest.(check (list row)) "min" [ [ R.Int 1 ] ] (q ctx "SELECT * FROM T"));
    Alcotest.test_case "AggregateDataInTable via SQL UDF with pair list" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT AggregateDataInTable(snap_id, 'SELECT l_country, COUNT(*) AS c FROM \
              LoggedIn GROUP BY l_country', 'T', '(c,max)') FROM SnapIds");
        Alcotest.(check (list row)) "result"
          [ [ R.Text "UK"; R.Int 2 ]; [ R.Text "USA"; R.Int 2 ] ]
          (q ctx "SELECT l_country, c FROM T ORDER BY l_country"));
    Alcotest.test_case "Qs WHERE clause filters UDF iterations" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        ignore
          (E.exec ctx.Rql.meta
             "SELECT CollateDataIntoIntervals(snap_id, 'SELECT l_userid FROM LoggedIn', 'T') \
              FROM SnapIds WHERE snap_id >= 2");
        Alcotest.(check (list row)) "UserB interval starts at 2"
          [ [ R.Text "UserB"; R.Int 2; R.Int 3 ] ]
          (q ctx "SELECT * FROM T WHERE l_userid = 'UserB'"));
    Alcotest.test_case "re-running the same UDF statement restarts the run" `Quick (fun () ->
        let ctx = logged_in_ctx () in
        let stmt =
          "SELECT CollateData(snap_id, 'SELECT l_userid FROM LoggedIn', 'T') FROM SnapIds"
        in
        ignore (E.exec ctx.Rql.meta stmt);
        ignore (E.exec ctx.Rql.meta stmt);
        Alcotest.(check int) "not duplicated" 8 (List.length (q ctx "SELECT * FROM T"))) ]

(* --- equivalence properties over random histories ------------------------ *)

(* A random value of ev.v, as a SQL literal: NULL, INTEGER, REAL,
   numeric TEXT or non-numeric TEXT.  Every sum of these is exact in
   floating point (REALs are odd quarters), so a fold's result does not
   depend on the order it sees them in; and no REAL equals an INTEGER,
   so MIN/MAX never choose between two equal values, and comparing with
   SQL's aggregate does not depend on CollateData's heap order. *)
let random_value rng =
  match Random.State.int rng 8 with
  | 0 -> "NULL"
  | 1 | 2 | 3 -> string_of_int (Random.State.int rng 100 - 20)
  | 4 | 5 -> Printf.sprintf "%.2f" (float_of_int ((2 * Random.State.int rng 400) - 399) /. 4.)
  | 6 -> [| "'12'"; "'0'"; "' 2.5'" |].(Random.State.int rng 3)
  | _ -> [| "'abc'"; "'x'" |].(Random.State.int rng 2)

(* Build a random history over a small (u, g, v) table, at most one row
   per user; returns ctx. *)
let random_history seed rounds =
  let rng = Random.State.make [| seed |] in
  let ctx = Rql.create () in
  ignore (E.exec ctx.Rql.data "CREATE TABLE ev (u TEXT, g TEXT, v)");
  let users = [| "u1"; "u2"; "u3"; "u4" |] in
  let groups = [| "g1"; "g2" |] in
  for _ = 1 to rounds do
    let n_ops = 1 + Random.State.int rng 5 in
    for _ = 1 to n_ops do
      let u = users.(Random.State.int rng 4) in
      ignore (E.exec ctx.Rql.data (Printf.sprintf "DELETE FROM ev WHERE u = '%s'" u));
      if Random.State.bool rng then
        ignore
          (E.exec ctx.Rql.data
             (Printf.sprintf "INSERT INTO ev VALUES ('%s', '%s', %s)" u
                groups.(Random.State.int rng 2)
                (random_value rng)))
    done;
    ignore (Rql.declare_snapshot ctx)
  done;
  ctx

let sort_rows = List.sort compare

(* A result as its rows' encodings, sorted: INTEGER 1 and REAL 1.0
   differ. *)
let encoded rows = List.sort compare (List.map (fun r -> R.encode_row (Array.of_list r)) rows)

let show rows =
  String.concat "; " (List.map (fun r -> String.concat "," (List.map R.value_to_string r)) rows)

let agg_fns = [ "min"; "max"; "sum"; "count"; "avg" ]

(* Run [check] once per PRAGMA incremental setting and per form.  Its
   [run mech ~qq ~table] runs CollateData ([fn] absent), or an
   aggregation mechanism folding [fn] over the Qq's [v] column, through
   the API or as the SQL UDF over every snapshot. *)
let each_setting ctx check =
  List.iter
    (fun incremental ->
      ignore (E.exec ctx.Rql.data (Printf.sprintf "PRAGMA incremental=%b" incremental));
      List.iter
        (fun sql ->
          let run ?fn mech ~qq ~table =
            if sql then begin
              let lit s = "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'" in
              let arg =
                match mech, fn with
                | `Table, Some fn -> Printf.sprintf ", '(v,%s)'" fn
                | _, Some fn -> Printf.sprintf ", '%s'" fn
                | _, None -> ""
              in
              let name =
                match mech with
                | `Collate -> "CollateData"
                | `Var -> "AggregateDataInVariable"
                | `Table -> "AggregateDataInTable"
              in
              ignore
                (E.exec ctx.Rql.meta
                   (Printf.sprintf "SELECT %s(snap_id, %s, '%s'%s) FROM SnapIds" name (lit qq)
                      table arg))
            end
            else
              match mech, fn with
              | `Var, Some fn -> ignore (Rql.aggregate_data_in_variable ctx ~qs:qs_all ~qq ~table ~fn)
              | `Table, Some fn ->
                ignore (Rql.aggregate_data_in_table ctx ~qs:qs_all ~qq ~table ~aggs:[ ("v", fn) ])
              | _ -> ignore (Rql.collate_data ctx ~qs:qs_all ~qq ~table)
          in
          let setting =
            Printf.sprintf "incremental=%b, %s form" incremental (if sql then "SQL" else "API")
          in
          check ~setting run)
        [ false; true ])
    [ true; false ]

(* [rql] against [sql], encoded. *)
let same ~setting fn rql sql =
  if encoded rql <> encoded sql then
    QCheck.Test.fail_reportf "%s (%s): RQL gives %s, SQL gives %s" fn setting (show rql) (show sql)

(* Snapshot reducibility: every function, over a value column holding
   NULL, INTEGER, REAL and TEXT, equals SQL's GROUP BY over the
   collected per-snapshot answers, encoding included: grouped by a
   column unique within a snapshot (u), by one that repeats within a
   snapshot (g), and by none, where T has a row only if CollateData
   collected one. *)
let prop_aggtable_equals_collate =
  QCheck.Test.make ~name:"AggregateDataInTable == CollateData + SQL GROUP BY" ~count:15
    (* no shrinking: it would try fewer than 2 rounds, where Qs has no
       snapshot, and report that instead of the mismatch *)
    QCheck.(set_shrink Shrink.nil (pair (int_bound 10_000) (int_range 2 8)))
    (fun (seed, rounds) ->
      let ctx = random_history seed rounds in
      let grouped g =
        ( "SELECT " ^ g ^ ", v FROM ev",
          g ^ ", v",
          fun fn -> Printf.sprintf "SELECT %s, %s(v) FROM Col GROUP BY %s" g fn g )
      in
      let ungrouped =
        ("SELECT v FROM ev", "v", Printf.sprintf "SELECT %s(v) FROM Col HAVING COUNT(*) > 0")
      in
      each_setting ctx (fun ~setting run ->
          List.iter
            (fun (qq, cols, sql) ->
              run `Collate ~qq ~table:"Col";
              List.iter
                (fun fn ->
                  let table = "Agg_" ^ fn in
                  run ~fn `Table ~qq ~table;
                  same ~setting (qq ^ ", " ^ fn)
                    (q ctx (Printf.sprintf "SELECT %s FROM %s" cols table))
                    (q ctx (sql fn)))
                agg_fns)
            [ grouped "u"; grouped "g"; ungrouped ]);
      true)

(* The same for the single value, with a Qq that returns no row at the
   snapshots u1 is absent from. *)
let prop_aggvar_equals_collate =
  QCheck.Test.make ~name:"AggregateDataInVariable == CollateData + SQL aggregate" ~count:15
    (* no shrinking: it would try fewer than 2 rounds, where Qs has no
       snapshot, and report that instead of the mismatch *)
    QCheck.(set_shrink Shrink.nil (pair (int_bound 10_000) (int_range 2 8)))
    (fun (seed, rounds) ->
      let ctx = random_history seed rounds in
      let qq = "SELECT v FROM ev WHERE u = 'u1'" in
      each_setting ctx (fun ~setting run ->
          run `Collate ~qq ~table:"C";
          List.iter
            (fun fn ->
              let table = "V_" ^ fn in
              run ~fn `Var ~qq ~table;
              same ~setting fn
                (q ctx ("SELECT * FROM " ^ table))
                (q ctx (Printf.sprintf "SELECT %s(v) FROM C" fn)))
            agg_fns);
      true)

(* Interval reconstruction: expanding each [start, end] interval over the
   snapshot ids must reproduce the per-snapshot membership that
   CollateData records. *)
let prop_intervals_reconstruct =
  QCheck.Test.make ~name:"CollateDataIntoIntervals reconstructs CollateData" ~count:15
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, rounds) ->
      let ctx = random_history seed rounds in
      ignore
        (Rql.collate_data_into_intervals ctx ~qs:qs_all ~qq:"SELECT DISTINCT u FROM ev"
           ~table:"I");
      ignore
        (Rql.collate_data ctx ~qs:qs_all
           ~qq:"SELECT DISTINCT u, current_snapshot() AS sid FROM ev" ~table:"C");
      let expanded =
        List.concat_map
          (fun r ->
            match r with
            | [ u; R.Int s; R.Int e ] -> List.init (e - s + 1) (fun i -> [ u; R.Int (s + i) ])
            | _ -> assert false)
          (q ctx "SELECT * FROM I")
      in
      sort_rows expanded = sort_rows (q ctx "SELECT u, sid FROM C"))

(* The memory claim of §5.3: the interval table never has more rows than
   the collate table. *)
let prop_intervals_compact =
  QCheck.Test.make ~name:"interval representation is never larger" ~count:15
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, rounds) ->
      let ctx = random_history seed rounds in
      let ri =
        Rql.collate_data_into_intervals ctx ~qs:qs_all ~qq:"SELECT DISTINCT u FROM ev"
          ~table:"I"
      in
      let rc =
        Rql.collate_data ctx ~qs:qs_all
          ~qq:"SELECT DISTINCT u, current_snapshot() AS sid FROM ev" ~table:"C"
      in
      ri.Rql.Iter_stats.result_rows <= rc.Rql.Iter_stats.result_rows)

let () =
  Alcotest.run "rql"
    [ ("mechanisms", mechanisms);
      ("udf-form", udf_form);
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [ prop_aggtable_equals_collate; prop_aggvar_equals_collate;
            prop_intervals_reconstruct; prop_intervals_compact ] ) ]
