(* Static analyzer tests: the diagnostic catalogue (E0xx errors, W1xx
   warnings), source positions, the execution gate (errors raise before
   planning, warnings do not block), EXPLAIN LINT's row rendering, the
   RQL Qs/Qq contracts, and the two "fail before touching anything"
   regressions — DML atomicity and the zero-page-read Qq reject. *)

module R = Storage.Record
module E = Sqldb.Engine
module D = Sqldb.Diag
module M = Obs.Metrics

let get = M.Counter.get
let c_aerr = M.counter "sql.analyzer_errors"
let c_awarn = M.counter "sql.analyzer_warnings"
let c_page_writes = M.counter "storage.db_page_writes"
let c_maplog_scanned = M.counter "retro.maplog_scanned"
let c_pagelog_reads = M.counter "storage.pagelog_reads"

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* Shared fixture: two tables with an overlapping column name, a native
   index on t(a) for the sargability warning, and no registered UDFs. *)
let fresh () =
  let db = E.create ~snapshots:false () in
  ignore (E.exec db "CREATE TABLE t (a INTEGER, b TEXT)");
  ignore (E.exec db "CREATE TABLE u (a INTEGER, c REAL)");
  ignore (E.exec db "CREATE INDEX it ON t (a)");
  ignore (E.exec db "INSERT INTO t VALUES (1, 'x')");
  ignore (E.exec db "INSERT INTO t VALUES (2, 'y')");
  db

let codes db sql = List.map (fun d -> d.D.code) (E.analyze db sql)

(* One row of the diagnostic-catalogue table: statement -> exact codes. *)
let case name sql expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) sql expected (codes (fresh ()) sql))

let catalogue =
  [ (* name resolution *)
    case "E001 unknown table" "SELECT * FROM nope" [ "E001" ];
    case "E001 unknown DELETE target" "DELETE FROM nope" [ "E001" ];
    case "E002 unknown column" "SELECT zzz FROM t" [ "E002" ];
    case "E002 qualified unknown column" "SELECT t.zzz FROM t" [ "E002" ];
    case "E002 unknown ORDER BY column" "SELECT a FROM t ORDER BY zzz" [ "E002" ];
    case "E002 unknown UPDATE column" "UPDATE t SET zzz = 1" [ "E002" ];
    case "E003 ambiguous column" "SELECT a FROM t, u" [ "E003" ];
    case "E004 unknown function" "SELECT frob(a) FROM t" [ "E004" ];
    (* arity and aggregate shape *)
    case "E005 builtin arity (too many)" "SELECT length(a, b) FROM t" [ "E005" ];
    case "E005 builtin arity (too few)" "SELECT substr(b) FROM t" [ "E005" ];
    case "E006 nested aggregate" "SELECT SUM(COUNT(a)) FROM t" [ "E006" ];
    case "E007 aggregate in WHERE" "SELECT a FROM t WHERE SUM(a) > 1" [ "E007" ];
    (* widths *)
    (* the indexed-column comparison also draws the sargability warning *)
    case "E008 wide scalar subquery" "SELECT a FROM t WHERE a = (SELECT a, c FROM u)"
      [ "E008"; "W101" ];
    case "E008 wide IN subquery" "SELECT a FROM t WHERE a IN (SELECT a, c FROM u)"
      [ "E008" ];
    case "E009 VALUES arity" "INSERT INTO t VALUES (1)" [ "E009" ];
    case "E009 INSERT-SELECT width" "INSERT INTO t SELECT a FROM u" [ "E009" ];
    case "E012 UNION width" "SELECT a FROM t UNION SELECT a, c FROM u" [ "E012" ];
    (* typing *)
    case "E010 non-integer AS OF" "SELECT AS OF 'three' a FROM t" [ "E010" ];
    case "E011 text LIMIT" "SELECT a FROM t LIMIT 'x'" [ "E011" ];
    case "E011 text OFFSET" "SELECT a FROM t LIMIT 1 OFFSET 'x'" [ "E011" ];
    (* sys_ namespace *)
    case "E013 CREATE in sys_ namespace" "CREATE TABLE sys_x (a INTEGER)" [ "E013" ];
    case "E013 DML against sys_ table" "DELETE FROM sys_metrics" [ "E013" ];
    (* RQL builtin outside a loop *)
    case "E020 current_snapshot outside loop" "SELECT a FROM t WHERE a = current_snapshot()"
      [ "E020" ];
    case "E005 current_snapshot with args" "SELECT current_snapshot(1) FROM t"
      [ "E005"; "E020" ];
    (* warnings *)
    case "W101 subquery bound defeats index" "SELECT a FROM t WHERE a = (SELECT a FROM u)"
      [ "W101" ];
    (* the analyzer's syntactic W102 is joined by the optimizer's proof
       (W201: the folded predicate collapses the scan to empty) *)
    case "W102 always-false predicate" "SELECT a FROM t WHERE 1 = 2" [ "W102"; "W201" ];
    case "W102 constant NULL predicate" "SELECT a FROM t WHERE NULL" [ "W102"; "W201" ];
    case "W103 cross-affinity comparison" "SELECT a FROM t WHERE a = 'x'" [ "W103" ];
    case "W104 duplicate CREATE column" "CREATE TABLE d (x INTEGER, x TEXT)" [ "W104" ];
    (* clean statements stay clean *)
    case "clean SELECT" "SELECT a, b FROM t WHERE a > 1 ORDER BY a LIMIT 1" [];
    case "clean join" "SELECT t.a, u.c FROM t, u WHERE t.a = u.a" [];
    case "clean aggregate" "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 0" [] ]

(* The analyzer never rejects a statement the executor runs: CAST to a
   type name the evaluator leaves the value unchanged under keeps the
   operand's type, and a builtin's E005 range is the argument counts
   Func accepts. *)
let soundness =
  [ Alcotest.test_case "LIMIT, OFFSET and AS OF over a value-preserving CAST run" `Quick
      (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2), (3)");
        ignore (E.exec db "COMMIT WITH SNAPSHOT");
        List.iter
          (fun ty ->
            List.iter
              (fun (sql, rows) ->
                let sql = Printf.sprintf sql ty in
                Alcotest.(check (list string)) sql []
                  (List.filter_map
                     (fun d -> if D.is_error d then Some d.D.code else None)
                     (E.analyze db sql));
                Alcotest.(check int) sql rows (List.length (E.exec db sql).E.rows))
              [ ("SELECT a FROM t LIMIT CAST(2 AS %s)", 2);
                ("SELECT a FROM t LIMIT 5 OFFSET CAST(1 AS %s)", 2);
                ("SELECT AS OF CAST(1 AS %s) COUNT(*) FROM t", 1) ])
          [ "NUMERIC"; "DECIMAL"; "BLOB"; "WIDGET" ]);
    Alcotest.test_case "no W103 on a CAST that leaves its operand unchanged" `Quick (fun () ->
        Alcotest.(check (list string)) "text stays text" []
          (codes (fresh ()) "SELECT a FROM t WHERE CAST(b AS NUMERIC) = 'x'"));
    Alcotest.test_case "E005 arity ranges are the counts Func accepts" `Quick (fun () ->
        (* lo - 1, lo, hi and hi + 1 arguments, where the bound is
           finite; MIN(1) and MAX(1) parse as aggregates, which the
           analyzer accepts as Func accepts one argument.  A count out
           of range must raise a typed Expr.Error. *)
        let db = fresh () in
        List.iter
          (fun (name, _) ->
            let f = Option.get (Sqldb.Func.find name) in
            let lo, hi = Option.get (Sqldb.Func.arity name) in
            let counts =
              List.filter (fun n -> n >= 0) [ lo - 1; lo ]
              @ if hi = max_int then [] else [ hi; hi + 1 ]
            in
            List.iter
              (fun n ->
                let args = String.concat ", " (List.init n (fun _ -> "1")) in
                let sql = Printf.sprintf "SELECT %s(%s)" name args in
                let runs =
                  match f (Array.make n (R.Int 1)) with
                  | _ -> true
                  | exception Sqldb.Expr.Error _ -> false
                in
                Alcotest.(check bool) sql runs (not (List.mem "E005" (codes db sql))))
              counts)
          Sqldb.Analyzer.builtin_sigs) ]

let diag_detail =
  [ Alcotest.test_case "diagnostics carry positions" `Quick (fun () ->
        match E.analyze (fresh ()) "SELECT zzz FROM t" with
        | [ d ] ->
          Alcotest.(check string) "code" "E002" d.D.code;
          Alcotest.(check bool) "is error" true (D.is_error d);
          (match d.D.pos with
          | Some p ->
            Alcotest.(check int) "line" 1 p.Sqldb.Lexer.line;
            Alcotest.(check int) "col" 8 p.Sqldb.Lexer.col
          | None -> Alcotest.fail "expected a position");
          Alcotest.(check bool) "render form" true
            (contains (D.render d) "error E002 at 1:8:")
        | _ -> Alcotest.fail "expected exactly one diagnostic");
    Alcotest.test_case "errors order before warnings" `Quick (fun () ->
        (* source order within a severity, all errors first *)
        let cs = codes (fresh ()) "SELECT zzz FROM t WHERE 1 = 2" in
        Alcotest.(check (list string)) "order" [ "E002"; "W102" ] cs);
    Alcotest.test_case "EXPLAIN LINT analyzes the inner statement" `Quick (fun () ->
        Alcotest.(check (list string)) "unwrapped" [ "E002" ]
          (codes (fresh ()) "EXPLAIN LINT SELECT zzz FROM t")) ]

let explain_lint =
  [ Alcotest.test_case "EXPLAIN LINT renders diagnostics as rows" `Quick (fun () ->
        let db = fresh () in
        let res = E.exec db "EXPLAIN LINT SELECT zzz FROM t WHERE 1 = 2" in
        Alcotest.(check (array string)) "header"
          [| "severity"; "code"; "pos"; "message" |] res.E.columns;
        match res.E.rows with
        | [ [| R.Text sev1; R.Text c1; R.Text p1; R.Text m1 |];
            [| R.Text sev2; R.Text c2; _; R.Text _ |] ] ->
          Alcotest.(check string) "severity" "error" sev1;
          Alcotest.(check string) "code" "E002" c1;
          Alcotest.(check string) "pos" "1:21" p1;
          Alcotest.(check bool) "message" true (contains m1 "zzz");
          Alcotest.(check string) "warning severity" "warning" sev2;
          Alcotest.(check string) "warning code" "W102" c2
        | _ -> Alcotest.fail "expected an error row then a warning row");
    Alcotest.test_case "EXPLAIN LINT of a clean statement yields no rows" `Quick (fun () ->
        let res = E.exec (fresh ()) "EXPLAIN LINT SELECT a FROM t" in
        Alcotest.(check int) "no rows" 0 (List.length res.E.rows)) ]

let gate =
  [ Alcotest.test_case "exec raises a coded, positioned error" `Quick (fun () ->
        let db = fresh () in
        let e0 = get c_aerr in
        (try
           ignore (E.exec db "SELECT zzz FROM t");
           Alcotest.fail "expected the analyzer gate to raise"
         with E.Error msg ->
           Alcotest.(check bool) "code in message" true (contains msg "E002");
           Alcotest.(check bool) "position in message" true (contains msg "at 1:8"));
        Alcotest.(check int) "error counted" 1 (get c_aerr - e0));
    Alcotest.test_case "prepare is gated too" `Quick (fun () ->
        let db = fresh () in
        try
          ignore (E.prepare db "SELECT zzz FROM t WHERE a = ?");
          Alcotest.fail "expected prepare to raise"
        with E.Error msg -> Alcotest.(check bool) "code" true (contains msg "E002"));
    Alcotest.test_case "warned statement still executes" `Quick (fun () ->
        let db = fresh () in
        let w0 = get c_awarn in
        let res = E.exec db "SELECT a FROM t WHERE a = 'x'" in
        Alcotest.(check int) "runs (and matches nothing)" 0 (List.length res.E.rows);
        Alcotest.(check int) "warning counted" 1 (get c_awarn - w0));
    Alcotest.test_case "analyze alone does not touch the gate counters" `Quick (fun () ->
        let db = fresh () in
        let e0 = get c_aerr and w0 = get c_awarn in
        ignore (E.analyze db "SELECT zzz FROM t WHERE 1 = 2");
        Alcotest.(check int) "no errors counted" 0 (get c_aerr - e0);
        Alcotest.(check int) "no warnings counted" 0 (get c_awarn - w0)) ]

let atomicity =
  [ Alcotest.test_case "rejected UPDATE/DELETE touch no rows and no pages" `Quick
      (fun () ->
        let db = fresh () in
        let before = (E.exec db "SELECT a, b FROM t ORDER BY a").E.rows in
        let p0 = get c_page_writes in
        let rejected sql =
          try
            ignore (E.exec db sql);
            false
          with E.Error msg -> contains msg "E002"
        in
        Alcotest.(check bool) "UPDATE rejected" true (rejected "UPDATE t SET zzz = 1");
        Alcotest.(check bool) "UPDATE WHERE rejected" true
          (rejected "UPDATE t SET a = 9 WHERE zzz = 1");
        Alcotest.(check bool) "DELETE rejected" true (rejected "DELETE FROM t WHERE zzz = 1");
        Alcotest.(check int) "no page writes" 0 (get c_page_writes - p0);
        Alcotest.(check bool) "rows untouched" true
          ((E.exec db "SELECT a, b FROM t ORDER BY a").E.rows = before)) ]

(* The RQL contracts, via the engine front doors the loop mechanisms use. *)
let rql_contracts =
  [ Alcotest.test_case "Qq mode admits current_snapshot()" `Quick (fun () ->
        E.analyze_qq (fresh ()) "SELECT a FROM t WHERE a = current_snapshot()");
    Alcotest.test_case "E022 non-SELECT Qq" `Quick (fun () ->
        try
          E.analyze_qq (fresh ()) "DELETE FROM t";
          Alcotest.fail "expected E022"
        with E.Error msg -> Alcotest.(check bool) "code" true (contains msg "E022"));
    Alcotest.test_case "W106 Qq with its own AS OF" `Quick (fun () ->
        let db = fresh () in
        let w0 = get c_awarn in
        E.analyze_qq db "SELECT AS OF 1 a FROM t";
        Alcotest.(check int) "warned, not rejected" 1 (get c_awarn - w0));
    Alcotest.test_case "Qs must project one column (E021)" `Quick (fun () ->
        let db = fresh () in
        E.analyze_qs db "SELECT a FROM t";
        try
          E.analyze_qs db "SELECT a, b FROM t";
          Alcotest.fail "expected E021"
        with E.Error msg -> Alcotest.(check bool) "code" true (contains msg "E021"));
    Alcotest.test_case "non-SELECT Qs is E021" `Quick (fun () ->
        try
          E.analyze_qs (fresh ()) "DELETE FROM t";
          Alcotest.fail "expected E021"
        with E.Error msg -> Alcotest.(check bool) "code" true (contains msg "E021"));
    Alcotest.test_case "W105 non-integer Qs projection" `Quick (fun () ->
        let db = fresh () in
        let w0 = get c_awarn in
        E.analyze_qs db "SELECT b FROM t";
        Alcotest.(check int) "warned" 1 (get c_awarn - w0)) ]

let rql_gate =
  [ Alcotest.test_case "bad Qq fails before any snapshot work" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (Rql.exec_data ctx "CREATE TABLE t (x INTEGER)");
        for i = 1 to 3 do
          ignore (Rql.exec_data ctx (Printf.sprintf "INSERT INTO t VALUES (%d)" i));
          ignore (Rql.declare_snapshot ctx)
        done;
        (* a good run first, so the archive paths are warm and any page
           reads below would be attributable to the bad run *)
        ignore (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                  ~qq:"SELECT x FROM t" ~table:"Good");
        let m0 = get c_maplog_scanned and r0 = get c_pagelog_reads in
        (try
           ignore (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                     ~qq:"SELECT nope FROM t" ~table:"Bad");
           Alcotest.fail "expected the Qq gate to raise"
         with Rql.Error msg ->
           Alcotest.(check bool) "coded" true (contains msg "E002"));
        Alcotest.(check int) "no SPT builds" 0 (get c_maplog_scanned - m0);
        Alcotest.(check int) "no archive page reads" 0 (get c_pagelog_reads - r0);
        Alcotest.(check bool) "result table not created" true
          (try
             ignore (E.exec ctx.Rql.meta "SELECT * FROM Bad");
             false
           with E.Error _ -> true));
    Alcotest.test_case "bad Qs rejected before execution" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (Rql.exec_data ctx "CREATE TABLE t (x INTEGER)");
        ignore (Rql.declare_snapshot ctx);
        try
          ignore (Rql.collate_data ctx ~qs:"SELECT snap_id, name FROM SnapIds"
                    ~qq:"SELECT x FROM t" ~table:"T");
          Alcotest.fail "expected the Qs gate to raise"
        with Rql.Error msg -> Alcotest.(check bool) "coded" true (contains msg "E021")) ]

let () =
  Alcotest.run "analyzer"
    [ ("catalogue", catalogue);
      ("soundness", soundness);
      ("diagnostics", diag_detail);
      ("explain-lint", explain_lint);
      ("gate", gate);
      ("atomicity", atomicity);
      ("rql-contracts", rql_contracts);
      ("rql-gate", rql_gate) ]
