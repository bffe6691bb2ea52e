(* Parser tests: statement shapes, precedence, the AS OF extension, and
   error reporting. *)

open Sqldb.Ast
module Parser = Sqldb.Parser
module R = Storage.Record

let parse = Parser.parse_one

let sel s = match parse s with Select sel -> sel | _ -> Alcotest.fail "expected SELECT"

let tests =
  [ Alcotest.test_case "select star" `Quick (fun () ->
        let s = sel "SELECT * FROM t" in
        Alcotest.(check bool) "star" true (s.items = [ Star ]);
        (match s.from with
        | Some (tr, []) -> Alcotest.(check string) "table" "t" tr.tbl_name
        | _ -> Alcotest.fail "from"));
    Alcotest.test_case "as of clause" `Quick (fun () ->
        let s = sel "SELECT AS OF 3 * FROM t" in
        Alcotest.(check bool) "as_of" true (s.as_of = Some (Lit (R.Int 3))));
    Alcotest.test_case "as of with distinct (paper form)" `Quick (fun () ->
        let s = sel "SELECT AS OF 5 DISTINCT 5 FROM LoggedIn WHERE l_userid = 'UserB'" in
        Alcotest.(check bool) "as_of" true (s.as_of = Some (Lit (R.Int 5)));
        Alcotest.(check bool) "distinct" true s.distinct);
    Alcotest.test_case "arithmetic precedence" `Quick (fun () ->
        let s = sel "SELECT 1 + 2 * 3" in
        match s.items with
        | [ Sel_expr (Binop (Add, Lit (R.Int 1), Binop (Mul, Lit (R.Int 2), Lit (R.Int 3))), None) ]
          -> ()
        | _ -> Alcotest.fail "precedence");
    Alcotest.test_case "and/or precedence" `Quick (fun () ->
        let s = sel "SELECT 1 FROM t WHERE a OR b AND c" in
        match s.where with
        | Some (Binop (Or, Col (None, "a"), Binop (And, Col (None, "b"), Col (None, "c")))) -> ()
        | _ -> Alcotest.fail "precedence");
    Alcotest.test_case "comparison chain with NOT" `Quick (fun () ->
        let s = sel "SELECT 1 FROM t WHERE NOT a = 1" in
        match s.where with
        | Some (Unop (Not, Binop (Eq, Col (None, "a"), Lit (R.Int 1)))) -> ()
        | _ -> Alcotest.fail "not");
    Alcotest.test_case "between / in / like / is null" `Quick (fun () ->
        let s =
          sel
            "SELECT 1 FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1,2) AND c LIKE 'x%' AND d IS \
             NOT NULL"
        in
        Alcotest.(check int) "conjuncts" 4 (List.length (Sqldb.Expr.conjuncts (Option.get s.where))));
    Alcotest.test_case "group by / having / order / limit / offset" `Quick (fun () ->
        let s =
          sel
            "SELECT a, COUNT(*) AS c FROM t GROUP BY a HAVING c > 1 ORDER BY c DESC, a ASC \
             LIMIT 10 OFFSET 5"
        in
        Alcotest.(check int) "group" 1 (List.length s.group_by);
        Alcotest.(check bool) "having" true (s.having <> None);
        Alcotest.(check (list bool)) "order desc flags" [ true; false ]
          (List.map (fun o -> o.ord_desc) s.order_by);
        Alcotest.(check bool) "limit" true (s.limit = Some (Lit (R.Int 10)));
        Alcotest.(check bool) "offset" true (s.offset = Some (Lit (R.Int 5))));
    Alcotest.test_case "joins: comma and JOIN..ON" `Quick (fun () ->
        let s = sel "SELECT 1 FROM a, b JOIN c ON a.x = c.x" in
        match s.from with
        | Some (first, [ j1; j2 ]) ->
          Alcotest.(check string) "first" "a" first.tbl_name;
          Alcotest.(check string) "comma join" "b" j1.join_table.tbl_name;
          Alcotest.(check bool) "no on" true (j1.join_on = None);
          Alcotest.(check string) "join" "c" j2.join_table.tbl_name;
          Alcotest.(check bool) "has on" true (j2.join_on <> None)
        | _ -> Alcotest.fail "from");
    Alcotest.test_case "table aliases with and without AS" `Quick (fun () ->
        let s = sel "SELECT 1 FROM orders o, lineitem AS l" in
        match s.from with
        | Some (first, [ j ]) ->
          Alcotest.(check (option string)) "o" (Some "o") first.tbl_alias;
          Alcotest.(check (option string)) "l" (Some "l") j.join_table.tbl_alias
        | _ -> Alcotest.fail "from");
    Alcotest.test_case "aggregates and count(*)" `Quick (fun () ->
        let s = sel "SELECT COUNT(*), SUM(x), AVG(y), COUNT(DISTINCT z) FROM t" in
        match s.items with
        | [ Sel_expr (Agg a1, None); Sel_expr (Agg a2, None); Sel_expr (Agg a3, None);
            Sel_expr (Agg a4, None) ] ->
          Alcotest.(check bool) "count" true (a1.agg_fn = Count);
          Alcotest.(check bool) "star" true (a1.agg_arg = None);
          Alcotest.(check bool) "sum" true (a2.agg_fn = Sum);
          Alcotest.(check bool) "avg" true (a3.agg_fn = Avg);
          Alcotest.(check bool) "distinct" true a4.agg_distinct
        | _ -> Alcotest.fail "aggregates");
    Alcotest.test_case "min/max with two args are scalar calls" `Quick (fun () ->
        let s = sel "SELECT MAX(a, b) FROM t" in
        match s.items with
        | [ Sel_expr (Call ("max", [ _; _ ]), None) ] -> ()
        | _ -> Alcotest.fail "scalar max");
    Alcotest.test_case "case expression" `Quick (fun () ->
        let s = sel "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END FROM t" in
        match s.items with
        | [ Sel_expr (Case { branches = [ _ ]; else_ = Some _ }, None) ] -> ()
        | _ -> Alcotest.fail "case");
    Alcotest.test_case "insert values multi-row" `Quick (fun () ->
        match parse "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')" with
        | Insert { table = "t"; columns = Some [ "a"; "b" ]; values = [ _; _ ]; from_select = None }
          -> ()
        | _ -> Alcotest.fail "insert");
    Alcotest.test_case "insert from select" `Quick (fun () ->
        match parse "INSERT INTO t SELECT * FROM s" with
        | Insert { from_select = Some _; values = []; _ } -> ()
        | _ -> Alcotest.fail "insert select");
    Alcotest.test_case "update and delete" `Quick (fun () ->
        (match parse "UPDATE t SET a = 1, b = b + 1 WHERE c = 2" with
        | Update { sets = [ ("a", _); ("b", _) ]; where = Some _; _ } -> ()
        | _ -> Alcotest.fail "update");
        match parse "DELETE FROM t" with
        | Delete { where = None; _ } -> ()
        | _ -> Alcotest.fail "delete");
    Alcotest.test_case "create table with types" `Quick (fun () ->
        match parse "CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE PRECISION)" with
        | Create_table { cols = [ a; b; c ]; _ } ->
          Alcotest.(check string) "a" "INTEGER" a.col_type;
          Alcotest.(check string) "b" "VARCHAR" b.col_type;
          Alcotest.(check string) "c" "DOUBLE PRECISION" c.col_type
        | _ -> Alcotest.fail "create");
    Alcotest.test_case "create table as select" `Quick (fun () ->
        match parse "CREATE TABLE t AS SELECT a FROM s" with
        | Create_table { as_select = Some _; cols = []; _ } -> ()
        | _ -> Alcotest.fail "ctas");
    Alcotest.test_case "create index / drop" `Quick (fun () ->
        (match parse "CREATE INDEX i ON t (a, b)" with
        | Create_index { index = "i"; table = "t"; columns = [ "a"; "b" ]; _ } -> ()
        | _ -> Alcotest.fail "index");
        (match parse "DROP TABLE IF EXISTS t" with
        | Drop_table { if_exists = true; _ } -> ()
        | _ -> Alcotest.fail "drop table");
        match parse "DROP INDEX i" with
        | Drop_index { if_exists = false; _ } -> ()
        | _ -> Alcotest.fail "drop index");
    Alcotest.test_case "transactions" `Quick (fun () ->
        Alcotest.(check bool) "begin" true (parse "BEGIN" = Begin_txn);
        Alcotest.(check bool) "commit" true (parse "COMMIT" = Commit { with_snapshot = false });
        Alcotest.(check bool) "commit with snapshot" true
          (parse "COMMIT WITH SNAPSHOT;" = Commit { with_snapshot = true });
        Alcotest.(check bool) "rollback" true (parse "ROLLBACK" = Rollback));
    Alcotest.test_case "parse_many splits statements" `Quick (fun () ->
        Alcotest.(check int) "three" 3
          (List.length (Parser.parse_many "BEGIN; DELETE FROM t; COMMIT WITH SNAPSHOT;")));
    Alcotest.test_case "trailing garbage rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (parse "SELECT 1 garbage extra");
             false
           with Sqldb.Engine.Error _ -> true));
    Alcotest.test_case "udf call with string args" `Quick (fun () ->
        let s = sel "SELECT CollateData(snap_id, 'SELECT 1', 'T') FROM SnapIds" in
        match s.items with
        | [ Sel_expr (Call ("collatedata", [ Col (None, "snap_id"); Lit (R.Text _); Lit (R.Text "T") ]), None) ]
          -> ()
        | _ -> Alcotest.fail "udf call") ]

(* Parse errors name the offending token's line:column. *)
let golden name sql expected =
  Alcotest.test_case name `Quick (fun () ->
      match parse sql with
      | _ -> Alcotest.fail "expected a parse error"
      | exception Sqldb.Engine.Error msg -> Alcotest.(check string) sql expected msg)

let error_tests =
  [ golden "missing FROM" "DELETE t" "SQL parser: parse error at 1:8: expected FROM but found t";
    golden "missing identifier" "SELECT a FROM"
      "SQL parser: parse error at 1:14: expected identifier but found <eof>";
    golden "trailing input" "DELETE FROM t 5"
      "SQL parser: parse error at 1:15: trailing input after statement: 5";
    golden "error position tracks newlines" "SELECT a\nFROM t\nWHERE"
      "SQL parser: parse error at 3:6: unexpected token <eof> in expression" ]

let () = Alcotest.run "parser" [ ("parser", tests); ("errors", error_tests) ]
