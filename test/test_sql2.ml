(* Tests for the extended SQL surface: LEFT JOIN, subqueries (scalar /
   IN / EXISTS), UNION [ALL], CAST and EXPLAIN. *)

module R = Storage.Record
module E = Sqldb.Engine

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows

let fresh () =
  let db = E.create ~snapshots:false () in
  ignore (E.exec db "CREATE TABLE emp (id INTEGER, name TEXT, dept INTEGER, salary INTEGER)");
  ignore (E.exec db "CREATE TABLE dept (did INTEGER, dname TEXT)");
  ignore
    (E.exec db
       "INSERT INTO emp VALUES (1,'ann',10,100), (2,'bob',20,200), (3,'cid',NULL,150), \
        (4,'dee',30,300)");
  ignore (E.exec db "INSERT INTO dept VALUES (10,'eng'), (20,'ops')");
  db

let left_join =
  [ Alcotest.test_case "unmatched rows padded with nulls" `Quick (fun () ->
        let db = fresh () in
        let res =
          E.exec db
            "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.did ORDER BY name"
        in
        Alcotest.(check (list row)) "rows"
          [ [ R.Text "ann"; R.Text "eng" ]; [ R.Text "bob"; R.Text "ops" ];
            [ R.Text "cid"; R.Null ]; [ R.Text "dee"; R.Null ] ]
          (rows_of res));
    Alcotest.test_case "where after left join filters padded rows" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check int) "only unmatched" 2
          (E.int_scalar db
             "SELECT COUNT(*) FROM emp LEFT JOIN dept ON emp.dept = dept.did WHERE dname IS \
              NULL"));
    Alcotest.test_case "on condition filters inner side only" `Quick (fun () ->
        let db = fresh () in
        let res =
          E.exec db
            "SELECT name, dname FROM emp LEFT JOIN dept ON emp.dept = dept.did AND dname <> \
             'ops' ORDER BY name"
        in
        Alcotest.(check (list row)) "ops filtered to null"
          [ [ R.Text "ann"; R.Text "eng" ]; [ R.Text "bob"; R.Null ]; [ R.Text "cid"; R.Null ];
            [ R.Text "dee"; R.Null ] ]
          (rows_of res));
    Alcotest.test_case "left join without on rejected" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "SELECT * FROM emp LEFT JOIN dept");
             false
           with E.Error _ -> true)) ]

let subqueries =
  [ Alcotest.test_case "scalar subquery" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "max salary" (R.Int 300)
          (E.scalar db "SELECT (SELECT MAX(salary) FROM emp)"));
    Alcotest.test_case "scalar subquery in where" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "top earner" (R.Text "dee")
          (E.scalar db "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)"));
    Alcotest.test_case "empty scalar subquery is null" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "null" R.Null
          (E.scalar db "SELECT (SELECT salary FROM emp WHERE id = 99)"));
    Alcotest.test_case "in (select ...)" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check int) "members of real depts" 2
          (E.int_scalar db "SELECT COUNT(*) FROM emp WHERE dept IN (SELECT did FROM dept)"));
    Alcotest.test_case "not in (select ...) with null subject" `Quick (fun () ->
        let db = fresh () in
        (* cid's NULL dept is unknown, dee's 30 is not in the list *)
        Alcotest.(check int) "not in" 1
          (E.int_scalar db
             "SELECT COUNT(*) FROM emp WHERE dept NOT IN (SELECT did FROM dept)"));
    Alcotest.test_case "exists and not exists" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "exists" (R.Int 1)
          (E.scalar db "SELECT EXISTS (SELECT 1 FROM dept WHERE did = 10)");
        Alcotest.(check value) "not exists" (R.Int 1)
          (E.scalar db "SELECT NOT EXISTS (SELECT 1 FROM dept WHERE did = 99)"));
    Alcotest.test_case "subquery in insert values" `Quick (fun () ->
        let db = fresh () in
        ignore
          (E.exec db
             "INSERT INTO emp VALUES ((SELECT MAX(id) FROM emp) + 1, 'eve', 10, 50)");
        Alcotest.(check value) "id assigned" (R.Int 5)
          (E.scalar db "SELECT id FROM emp WHERE name = 'eve'"));
    Alcotest.test_case "subquery in delete" `Quick (fun () ->
        let db = fresh () in
        ignore (E.exec db "DELETE FROM emp WHERE dept IN (SELECT did FROM dept)");
        Alcotest.(check int) "remaining" 2 (E.int_scalar db "SELECT COUNT(*) FROM emp"));
    Alcotest.test_case "multi-column scalar subquery rejected" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "SELECT (SELECT id, name FROM emp)");
             false
           with E.Error _ -> true)) ]

let unions =
  [ Alcotest.test_case "union deduplicates" `Quick (fun () ->
        let db = fresh () in
        let res =
          E.exec db "SELECT dept FROM emp WHERE dept = 10 UNION SELECT did FROM dept ORDER BY 1"
        in
        Alcotest.(check (list row)) "dedup" [ [ R.Int 10 ]; [ R.Int 20 ] ] (rows_of res));
    Alcotest.test_case "union all keeps duplicates" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check int) "count" 6
          (List.length
             (E.exec db "SELECT did FROM dept UNION ALL SELECT did FROM dept UNION ALL \
                         SELECT did FROM dept")
               .E.rows));
    Alcotest.test_case "compound order by name and limit" `Quick (fun () ->
        let db = fresh () in
        let res =
          E.exec db
            "SELECT name FROM emp WHERE id <= 2 UNION SELECT dname FROM dept ORDER BY name \
             DESC LIMIT 2"
        in
        Alcotest.(check (list row)) "ordered" [ [ R.Text "ops" ]; [ R.Text "eng" ] ]
          (rows_of res));
    Alcotest.test_case "mismatched arity rejected" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "SELECT id FROM emp UNION SELECT did, dname FROM dept");
             false
           with E.Error _ -> true)) ]

let casts =
  [ Alcotest.test_case "cast to integer truncates" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "int" (R.Int 3) (E.scalar db "SELECT CAST(3.9 AS INTEGER)");
        Alcotest.(check value) "text to int" (R.Int 12)
          (E.scalar db "SELECT CAST('12abc' AS INTEGER)"));
    Alcotest.test_case "cast to text renders" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "text" (R.Text "42") (E.scalar db "SELECT CAST(42 AS TEXT)"));
    Alcotest.test_case "cast to real parses" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "real" (R.Real 2.5) (E.scalar db "SELECT CAST('2.5' AS REAL)"));
    Alcotest.test_case "cast null stays null" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check value) "null" R.Null (E.scalar db "SELECT CAST(NULL AS INTEGER)")) ]

(* Every optimized plan ends with its delta-safety verdict: a row
   select over a sequential scan is delta-safe, and anything that sorts
   its rows or reads them in index order is not. *)
let delta_yes = "DELTA-SAFE: yes"
let delta_no reason = Printf.sprintf "DELTA-SAFE: no (%s)" reason

let explain =
  [ Alcotest.test_case "seq scan reported" `Quick (fun () ->
        let db = fresh () in
        let res = E.exec db "EXPLAIN SELECT * FROM emp" in
        Alcotest.(check (list row)) "scan"
          [ [ R.Text "SCAN emp" ]; [ R.Text delta_yes ] ]
          (rows_of res));
    Alcotest.test_case "index search reported" `Quick (fun () ->
        let db = fresh () in
        ignore (E.exec db "CREATE INDEX ie ON emp (id)");
        let res = E.exec db "EXPLAIN SELECT * FROM emp WHERE id = 2" in
        Alcotest.(check (list row)) "search"
          [ [ R.Text "SEARCH emp USING INDEX ie" ];
            [ R.Text (delta_no "index search (rows arrive in index order)") ] ]
          (rows_of res));
    Alcotest.test_case "automatic hash index reported for joins" `Quick (fun () ->
        let db = fresh () in
        let res =
          E.exec db "EXPLAIN SELECT * FROM emp, dept WHERE emp.dept = dept.did ORDER BY id"
        in
        Alcotest.(check (list row)) "join plan"
          [ [ R.Text "SCAN emp" ]; [ R.Text "JOIN dept USING AUTOMATIC HASH INDEX" ];
            [ R.Text "USE TEMP B-TREE FOR ORDER BY" ]; [ R.Text (delta_no "ORDER BY") ] ]
          (rows_of res));
    Alcotest.test_case "native index join reported" `Quick (fun () ->
        let db = fresh () in
        ignore (E.exec db "CREATE INDEX idd ON dept (did)");
        let res = E.exec db "EXPLAIN SELECT * FROM emp, dept WHERE emp.dept = dept.did" in
        Alcotest.(check (list row)) "join plan"
          [ [ R.Text "SCAN emp" ]; [ R.Text "SEARCH dept USING INDEX idd (join)" ];
            [ R.Text (delta_no "index probe join") ] ]
          (rows_of res)) ]

(* Equi-joins match exactly the pairs where SQL [=] is true, whatever
   the join strategy: Int 1 joins Real 1.0, a NULL key joins nothing,
   text joins equal text and no number. *)
let keyed () =
  let db = E.create ~snapshots:false () in
  let e sql = ignore (E.exec db sql) in
  e "CREATE TABLE a (x INTEGER)";
  e "CREATE TABLE b (y REAL, z TEXT)";
  e "INSERT INTO a VALUES (NULL), (1), (2), (3), ('1'), (2.5)";
  e "INSERT INTO b VALUES (NULL, 'null'), (1.0, 'one'), (1, 'one int'), (2.5, 'two and a half'), \
     ('1', 'text one'), (3.0, 'three'), (4, 'four')";
  db

let sorted db sql = List.sort compare (rows_of (E.exec db sql))

let plan_has db sql line =
  List.mem [ R.Text line ] (rows_of (E.exec db ("EXPLAIN " ^ sql)))

let equi_join =
  [ Alcotest.test_case "hash, index-probe and nested-loop joins agree with SQL =" `Quick
      (fun () ->
        let db = keyed () in
        let want =
          List.sort compare
            [ [ R.Int 1; R.Text "one" ]; [ R.Int 1; R.Text "one int" ];
              [ R.Int 3; R.Text "three" ]; [ R.Text "1"; R.Text "text one" ];
              [ R.Real 2.5; R.Text "two and a half" ] ]
        in
        let hash = "SELECT x, z FROM a, b WHERE x = y" in
        Alcotest.(check bool) "hash join planned" true
          (plan_has db hash "JOIN b USING AUTOMATIC HASH INDEX");
        Alcotest.(check (list row)) "hash join" want (sorted db hash);
        Alcotest.(check (list row)) "hash join, the other way round" want
          (sorted db "SELECT x, z FROM b, a WHERE y = x");
        Alcotest.(check (list row)) "nested loop" want
          (sorted db "SELECT x, z FROM a, b WHERE x >= y AND x <= y");
        ignore (E.exec db "CREATE INDEX iy ON b (y)");
        Alcotest.(check bool) "index probe planned" true
          (plan_has db hash "SEARCH b USING INDEX iy (join)");
        Alcotest.(check (list row)) "index probe" want (sorted db hash));
    Alcotest.test_case "a NULL key gets NULLs from a LEFT JOIN" `Quick (fun () ->
        let db = keyed () in
        Alcotest.(check (list row)) "left join"
          (List.sort compare
             [ [ R.Null; R.Null ]; [ R.Int 1; R.Text "one" ]; [ R.Int 1; R.Text "one int" ];
               [ R.Int 2; R.Null ]; [ R.Int 3; R.Text "three" ];
               [ R.Text "1"; R.Text "text one" ]; [ R.Real 2.5; R.Text "two and a half" ] ])
          (sorted db "SELECT x, z FROM a LEFT JOIN b ON x = y"));
    Alcotest.test_case "integers beyond 2^53 join as SQL = compares them" `Quick (fun () ->
        (* 2^53 + 1 equals the REAL 2^53 it rounds to, not the INTEGER *)
        let db = E.create ~snapshots:false () in
        let e sql = ignore (E.exec db sql) in
        e "CREATE TABLE a (x INTEGER)";
        e "CREATE TABLE b (y, z TEXT)";
        e "INSERT INTO a VALUES (9007199254740993), (9007199254740992)";
        e "INSERT INTO b VALUES (9007199254740992, 'int'), (9007199254740992.0, 'real')";
        let nested = sorted db "SELECT x, z FROM a, b WHERE x >= y AND x <= y" in
        Alcotest.(check int) "three pairs" 3 (List.length nested);
        Alcotest.(check (list row)) "hash join" nested
          (sorted db "SELECT x, z FROM a, b WHERE x = y");
        Alcotest.(check (list row)) "left join" nested
          (sorted db "SELECT x, z FROM a LEFT JOIN b ON x = y")) ]

let () =
  Alcotest.run "sql2"
    [ ("left-join", left_join);
      ("equi-join", equi_join);
      ("subqueries", subqueries);
      ("union", unions);
      ("cast", casts);
      ("explain", explain) ]
