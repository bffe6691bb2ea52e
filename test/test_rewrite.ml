(* Binding Qq to each snapshot (paper §3's loop-body rewrite): the loop
   runs Qq AS OF the iteration's snapshot with current_snapshot() bound
   to its id.  Every case runs a whole CollateData loop, sequentially and
   on two worker domains, and checks the result rows — including the
   quote, comment and identifier pitfalls a textual rewrite would trip
   over. *)

module E = Sqldb.Engine
module R = Storage.Record

(* Three snapshots (ids 1-3).  t holds one row per snapshot whose every
   column moves with the snapshot; s matches 'it''s select' in snapshots
   1 and 3 only.  LoggedIn is the paper's example: UserB is logged in at
   snapshots 1 and 3. *)
let fixture () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE t (x INTEGER, s TEXT, current_snapshot INTEGER, current_snapshot_count INTEGER)";
  e "CREATE TABLE LoggedIn (l_userid TEXT)";
  e "INSERT INTO t VALUES (10, 'it''s select', 100, 1000)";
  e "INSERT INTO LoggedIn VALUES ('UserA'), ('UserB')";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "UPDATE t SET x = 20, s = 'other', current_snapshot = 200, current_snapshot_count = 2000";
  e "DELETE FROM LoggedIn WHERE l_userid = 'UserB'";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "UPDATE t SET x = 30, s = 'it''s select', current_snapshot = 300, current_snapshot_count = 3000";
  e "INSERT INTO LoggedIn VALUES ('UserB')";
  ignore (Rql.declare_snapshot ctx);
  ctx

(* CollateData(all snapshots, qq) into R, read back in insertion
   (= snapshot) order, one rendered row per line. *)
let collate ?domains qq =
  let ctx = fixture () in
  ignore (Rql.collate_data ?domains ctx ~qs:"SELECT snap_id FROM SnapIds" ~qq ~table:"R");
  List.map
    (fun row -> String.concat "|" (Array.to_list (Array.map R.value_to_string row)))
    (E.query ctx.Rql.meta "SELECT * FROM R")

let check_rows qq expected () =
  Alcotest.(check (list string)) "sequential" expected (collate qq);
  Alcotest.(check (list string)) "two domains" expected (collate ~domains:2 qq)

let case name qq expected = Alcotest.test_case name `Quick (check_rows qq expected)

let tests =
  [ case "paper example" "SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserB'"
      [ "1"; "3" ];
    case "Qq runs AS OF each snapshot" "SELECT x, s FROM t"
      [ "10|it's select"; "20|other"; "30|it's select" ];
    case "case-insensitive select" "select x FROM t" [ "10"; "20"; "30" ];
    case "select inside string literal untouched" "SELECT 'select x' AS c FROM t"
      [ "select x"; "select x"; "select x" ];
    case "current_snapshot inside string untouched" "SELECT 'current_snapshot()' AS c FROM t"
      [ "current_snapshot()"; "current_snapshot()"; "current_snapshot()" ];
    case "select inside comment untouched" "/* select */ SELECT x FROM t" [ "10"; "20"; "30" ];
    case "multiple current_snapshot occurrences"
      "SELECT current_snapshot() AS a, current_snapshot() AS b FROM t" [ "1|1"; "2|2"; "3|3" ];
    case "current_snapshot with inner whitespace" "SELECT current_snapshot ( ) AS sid FROM t"
      [ "1"; "2"; "3" ];
    case "identifier containing the word is untouched" "SELECT current_snapshot_count FROM t"
      [ "1000"; "2000"; "3000" ];
    case "escaped quotes in strings" "SELECT x FROM t WHERE s = 'it''s select'" [ "10"; "30" ];
    case "dot-qualified name is a different identifier" "SELECT t.current_snapshot FROM t"
      [ "100"; "200"; "300" ];
    case "string literal straddling occurrences untouched"
      "SELECT current_snapshot() AS sid, 'current_snapshot() and select' AS c FROM t"
      [ "1|current_snapshot() and select"; "2|current_snapshot() and select";
        "3|current_snapshot() and select" ];
    case "a Qq's own AS OF is overridden (W106)" "SELECT AS OF 1 x FROM t" [ "10"; "20"; "30" ];
    case "binds current_snapshot() per snapshot" "SELECT current_snapshot() AS sid FROM t"
      [ "1"; "2"; "3" ];
    Alcotest.test_case "non-select rejected" `Quick (fun () ->
        List.iter
          (fun domains ->
            Alcotest.(check bool) "typed RQL error" true
              (match collate ~domains "DELETE FROM t" with
              | _ -> false
              | exception Rql.Error _ -> true))
          [ 1; 2 ]);
    Alcotest.test_case "parameterize binds AS OF and current_snapshot" `Quick (fun () ->
        let open Sqldb.Ast in
        match Sqldb.Parser.parse_one "SELECT current_snapshot(), x FROM t" with
        | Select sel ->
          let p = Rql.parameterize sel in
          Alcotest.(check bool) "as_of is param" true (p.as_of = Some (Param 0));
          (match p.items with
          | Sel_expr (Param 0, _) :: _ -> ()
          | _ -> Alcotest.fail "current_snapshot() not parameterized")
        | _ -> Alcotest.fail "parse");
    Alcotest.test_case "parameterized Qq runs via prepared statement" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (x INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1)");
        let sid = Option.get (E.exec db "COMMIT WITH SNAPSHOT").E.snapshot in
        match E.parse "SELECT current_snapshot() AS sid FROM t" with
        | Sqldb.Ast.Select sel ->
          let prep = E.prepare_select db ~key:"rw-test" (Rql.parameterize sel) in
          let res = E.exec_prepared ~params:[| R.Int sid |] prep in
          Alcotest.(check bool) "row is sid" true (res.E.rows = [ [| R.Int sid |] ])
        | _ -> Alcotest.fail "parse") ]

let () = Alcotest.run "rewrite" [ ("rewrite", tests) ]
