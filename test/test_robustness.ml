(* Robustness and failure-path tests: malformed SQL, semantic errors,
   transaction misuse, UDF argument errors, storage churn stability, and
   engine behaviour at the edges. *)

module R = Storage.Record
module E = Sqldb.Engine

let raises_error f =
  try
    ignore (f ());
    false
  with E.Error _ -> true

let check_raises name sql =
  Alcotest.test_case name `Quick (fun () ->
      let db = E.create ~snapshots:false () in
      ignore (E.exec db "CREATE TABLE t (a INTEGER, b TEXT)");
      ignore (E.exec db "INSERT INTO t VALUES (1, 'x')");
      Alcotest.(check bool) sql true (raises_error (fun () -> E.exec db sql)))

let sql_errors =
  [ check_raises "unterminated string" "SELECT 'oops";
    check_raises "unknown table" "SELECT * FROM nothing";
    check_raises "unknown column" "SELECT nope FROM t";
    check_raises "qualified unknown column" "SELECT t.nope FROM t";
    check_raises "unknown alias qualifier" "SELECT x.a FROM t";
    check_raises "ambiguous column" "SELECT a FROM t t1, t t2";
    check_raises "insert arity mismatch" "INSERT INTO t VALUES (1)";
    check_raises "insert unknown column" "INSERT INTO t (a, zzz) VALUES (1, 2)";
    check_raises "update unknown column" "UPDATE t SET zzz = 1";
    check_raises "delete unknown table" "DELETE FROM nothing";
    check_raises "drop unknown table" "DROP TABLE nothing";
    check_raises "drop unknown index" "DROP INDEX nothing";
    check_raises "index on unknown table" "CREATE INDEX i ON nothing (a)";
    check_raises "index on unknown column" "CREATE INDEX i ON t (zzz)";
    check_raises "textual limit" "SELECT a FROM t LIMIT 'many'";
    check_raises "group by unknown column" "SELECT COUNT(*) FROM t GROUP BY zzz";
    check_raises "trailing garbage" "SELECT a FROM t;;; nonsense";
    check_raises "commit without begin" "COMMIT";
    check_raises "rollback without begin" "ROLLBACK";
    check_raises "empty statement" "" ]

let txn_misuse =
  [ Alcotest.test_case "double begin rejected" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "BEGIN");
        Alcotest.(check bool) "raises" true (raises_error (fun () -> E.exec db "BEGIN"));
        ignore (E.exec db "ROLLBACK"));
    Alcotest.test_case "snapshot on non-snapshot db rejected" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "BEGIN");
        Alcotest.(check bool) "raises" true
          (raises_error (fun () -> E.exec db "COMMIT WITH SNAPSHOT")));
    Alcotest.test_case "work continues after an error" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        Alcotest.(check bool) "bad statement" true
          (raises_error (fun () -> E.exec db "SELECT zzz FROM t"));
        ignore (E.exec db "INSERT INTO t VALUES (1)");
        Alcotest.(check int) "db still usable" 1 (E.int_scalar db "SELECT COUNT(*) FROM t"));
    (* Inside BEGIN a failed statement is not rolled back with its
       transaction, so it must fail before its first write. *)
    Alcotest.test_case "a failed multi-row INSERT inside BEGIN writes no row" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a TEXT)");
        ignore (E.exec db "BEGIN");
        Alcotest.(check bool) "second row too long" true
          (raises_error (fun () ->
               E.exec db
                 (Printf.sprintf "INSERT INTO t VALUES ('one'), ('%s')" (String.make 4100 'x'))));
        ignore (E.exec db "COMMIT");
        Alcotest.(check int) "no row" 0 (E.int_scalar db "SELECT COUNT(*) FROM t"));
    Alcotest.test_case "a failed UPDATE inside BEGIN rewrites no row" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a TEXT)");
        ignore (E.exec db "INSERT INTO t VALUES ('one'), ('two')");
        ignore (E.exec db "BEGIN");
        Alcotest.(check bool) "second row fails to evaluate" true
          (raises_error (fun () ->
               E.exec db "UPDATE t SET a = CASE WHEN a = 'one' THEN 'x' ELSE substr(a, a) END"));
        ignore (E.exec db "COMMIT");
        Alcotest.(check (list string)) "rows unchanged" [ "one"; "two" ]
          (List.map
             (fun r -> R.value_to_string r.(0))
             (E.query db "SELECT a FROM t"))) ]

let udf_errors =
  [ Alcotest.test_case "UDF exceptions surface as errors" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        E.register_fn db "boom" (fun _ -> failwith "kaput");
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "SELECT boom()");
             false
           with Failure _ | E.Error _ -> true));
    Alcotest.test_case "UDF shadows nothing and receives args" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        E.register_fn db "triple" (fun args ->
            match args with [| R.Int i |] -> R.Int (3 * i) | _ -> R.Null);
        Alcotest.(check bool) "result" true (E.scalar db "SELECT triple(14)" = R.Int 42);
        Alcotest.(check bool) "builtins intact" true (E.scalar db "SELECT ABS(-1)" = R.Int 1));
    Alcotest.test_case "RQL UDF wrong arity reported" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (E.exec ctx.Rql.data "CREATE TABLE t (x INTEGER)");
        ignore (Rql.declare_snapshot ctx);
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec ctx.Rql.meta "SELECT CollateData(snap_id) FROM SnapIds");
             false
           with Rql.Error _ | E.Error _ -> true));
    Alcotest.test_case "RQL mechanism rejects non-SELECT Qq" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (E.exec ctx.Rql.data "CREATE TABLE t (x INTEGER)");
        ignore (Rql.declare_snapshot ctx);
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                  ~qq:"DELETE FROM t" ~table:"T");
             false
           with Rql.Error _ -> true)) ]

let storage_stability =
  [ Alcotest.test_case "heap churn keeps page count bounded" `Quick (fun () ->
        (* delete-oldest/insert cycles must recycle space through the
           free-space map instead of growing the chain *)
        let pager = Storage.Pager.create () in
        let heap = Storage.Txn.with_txn pager (fun txn -> Storage.Heap.create txn) in
        let fifo = Queue.create () in
        Storage.Txn.with_txn pager (fun txn ->
            for i = 1 to 2000 do
              Queue.add (Storage.Heap.insert txn heap (Printf.sprintf "row%06d-%s" i (String.make 100 'x'))) fifo
            done);
        let pages_before = Storage.Heap.page_count (Storage.Pager.read pager) heap in
        for round = 1 to 30 do
          Storage.Txn.with_txn pager (fun txn ->
              for _ = 1 to 100 do
                ignore (Storage.Heap.delete txn heap (Queue.pop fifo))
              done;
              for i = 1 to 100 do
                Queue.add
                  (Storage.Heap.insert txn heap
                     (Printf.sprintf "new%03d-%03d-%s" round i (String.make 100 'y')))
                  fifo
              done)
        done;
        let pages_after = Storage.Heap.page_count (Storage.Pager.read pager) heap in
        Alcotest.(check bool)
          (Printf.sprintf "%d -> %d pages" pages_before pages_after)
          true
          (pages_after <= pages_before + 2));
    Alcotest.test_case "wide rows spanning most of a page" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE w (x TEXT)");
        let big = String.make 3500 'w' in
        ignore (E.exec db (Printf.sprintf "INSERT INTO w VALUES ('%s'), ('%s')" big big));
        Alcotest.(check int) "both stored" 2 (E.int_scalar db "SELECT COUNT(*) FROM w");
        Alcotest.(check int) "length preserved" 3500
          (E.int_scalar db "SELECT LENGTH(x) FROM w LIMIT 1"));
    Alcotest.test_case "oversized row rejected cleanly" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE w (x TEXT)");
        let too_big = String.make 5000 'w' in
        Alcotest.(check bool) "raises" true
          (raises_error (fun () -> E.exec db (Printf.sprintf "INSERT INTO w VALUES ('%s')" too_big))));
    Alcotest.test_case "hundreds of snapshots remain readable" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE c (n INTEGER)");
        ignore (E.exec db "INSERT INTO c VALUES (0)");
        for i = 1 to 300 do
          ignore (E.exec db (Printf.sprintf "UPDATE c SET n = %d" i));
          ignore (E.exec db "COMMIT WITH SNAPSHOT")
        done;
        List.iter
          (fun sid ->
            Alcotest.(check int)
              (Printf.sprintf "as of %d" sid)
              sid
              (E.int_scalar db (Printf.sprintf "SELECT AS OF %d n FROM c" sid)))
          [ 1; 2; 77; 150; 299; 300 ]) ]

(* Every statement failure is the one typed error, whichever layer
   raises it and whichever entry point runs it: [E.exec], an Rql call,
   or a save or load. *)
let error_of f =
  match f () with
  | _ -> Alcotest.fail "expected an error"
  | exception E.Error msg -> msg

let has_sub s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let check_msg name ~want msg = Alcotest.(check bool) (name ^ ": " ^ msg) true (has_sub msg want)

let rql_ctx () =
  let ctx = Rql.create () in
  ignore (Rql.exec_data ctx "CREATE TABLE t (s TEXT)");
  ignore (Rql.exec_data ctx "INSERT INTO t VALUES ('a')");
  ignore (Rql.declare_snapshot ctx);
  ctx

let one_error =
  [ Alcotest.test_case "SQL-form calls that fail are statement errors" `Quick (fun () ->
        let ctx = rql_ctx () in
        check_msg "rejected Qq" ~want:"Qq rejected"
          (error_of (fun () ->
               Rql.exec_meta ctx "SELECT CollateData(snap_id, 'SELECT nope FROM t', 'T') FROM SnapIds"));
        check_msg "median" ~want:"unknown aggregate function median"
          (error_of (fun () ->
               Rql.exec_meta ctx
                 "SELECT AggregateDataInVariable(snap_id, 'SELECT s FROM t', 'T', 'median') FROM \
                  SnapIds"));
        Alcotest.(check int) "meta still usable" 1
          (E.int_scalar ctx.Rql.meta "SELECT COUNT(*) FROM SnapIds"));
    Alcotest.test_case "an evaluation error in a Qq run through the API" `Quick (fun () ->
        let ctx = rql_ctx () in
        check_msg "substr" ~want:"substr expects integer start and length"
          (error_of (fun () ->
               Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                 ~qq:"SELECT substr(s, s) FROM t" ~table:"R")));
    Alcotest.test_case "a malformed number is a lexer error" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        check_msg "1e" ~want:"SQL lexer: malformed number 1e at 1:8"
          (error_of (fun () -> E.exec db "SELECT 1e"));
        Alcotest.(check int) "next statement runs" 1 (E.int_scalar db "SELECT 1"));
    Alcotest.test_case "unreadable and unwritable image files" `Quick (fun () ->
        let path = "/nonexistent-dir/x.img" in
        let ctx = rql_ctx () in
        check_msg "Rql.save" ~want:path (error_of (fun () -> Rql.save ctx ~path));
        check_msg "Rql.load" ~want:path (error_of (fun () -> Rql.load ~path));
        check_msg "Backup.save" ~want:path (error_of (fun () -> Sqldb.Backup.save ctx.Rql.data ~path));
        check_msg "Backup.load" ~want:path (error_of (fun () -> Sqldb.Backup.load ~path)));
    Alcotest.test_case "INSERT and UPDATE of a row longer than a page" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE w (x TEXT)");
        ignore (E.exec db "INSERT INTO w VALUES ('short')");
        let long = String.make Storage.Heap.max_record 'w' in
        check_msg "insert" ~want:"record larger than a page: a row of w is"
          (error_of (fun () -> E.exec db (Printf.sprintf "INSERT INTO w VALUES ('%s')" long)));
        check_msg "update" ~want:"record larger than a page: a row of w is"
          (error_of (fun () -> E.exec db (Printf.sprintf "UPDATE w SET x = x || '%s'" long)));
        Alcotest.(check int) "row unchanged" 5 (E.int_scalar db "SELECT LENGTH(x) FROM w"));
    Alcotest.test_case "an index key longer than a B+tree node takes" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE s (a TEXT, b TEXT)");
        let long = String.make Storage.Btree.max_key 'k' in
        ignore (E.exec db (Printf.sprintf "INSERT INTO s VALUES ('x', '%s')" long));
        check_msg "create index" ~want:"index key too large: a key of s is"
          (error_of (fun () -> E.exec db "CREATE INDEX sb ON s (b)"));
        ignore (E.exec db "CREATE INDEX sa ON s (a)");
        check_msg "insert" ~want:"index key too large"
          (error_of (fun () -> E.exec db (Printf.sprintf "INSERT INTO s VALUES ('%s', 'y')" long)));
        check_msg "update" ~want:"index key too large"
          (error_of (fun () -> E.exec db (Printf.sprintf "UPDATE s SET a = '%s'" long)));
        Alcotest.(check string) "integrity" "ok"
          (R.value_to_string (E.scalar db "PRAGMA integrity_check")));
    Alcotest.test_case "an index that repeats a column measures its key" `Quick (fun () ->
        (* a key of (b, b) is twice b: the row's length does not bound it *)
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (b TEXT)");
        ignore (E.exec db "CREATE INDEX i ON t (b, b)");
        let ins c n = E.exec db (Printf.sprintf "INSERT INTO t VALUES ('%c%s')" c (String.make (n - 1) c)) in
        ignore (ins 'a' 379);
        check_msg "key of twice 1 333" ~want:"index key too large: a key of t is"
          (error_of (fun () -> ins 'c' 1333));
        ignore (ins 'd' 290);
        ignore (ins 'b' 300);
        ignore (ins 'e' 1000);
        Alcotest.(check int) "rows" 4 (E.int_scalar db "SELECT COUNT(*) FROM t");
        Alcotest.(check string) "integrity" "ok"
          (R.value_to_string (E.scalar db "PRAGMA integrity_check")));
    Alcotest.test_case "index keys up to max_key are stored" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE u (k TEXT, n INTEGER)");
        ignore (E.exec db "CREATE INDEX uk ON u (k)");
        (* a one-TEXT key has 5 bytes of header and tag; short and
           max_key keys, in no key order *)
        let most = Storage.Btree.max_key - 5 in
        let keys =
          List.init 26 (fun n ->
              let len = if n mod 3 = 0 then 40 + n else most - (n mod 2) in
              String.make 1 (Char.chr (97 + (n * 7 mod 26))) ^ String.make (len - 1) 'x')
        in
        List.iteri (fun n k -> ignore (E.exec db (Printf.sprintf "INSERT INTO u VALUES ('%s', %d)" k n))) keys;
        List.iteri
          (fun n k ->
            Alcotest.(check int) "found by the index" n
              (E.int_scalar db (Printf.sprintf "SELECT n FROM u WHERE k = '%s'" k)))
          keys;
        Alcotest.(check string) "integrity" "ok"
          (R.value_to_string (E.scalar db "PRAGMA integrity_check")));
    Alcotest.test_case "a table definition longer than a page" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        let cols = List.init 200 (Printf.sprintf "a_rather_long_column_name_%d INTEGER") in
        check_msg "create" ~want:"definition of wide"
          (error_of (fun () ->
               E.exec db (Printf.sprintf "CREATE TABLE wide (%s)" (String.concat ", " cols))));
        Alcotest.(check bool) "not created" true
          (raises_error (fun () -> E.exec db "SELECT * FROM wide")));
    Alcotest.test_case "a missing parameter binding" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        let p = E.prepare db "SELECT ?, ?" in
        check_msg "bind" ~want:"missing binding for parameter ?2"
          (error_of (fun () -> E.exec_prepared ~params:[| R.Int 1 |] p))) ]

let () =
  Alcotest.run "robustness"
    [ ("sql-errors", sql_errors);
      ("txn-misuse", txn_misuse);
      ("udf-errors", udf_errors);
      ("storage-stability", storage_stability);
      ("one-error", one_error) ]
