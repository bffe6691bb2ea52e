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
        Alcotest.(check int) "db still usable" 1 (E.int_scalar db "SELECT COUNT(*) FROM t")) ]

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

let () =
  Alcotest.run "robustness"
    [ ("sql-errors", sql_errors);
      ("txn-misuse", txn_misuse);
      ("udf-errors", udf_errors);
      ("storage-stability", storage_stability) ]
