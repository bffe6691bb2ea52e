(* Integrity-checker tests: healthy databases pass (including after
   heavy churn and on restored backups), and seeded corruptions are
   detected.  Also used as a property: random workloads must leave the
   database structurally sound. *)

module R = Storage.Record
module E = Sqldb.Engine
module I = Sqldb.Integrity

let check_clean name db =
  Alcotest.(check (list string)) name [] (I.check db)

let tests =
  [ Alcotest.test_case "fresh database is clean" `Quick (fun () ->
        check_clean "fresh" (E.create ()));
    Alcotest.test_case "clean after DDL + DML + indexes" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER, b TEXT)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        ignore (E.exec db "CREATE INDEX iba ON t (b, a)");
        for i = 1 to 500 do
          ignore (E.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" (i mod 50) i))
        done;
        ignore (E.exec db "DELETE FROM t WHERE a % 3 = 0");
        ignore (E.exec db "UPDATE t SET a = a + 100 WHERE a % 3 = 1");
        check_clean "after churn" db);
    Alcotest.test_case "clean after drops" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2)");
        ignore (E.exec db "DROP INDEX ia");
        ignore (E.exec db "DROP TABLE t");
        ignore (E.exec db "CREATE TABLE u (x TEXT)");
        ignore (E.exec db "INSERT INTO u VALUES ('recycled pages')");
        check_clean "after drop and recycle" db);
    Alcotest.test_case "clean after TPC-H history" `Quick (fun () ->
        let ctx, _st, _ = Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:5 () in
        check_clean "tpch data db" ctx.Rql.data;
        check_clean "tpch meta db" ctx.Rql.meta);
    Alcotest.test_case "clean after backup round-trip" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2), (3)");
        let path = Filename.concat (Filename.get_temp_dir_name ()) "rql_integ.img" in
        Sqldb.Backup.save db ~path;
        let db2 = Sqldb.Backup.load ~path in
        check_clean "restored" db2;
        Sys.remove path);
    Alcotest.test_case "dangling index entry detected" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        ignore (E.exec db "INSERT INTO t VALUES (7)");
        (* corrupt: delete the heap row behind the index's back *)
        let cat = Sqldb.Db.catalog db in
        let tbl = Option.get (Sqldb.Catalog.find_table cat "t") in
        let heap = Storage.Heap.open_existing tbl.Sqldb.Catalog.theap in
        let rid = ref (-1) in
        Storage.Heap.iter (Sqldb.Db.read_current db) heap ~f:(fun r _ -> rid := r);
        Storage.Txn.with_txn Sqldb.Db.(db.pager) (fun txn ->
            ignore (Storage.Heap.delete txn heap !rid));
        Alcotest.(check bool) "detected" true (I.check db <> []));
    Alcotest.test_case "entry/row count mismatch detected" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (7)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        (* corrupt: insert a heap row behind the index's back *)
        let cat = Sqldb.Db.catalog db in
        let tbl = Option.get (Sqldb.Catalog.find_table cat "t") in
        let heap = Storage.Heap.open_existing tbl.Sqldb.Catalog.theap in
        Storage.Txn.with_txn Sqldb.Db.(db.pager) (fun txn ->
            ignore (Storage.Heap.insert txn heap (R.encode_row [| R.Int 9 |])));
        Alcotest.(check bool) "detected" true (I.check db <> []);
        Alcotest.(check bool) "check_exn raises" true
          (try
             I.check_exn db;
             false
           with E.Error _ -> true)) ]

(* The tree walk checks separator bounds and the leaf chain: one
   separator of a bulk-built index moved past entries of its right
   child is reported, though every entry is still there and in order
   along the leaves; so is a leaf chain cut after its first leaf. *)
let reports sub problems =
  let n = String.length sub in
  List.exists
    (fun s ->
      let rec has i = i + n <= String.length s && (String.sub s i n = sub || has (i + 1)) in
      has 0)
    problems

(* A 400-row table with a bulk-built index on it (three leaves under
   an interior root); [corrupt] edits the index through a transaction. *)
let indexed_then ~corrupt =
  let db = E.create ~snapshots:false () in
  ignore (E.exec db "CREATE TABLE t (a INTEGER)");
  for i = 0 to 399 do
    ignore (E.exec db (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
  done;
  ignore (E.exec db "CREATE INDEX ia ON t (a)");
  check_clean "built" db;
  let cat = Sqldb.Db.catalog db in
  let root = (Option.get (Sqldb.Catalog.find_index cat "ia")).Sqldb.Catalog.iroot in
  Storage.Txn.with_txn Sqldb.Db.(db.pager) (fun txn ->
      let w = Storage.Txn.write txn root in
      Alcotest.(check bool) "root is interior" true
        (Storage.Page.kind w = Storage.Page.Btree_interior);
      corrupt txn w);
  I.check db

let separator_tests =
  [ Alcotest.test_case "a corrupted separator is reported" `Quick (fun () ->
        let problems =
          indexed_then ~corrupt:(fun _ root ->
              (* separator 0 is [key; rid; child]: raise its key by 5 *)
              let sep = R.decode_row (Storage.Page.get_exn root 0) in
              (match sep.(0) with R.Int a -> sep.(0) <- R.Int (a + 5) | _ -> assert false);
              Storage.Page.remove_at root 0;
              ignore (Storage.Page.insert_at root 0 (R.encode_row sep)))
        in
        Alcotest.(check bool) "reported" true (reports "outside its separator bounds" problems));
    Alcotest.test_case "a cut leaf chain is reported" `Quick (fun () ->
        let problems =
          indexed_then ~corrupt:(fun txn root ->
              Storage.Page.set_next (Storage.Txn.write txn (Storage.Page.aux root)) (-1))
        in
        Alcotest.(check bool) "reported" true
          (reports "leaf chain does not follow key order" problems)) ]

(* PRAGMA integrity_check: the SQL surface over I.check — a single "ok"
   row when healthy, one row per problem otherwise. *)
let pragma_tests =
  [ Alcotest.test_case "healthy database reports ok" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2)");
        let res = E.exec db "PRAGMA integrity_check" in
        Alcotest.(check (array string)) "column" [| "integrity_check" |] res.E.columns;
        Alcotest.(check bool) "single ok row" true (res.E.rows = [ [| R.Text "ok" |] ]));
    Alcotest.test_case "one row per problem after page corruption" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2)");
        (* flip a bit of a committed page image behind the pager's back *)
        let pager = Sqldb.Db.(db.pager) in
        Storage.Pager.corrupt_page pager (Storage.Pager.n_pages pager - 1) ~bit:4;
        let res = E.exec db "PRAGMA integrity_check" in
        Alcotest.(check bool) "problems reported" true
          (res.E.rows <> [ [| R.Text "ok" |] ] && res.E.rows <> []);
        Alcotest.(check bool) "problem text matches I.check" true
          (List.map (function [| R.Text s |] -> s | _ -> "?") res.E.rows = I.check db));
    Alcotest.test_case "page damage survives a backup round-trip" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2)");
        let pager = Sqldb.Db.(db.pager) in
        let pid = Storage.Pager.n_pages pager - 1 in
        Storage.Pager.corrupt_page pager pid ~bit:4;
        let path = Filename.concat (Filename.get_temp_dir_name ()) "rql_integ_damage.img" in
        Sqldb.Backup.save db ~path;
        let db2 = Sqldb.Backup.load ~path in
        Sys.remove path;
        (* the image carries the stored CRC, so the load cannot bless
           the flipped page with a fresh checksum *)
        let rows =
          List.map (function [| R.Text s |] -> s | _ -> "?")
            (E.exec db2 "PRAGMA integrity_check").E.rows
        in
        Alcotest.(check bool) "restored page still fails its checksum" true
          (List.mem (Printf.sprintf "page %d fails checksum" pid) rows));
    Alcotest.test_case "a page archived twice in one epoch is reported" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2)");
        ignore (E.exec db "COMMIT WITH SNAPSHOT");
        ignore (E.exec db "BEGIN");
        ignore (E.exec db "UPDATE t SET a = 3 WHERE a = 1");
        ignore (E.exec db "COMMIT WITH SNAPSHOT");
        ignore (E.exec db "UPDATE t SET a = 4 WHERE a = 2");
        check_clean "healthy history" db;
        (* re-append the newest epoch's first mapping: the log now ends
           inside that epoch with a second entry for the same page *)
        let retro = Option.get db.Sqldb.Db.retro in
        let ml = retro.Retro.maplog in
        let first = Retro.Maplog.entry ml (Retro.Maplog.boundary ml 2).Retro.Maplog.pos in
        Retro.Maplog.append ml first;
        let rows =
          List.map (function [| R.Text s |] -> s | _ -> "?")
            (E.exec db "PRAGMA integrity_check").E.rows
        in
        Alcotest.(check (list string)) "the duplicate is the one problem"
          [ Printf.sprintf "snapshot 2's epoch archives page %d twice" first.Retro.Maplog.pid ]
          rows);
    Alcotest.test_case "a heap handle forgets the pages of an aborted transaction" `Quick
      (fun () ->
        (* the abort gives the pages it allocated for [t] back; the index
           on [u] takes them, and [t]'s next insert must not follow a
           stale tail hint or map entry into the index's page *)
        let x = String.make 2000 'x' and y = String.make 5000 'y' in
        let insert_x = Printf.sprintf "INSERT INTO t VALUES ('%s')" x in
        List.iter
          (fun (what, abort) ->
            let db = E.create () in
            ignore (E.exec db "CREATE TABLE t (a TEXT)");
            ignore (E.exec db "CREATE TABLE u (b TEXT)");
            ignore (E.exec db insert_x);
            abort db;
            ignore (E.exec db "CREATE INDEX ix ON u (b)");
            ignore (E.exec db "INSERT INTO u VALUES ('k1')");
            ignore (E.exec db "INSERT INTO u VALUES ('k2')");
            ignore (E.exec db insert_x);
            Alcotest.(check bool) (what ^ ": integrity ok") true
              ((E.exec db "PRAGMA integrity_check").E.rows = [ [| R.Text "ok" |] ]);
            Alcotest.(check bool) (what ^ ": two rows") true
              ((E.exec db "SELECT COUNT(*) FROM t").E.rows = [ [| R.Int 2 |] ]))
          [ ( "ROLLBACK",
              fun db ->
                ignore (E.exec db "BEGIN");
                for _ = 1 to 3 do
                  ignore (E.exec db insert_x)
                done;
                ignore (E.exec db "ROLLBACK") );
            ( "failed INSERT",
              fun db ->
                match
                  E.exec db
                    (Printf.sprintf "INSERT INTO t VALUES ('%s'), ('%s'), ('%s'), ('%s')" x x x y)
                with
                | _ -> Alcotest.fail "a row larger than a page was inserted"
                | exception E.Error _ -> () ) ]);
    Alcotest.test_case "unknown pragma is a typed error" `Quick (fun () ->
        let db = E.create () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "PRAGMA no_such_pragma");
             false
           with E.Error _ -> true)) ]

(* Property: random DML workloads leave the database structurally
   sound. *)
let prop_random_workload =
  QCheck.Test.make ~name:"random workload preserves integrity" ~count:25
    QCheck.(pair (int_bound 10_000) (int_range 10 120))
    (fun (seed, ops) ->
      let rng = Random.State.make [| seed |] in
      let db = E.create () in
      ignore (E.exec db "CREATE TABLE t (k INTEGER, v TEXT)");
      ignore (E.exec db "CREATE INDEX ik ON t (k)");
      for _ = 1 to ops do
        match Random.State.int rng 5 with
        | 0 | 1 ->
          ignore
            (E.exec db
               (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" (Random.State.int rng 30)
                  (Random.State.int rng 1000)))
        | 2 ->
          ignore (E.exec db (Printf.sprintf "DELETE FROM t WHERE k = %d" (Random.State.int rng 30)))
        | 3 ->
          ignore
            (E.exec db
               (Printf.sprintf "UPDATE t SET k = %d WHERE k = %d" (Random.State.int rng 30)
                  (Random.State.int rng 30)))
        | _ -> ignore (E.exec db "COMMIT WITH SNAPSHOT")
      done;
      I.check db = [])

let () =
  Alcotest.run "integrity"
    [ ("integrity", tests);
      ("separators", separator_tests);
      ("pragma", pragma_tests);
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_workload ]) ]
